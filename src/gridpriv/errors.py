"""Exception types shared across the package."""


class GridPrivError(Exception):
    """Base class for all package errors."""


class ConfigurationError(GridPrivError):
    """Inconsistent dimensions, invalid parameters or unsupported combinations."""


class ScenarioError(ConfigurationError):
    """Schema violation; carries the JSON path of the offending entry."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


class InfeasibilityError(GridPrivError):
    """A linear system or design condition has no admissible solution."""


class DivergenceError(GridPrivError):
    """The integrator produced a non-finite state.

    block (eta, omega, x, p_c or psi) and index locate the first
    non-finite entry of the stacked state; last_finite_time is the time
    of the state the failing step started from.
    """

    def __init__(self, time, block, index, last_finite_time):
        self.time = time
        self.block = block
        self.index = index
        self.last_finite_time = last_finite_time
        super().__init__(f"non-finite state at t={time:.6g} s, first in {block}[{index}]; "
                         f"last finite state at t={last_finite_time:.6g} s")
