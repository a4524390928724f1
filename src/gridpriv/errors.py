"""Exception types shared across the package, and the checked reader of array arguments."""

import math
import sys

import numpy as np

MIN_DIVISOR = math.nextafter(1 / sys.float_info.max, 1.0)  # least double with a finite reciprocal


class GridPrivError(Exception):
    """Base class for all package errors."""


class ConfigurationError(GridPrivError):
    """Inconsistent dimensions, invalid parameters or unsupported combinations."""


class ScenarioError(ConfigurationError):
    """Schema violation; carries the JSON path of the offending entry."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


def _checked_array(value, name, shape=None, low=None, closed=False, divisor=False):
    """value as a float64 array. A ConfigurationError naming name refuses it unless
    it has shape (when given), when low is given every entry is finite and > low
    (>= low when closed), and for a divisor every entry's reciprocal is finite."""
    arr = np.asarray(value, dtype=float)
    if shape is not None and arr.shape != shape:
        raise ConfigurationError(f"{name} has shape {arr.shape}, expected {shape}")
    if low is not None and not np.all(((arr >= low) if closed else (arr > low)) & (arr < np.inf)):
        bound = "" if low == -np.inf else f" and {'>=' if closed else '>'} {low:g}"
        raise ConfigurationError(f"{name} must be finite{bound}")
    if divisor and np.any(np.abs(arr) < MIN_DIVISOR):
        raise ConfigurationError(f"{name} must be at least {MIN_DIVISOR:.6g}: the closed loop "
                                 "divides by it")
    return arr


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
