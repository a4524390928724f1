"""Generation and controllable-demand units.

Each unit lives at a bus and is either a generator (first-order lag plus
droop) or a controllable load (static droop). Units carry a quadratic cost
coefficient and an attached uncontrollable load. The flat unit ordering is
fixed at construction and defines the stacking of all per-unit vectors.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, _checked_array


@dataclass(frozen=True)
class DeviceSet:
    """Flat, ordered collection of prosumption units.

    Arrays are indexed by the global unit ordering. tau and droop_m are
    meaningful for generators only (ignored entries for loads). A float field
    that is not one finite entry per unit (> 0 but for p_load; any value at a
    load's tau and droop_m; a generator's tau, which the closed loop divides
    by, no smaller than errors.MIN_DIVISOR) raises a ConfigurationError naming it.
    """

    bus: np.ndarray  # bus index per unit
    is_generator: np.ndarray  # bool per unit
    tau: np.ndarray  # s, > 0 for generators
    droop_m: np.ndarray  # > 0 for generators
    damping_h: np.ndarray  # > 0
    cost_q: np.ndarray  # > 0
    p_load: np.ndarray  # baseline uncontrollable demand, pu
    bus_count: int
    gen_index: np.ndarray = field(init=False, repr=False)
    load_index: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "bus", np.asarray(self.bus).astype(int))
        object.__setattr__(self, "is_generator", np.asarray(self.is_generator).astype(bool))
        n = self.bus.shape[0]
        if n == 0:
            raise ConfigurationError("at least one unit is required")
        if self.is_generator.shape != (n,):
            raise ConfigurationError(f"is_generator has shape {self.is_generator.shape}, "
                                     f"expected {(n,)}")
        if np.any(self.bus < 0) or np.any(self.bus >= self.bus_count):
            raise ConfigurationError("unit bus index out of range")
        for name, low in (("tau", None), ("droop_m", None), ("damping_h", 0.0),
                          ("cost_q", 0.0), ("p_load", -np.inf)):
            object.__setattr__(self, name, _checked_array(getattr(self, name), name, (n,), low))
        gens = self.is_generator
        _checked_array(self.tau[gens], "generator tau", low=0.0, divisor=True)
        _checked_array(self.droop_m[gens], "generator droop_m", low=0.0)
        object.__setattr__(self, "gen_index", np.flatnonzero(gens))
        object.__setattr__(self, "load_index", np.flatnonzero(~gens))

    @property
    def n_units(self):
        return self.bus.shape[0]

    @property
    def n_generators(self):
        return self.gen_index.shape[0]

    def units_per_bus(self):
        """Number of active units attached to each bus."""
        return np.bincount(self.bus, minlength=self.bus_count)

    def bus_sum(self, per_unit):
        """Sum a per-unit quantity over the units at each bus."""
        return np.bincount(self.bus, per_unit, self.bus_count)


@dataclass
class DeviceState:
    """Internal generation states, one per generator unit."""

    x: np.ndarray


def device_outputs(devices, dstate, u, omega, p_load=None):
    """Evaluate unit outputs at the current inputs.

    Returns (p_M per generator, d_c per load, s_tilde per unit,
    net_injection per bus). p_load overrides the baseline uncontrollable
    demand when given (used for disturbances).
    """
    u = _checked_array(u, "u", (devices.n_units,))
    omega = _checked_array(omega, "omega", (devices.bus_count,))
    p_load = devices.p_load if p_load is None else _checked_array(p_load, "p_load",
                                                                  (devices.n_units,))
    x = _checked_array(dstate.x, "x", (devices.n_generators,))
    p_M, d_c, s_tilde = unit_outputs(devices, x, u, omega, p_load)
    return p_M, d_c, s_tilde, bus_injection(devices, p_M, d_c, p_load)


def unit_outputs(devices, x, u, omega, p_load):
    """(p_M, d_c, s_tilde) at generator states x, unit inputs u and bus
    frequencies omega; x, u and omega may carry a leading sample axis."""
    drive = u - omega[..., devices.bus]
    gi, li = devices.gen_index, devices.load_index
    p_M = x + devices.damping_h[gi] * drive[..., gi]
    d_c = -devices.damping_h[li] * drive[..., li]
    return p_M, d_c, prosumption(devices, p_M, d_c, p_load)


def prosumption(devices, p_M, d_c, p_load):
    """Per-unit prosumption s_tilde: -p_M for generators, d_c for loads, plus p_load."""
    s_tilde = np.empty(p_M.shape[:-1] + (devices.n_units,))
    s_tilde[..., devices.gen_index] = -p_M
    s_tilde[..., devices.load_index] = d_c
    s_tilde += p_load
    return s_tilde


def bus_injection(devices, p_M, d_c, p_load):
    """Per-bus net injection: generation minus controllable and uncontrollable demand,
    added per bus in that order."""
    bus = np.concatenate([devices.bus[devices.gen_index], devices.bus[devices.load_index],
                          devices.bus])
    return np.bincount(bus, np.concatenate([p_M, -d_c, -p_load]), devices.bus_count)


def device_rhs(devices, dstate, u, omega):
    """First-order lag dynamics of the generator internal states."""
    u = _checked_array(u, "u", (devices.n_units,))
    omega = _checked_array(omega, "omega", (devices.bus_count,))
    x = _checked_array(dstate.x, "x", (devices.n_generators,))
    gi = devices.gen_index
    drive = u[gi] - omega[devices.bus[gi]]
    return (-x + devices.droop_m[gi] * drive) / devices.tau[gi]


def design_optimal_gains(cost_q, is_generator, droop_split=0.5):
    """Gains that make the closed-loop steady state cost-optimal.

    For loads q*h = 1; for generators q*(m + h) = 1 with the droop share
    of the total gain set by droop_split. The split does not affect
    optimality, only the transient. A subnormal cost_q gives inf gains
    without a warning; DeviceSet refuses them.
    """
    cost_q = _checked_array(cost_q, "cost_q", low=0.0)
    is_generator = np.asarray(is_generator, dtype=bool)
    droop_split = np.asarray(droop_split, dtype=float)
    if not (np.all(droop_split > 0.0) and np.all(droop_split < 1.0)):
        raise ConfigurationError("droop_split must lie in (0, 1)")
    with np.errstate(over="ignore"):
        h = np.where(is_generator, droop_split / cost_q, 1.0 / cost_q)
        m = np.where(is_generator, (1.0 - droop_split) / cost_q, 0.0)
    return m, h
