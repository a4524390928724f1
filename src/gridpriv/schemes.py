"""Secondary frequency controllers and the privacy-signal machinery.

Four controllers are supported:

* integral: each unit integrates its local frequency with gain inversely
  proportional to its cost coefficient;
* primal_dual: one controller per bus, consensus over the electrical
  lines (the network's `Graph`), driven by the bus prosumption total;
* extended_primal_dual: one controller per unit, consensus over a
  unit-level communication `Graph`, driven by the unit prosumption;
* privacy_preserving: extended_primal_dual plus a privacy signal
  n = n_d + n_f, where n_d modulates the controller speed through a
  non-negative gain xi and n_f is frequency-bounded noise.

n_d = -xi * pc_dot makes the command derivative implicit; it is resolved
exactly by folding xi into the left-hand side time constant, so
(gamma + xi) * pc_dot = s_tilde - H psi + n_f, where H is the incidence
of the communication `Graph`.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, InfeasibilityError, _checked_array

INTEGRAL = "integral"
PRIMAL_DUAL = "primal_dual"
EXTENDED_PRIMAL_DUAL = "extended_primal_dual"
PRIVACY_PRESERVING = "privacy_preserving"

SCHEME_KINDS = (INTEGRAL, PRIMAL_DUAL, EXTENDED_PRIMAL_DUAL, PRIVACY_PRESERVING)

# Controllers that keep one state per unit and communicate power commands.
UNIT_CONSENSUS_KINDS = (EXTENDED_PRIMAL_DUAL, PRIVACY_PRESERVING)


@dataclass(frozen=True)
class PrivacyParams:
    """Bounds and sampling parameters for the privacy signal.

    beta bounds |n_f| relative to the local |omega|; beta_hat bounds the
    per-time rate of change of xi. safety < 1 keeps the sampled values
    strictly inside the open bounds. xi is capped at xi_max so the
    effective time constants stay bounded. beta and beta_hat must be finite
    and >= 0 (a ConfigurationError names the one that is not); xi_max = -0.0
    is stored as +0.0.
    """

    beta: np.ndarray  # per unit, >= 0
    beta_hat: np.ndarray  # per unit, >= 0
    xi_max: float
    safety: float = 0.999

    def __post_init__(self):
        for name in ("beta", "beta_hat"):
            object.__setattr__(self, name, _checked_array(getattr(self, name), name, low=0.0,
                                                          closed=True))
        if not 0.0 < self.safety < 1.0:
            raise ConfigurationError("safety must lie in (0, 1)")
        if not 0 <= self.xi_max < np.inf:
            raise ConfigurationError("xi_max must be non-negative and finite")
        # -0.0 passes the check but would make xi's initial draw range [0, -0.0) negative
        object.__setattr__(self, "xi_max", self.xi_max + 0.0)

    @cached_property
    def noise_bound(self):
        """safety * beta: the bound on |n_f| per unit of |omega|, formed once."""
        return self.safety * self.beta


@dataclass(frozen=True)
class SchemeConfig:
    """Controller kind, time constants and optional privacy parameters.

    gamma is per controller (per unit, or per bus for the bus-level
    scheme); gamma_psi is per communication edge. Both, and integral_gain
    for the integral scheme, must be finite and > 0, and no smaller than
    errors.MIN_DIVISOR (about 5.6e-309); a ConfigurationError names the one that
    is not.
    """

    kind: str
    gamma: np.ndarray
    gamma_psi: np.ndarray
    integral_gain: float = 1.0
    privacy: PrivacyParams | None = None

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ConfigurationError(f"unknown scheme kind {self.kind!r}")
        for name in ("gamma", "gamma_psi"):
            object.__setattr__(self, name, _checked_array(getattr(self, name), name, low=0.0,
                                                          divisor=True))
        if self.kind == INTEGRAL:
            _checked_array(self.integral_gain, "integral_gain", low=0.0, divisor=True)
        if self.kind == PRIVACY_PRESERVING and self.privacy is None:
            raise ConfigurationError("privacy_preserving scheme requires privacy parameters")


@dataclass
class SchemeState:
    """Mutable controller state advanced by the integrator."""

    p_c: np.ndarray  # power commands (per unit, or per bus for primal_dual)
    psi: np.ndarray  # per communication edge
    xi: np.ndarray  # per unit, >= 0 (zeros unless privacy_preserving)
    n_f_held: np.ndarray  # per unit, held constant over the current step


def scheme_rhs(cfg, graph, state, devices, s_tilde, omega, zeta=None):
    """Controller derivatives and the resulting device input.

    Returns (psi_dot, pc_dot, u), u the per-unit input to the devices.
    s_tilde is the per-unit prosumption vector, omega the per-bus
    frequency. zeta (bus prosumption totals) is required for the
    bus-level primal_dual scheme only.
    """
    n_units = devices.n_units
    if cfg.kind == INTEGRAL:
        p_c = _checked_array(state.p_c, "p_c", (n_units,))
        omega = _checked_array(omega, "omega", (devices.bus_count,))
        pc_dot = -(cfg.integral_gain / devices.cost_q) * omega[devices.bus]
        return np.zeros(0), pc_dot, p_c
    psi = _checked_array(state.psi, "psi", (graph.edge_count,))
    if cfg.kind == PRIMAL_DUAL:
        if zeta is None:
            raise ConfigurationError("primal_dual scheme requires zeta")
        p_c = _checked_array(state.p_c, "p_c", (graph.node_count,))
        zeta = _checked_array(zeta, "zeta", (graph.node_count,))
        psi_dot = graph.edge_diff(p_c) / cfg.gamma_psi
        pc_dot = (zeta - graph.node_sum(psi)) / cfg.gamma
        return psi_dot, pc_dot, p_c[devices.bus]
    # unit-level consensus schemes share one code path; extended_primal_dual
    # is the xi = 0, n_f = 0 special case of privacy_preserving
    if graph.node_count != n_units:
        raise ConfigurationError("unit-level scheme needs a communication node per unit")
    p_c = _checked_array(state.p_c, "p_c", (n_units,))
    xi = _checked_array(state.xi, "xi", (n_units,))
    n_f = _checked_array(state.n_f_held, "n_f_held", (n_units,))
    s_tilde = _checked_array(s_tilde, "s_tilde", (n_units,))
    effective = cfg.gamma + xi
    if np.any(effective <= 0):
        raise ConfigurationError("gamma + xi must stay strictly positive")
    psi_dot = graph.edge_diff(p_c) / cfg.gamma_psi
    pc_dot = (s_tilde - graph.node_sum(psi) + n_f) / effective
    return psi_dot, pc_dot, p_c


def draw_privacy_block(params, xi, dt, rng, rows):
    """The privacy gain xi after each of the next `rows` steps, and each
    step's n_f draw, from one call to rng.

    Row r of the draw holds step r's xi-increment draw and then its n_f
    draw, the order per-step draws come in, so a seed gives the same
    signals whatever the block length. xi takes a uniform step bounded by
    safety*beta_hat*dt and is clamped to [0, xi_max]; the walk does not
    read the state, so a whole block is advanced at once. Returns
    (xi rows, n_f draws), each (rows, n); see `privacy_noise`.
    """
    u = rng.uniform(-1.0, 1.0, (rows, 2, xi.shape[0]))
    scale = params.safety * params.beta_hat * dt
    # the walk is formed in place over its draws, a row at a time: a product
    # broadcast over the block takes numpy buffers of the block's size
    for r in range(rows):
        step = np.multiply(u[r, 0], scale, out=u[r, 0])
        # clip's bits for the walk's finite, never -0.0 values, at less cost
        xi = np.minimum(np.maximum(xi + step, 0.0, out=step), params.xi_max, out=step)
    return u[:, 0], u[:, 1]


def privacy_draws(params, n_units, dt, seed, steps, block_rows):
    """The seeded privacy sequence of a run's first `steps` steps, as
    (xi rows, n_f draws) blocks of `draw_privacy_block`, block_rows rows
    each but the last. xi starts uniform in [0, xi_max/10) and stays 0 at
    the beta_hat = 0 units. The one owner of the sequence: `simulate`
    consumes it step by step, and a trajectory's first read replays it."""
    rng = np.random.default_rng(seed)
    xi = rng.uniform(0.0, params.xi_max / 10.0, n_units)
    xi[params.beta_hat == 0.0] = 0.0  # degenerate units stay at the plain scheme
    for k in range(0, steps, block_rows):
        xi_rows, draws = draw_privacy_block(params, xi, dt, rng, min(block_rows, steps - k))
        xi = xi_rows[-1].copy()  # a copy, so that no view keeps the block
        yield xi_rows, draws
        del xi_rows, draws  # one block alive at a time


def privacy_noise(params, u, omega_at_unit):
    """n_f for draws u in [-1, 1): uniform within safety*beta*|omega| at
    each unit's bus. It reads the state, so it is formed step by step."""
    # + 0.0 normalizes -0.0 so degenerate runs match the plain scheme bit-for-bit
    return u * (params.noise_bound * np.abs(omega_at_unit)) + 0.0


def refresh_privacy_signals(params, xi, unit_bus, omega, dt, rng):
    """Draw the next privacy-gain increment and noise sample: one step of
    `draw_privacy_block`, with n_f at the bus frequencies omega. Both are
    held constant until the next refresh."""
    if dt <= 0:
        raise ConfigurationError("dt must be positive")
    xi_rows, draws = draw_privacy_block(params, xi, dt, rng, 1)
    return xi_rows[0], privacy_noise(params, draws[0], np.asarray(omega, dtype=float)[unit_bus])


def check_design_condition(h, d_over_n, beta, beta_hat):
    """Per-unit negative-semidefiniteness test of the 2x2 design matrix.

    d_over_n is the unit's bus damping divided by the number of active
    units at that bus. Returns (feasible, eigenvalues) with eigenvalues of
    shape (n, 2); the test itself uses the closed-form diagonal/determinant
    characterization.
    """
    h, d_over_n, beta, beta_hat = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (h, d_over_n, beta, beta_hat))
    )
    a11 = -h - d_over_n
    a22 = -h + beta_hat / 2.0
    off = h + beta / 2.0
    det = a11 * a22 - off * off
    feasible = (a11 <= 0) & (a22 <= 0) & (det >= 0)
    mid = (a11 + a22) / 2.0
    rad = np.sqrt(((a11 - a22) / 2.0) ** 2 + off * off)
    eigenvalues = np.stack([mid - rad, mid + rad], axis=-1)
    return feasible, eigenvalues


def max_feasible_beta(h, d_over_n, beta_hat):
    """Largest noise bound beta admitted by the design condition.

    Solves det = 0 of the 2x2 design matrix for beta. Requires
    beta_hat < 2h, otherwise the lower-right entry is non-negative and no
    beta is admissible.
    """
    h = np.asarray(h, dtype=float)
    d_over_n = np.asarray(d_over_n, dtype=float)
    beta_hat = np.asarray(beta_hat, dtype=float)
    if np.any(beta_hat >= 2.0 * h):
        raise InfeasibilityError("beta_hat must be smaller than 2h")
    return 2.0 * (np.sqrt((h + d_over_n) * (h - beta_hat / 2.0)) - h)


def design_condition_report(devices, model, privacy):
    """Evaluate the design condition for every unit under privacy, which must be given."""
    if privacy is None:
        raise ConfigurationError("scenario has no privacy parameters")
    per_bus = devices.units_per_bus()
    d_over_n = model.damping[devices.bus] / per_bus[devices.bus]
    feasible, eigenvalues = check_design_condition(
        devices.damping_h, d_over_n, privacy.beta, privacy.beta_hat
    )
    return feasible, eigenvalues, d_over_n
