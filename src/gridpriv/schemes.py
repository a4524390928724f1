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

import numpy as np

from .errors import ConfigurationError, InfeasibilityError

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
    effective time constants stay bounded.
    """

    beta: np.ndarray  # per unit, >= 0
    beta_hat: np.ndarray  # per unit, >= 0
    xi_max: float
    safety: float = 0.999

    def __post_init__(self):
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        object.__setattr__(self, "beta_hat", np.asarray(self.beta_hat, dtype=float))
        if not all(np.all((v >= 0) & (v < np.inf)) for v in (self.beta, self.beta_hat)):
            raise ConfigurationError("beta and beta_hat must be non-negative and finite")
        if not 0.0 < self.safety < 1.0:
            raise ConfigurationError("safety must lie in (0, 1)")
        if not 0 <= self.xi_max < np.inf:
            raise ConfigurationError("xi_max must be non-negative and finite")


@dataclass(frozen=True)
class SchemeConfig:
    """Controller kind, time constants and optional privacy parameters.

    gamma is per controller (per unit, or per bus for the bus-level
    scheme); gamma_psi is per communication edge.
    """

    kind: str
    gamma: np.ndarray
    gamma_psi: np.ndarray
    integral_gain: float = 1.0
    privacy: PrivacyParams | None = None

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ConfigurationError(f"unknown scheme kind {self.kind!r}")
        object.__setattr__(self, "gamma", np.asarray(self.gamma, dtype=float))
        object.__setattr__(self, "gamma_psi", np.asarray(self.gamma_psi, dtype=float))
        if not all(np.all((v > 0) & (v < np.inf)) for v in (self.gamma, self.gamma_psi)):
            raise ConfigurationError("time constants must be positive and finite")
        if self.kind == INTEGRAL and not 0 < self.integral_gain < np.inf:
            raise ConfigurationError("integral_gain must be positive and finite")
        if self.kind == PRIVACY_PRESERVING and self.privacy is None:
            raise ConfigurationError("privacy_preserving scheme requires privacy parameters")


@dataclass
class SchemeState:
    """Mutable controller state advanced by the integrator."""

    p_c: np.ndarray  # power commands (per unit, or per bus for primal_dual)
    psi: np.ndarray  # per communication edge
    xi: np.ndarray  # per unit, >= 0 (zeros unless privacy_preserving)
    n_f_held: np.ndarray  # per unit, held constant over the current step

    def __post_init__(self):
        self.p_c = np.asarray(self.p_c, dtype=float)
        self.psi = np.asarray(self.psi, dtype=float)
        self.xi = np.asarray(self.xi, dtype=float)
        self.n_f_held = np.asarray(self.n_f_held, dtype=float)


@dataclass
class SchemeRhs:
    psi_dot: np.ndarray
    pc_dot: np.ndarray
    u: np.ndarray  # per-unit input to the devices
    n_d: np.ndarray  # realized speed-modulation signal, for logging


def scheme_rhs(cfg, graph, state, devices, s_tilde, omega, zeta=None):
    """Controller derivatives and the resulting device input.

    s_tilde is the per-unit prosumption vector, omega the per-bus
    frequency. zeta (bus prosumption totals) is required for the
    bus-level primal_dual scheme only.
    """
    omega = np.asarray(omega, dtype=float)
    n_units = devices.n_units
    if cfg.kind == INTEGRAL:
        _expect(state.p_c, n_units, "p_c")
        pc_dot = -(cfg.integral_gain / devices.cost_q) * omega[devices.bus]
        return SchemeRhs(np.zeros(0), pc_dot, state.p_c, np.zeros(n_units))
    H = graph.incidence
    if cfg.kind == PRIMAL_DUAL:
        if zeta is None:
            raise ConfigurationError("primal_dual scheme requires zeta")
        _expect(state.p_c, graph.node_count, "p_c")
        _expect(state.psi, graph.edge_count, "psi")
        psi_dot = (H.T @ state.p_c) / cfg.gamma_psi
        pc_dot = (np.asarray(zeta, dtype=float) - H @ state.psi) / cfg.gamma
        return SchemeRhs(psi_dot, pc_dot, state.p_c[devices.bus], np.zeros(n_units))
    # unit-level consensus schemes share one code path; extended_primal_dual
    # is the xi = 0, n_f = 0 special case of privacy_preserving
    if graph.node_count != n_units:
        raise ConfigurationError("unit-level scheme needs a communication node per unit")
    _expect(state.p_c, n_units, "p_c")
    _expect(state.psi, graph.edge_count, "psi")
    _expect(state.xi, n_units, "xi")
    effective = cfg.gamma + state.xi
    if np.any(effective <= 0):
        raise ConfigurationError("gamma + xi must stay strictly positive")
    psi_dot = (H.T @ state.p_c) / cfg.gamma_psi
    pc_dot = (np.asarray(s_tilde, dtype=float) - H @ state.psi + state.n_f_held) / effective
    n_d = -state.xi * pc_dot
    return SchemeRhs(psi_dot, pc_dot, state.p_c, n_d)


def _expect(arr, length, name):
    if arr.shape != (length,):
        raise ConfigurationError(f"{name} has shape {arr.shape}, expected ({length},)")


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
    walk = u[:, 0] * (params.safety * params.beta_hat * dt)
    for r in range(rows):
        # clip's bits for the walk's finite, never -0.0 values, at less cost
        xi = np.minimum(np.maximum(xi + walk[r], 0.0, out=walk[r]), params.xi_max, out=walk[r])
    return walk, u[:, 1]


def privacy_noise(params, u, omega_at_unit):
    """n_f for draws u in [-1, 1): uniform within safety*beta*|omega| at
    each unit's bus. It reads the state, so it is formed step by step."""
    # + 0.0 normalizes -0.0 so degenerate runs match the plain scheme bit-for-bit
    return u * (params.safety * params.beta * np.abs(omega_at_unit)) + 0.0


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
