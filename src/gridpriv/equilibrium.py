"""Optimal dispatch, closed-loop equilibria and Lyapunov evaluation.

The dispatch problem minimizes the total quadratic prosumption cost
subject to generation-demand balance. Its KKT conditions have a closed
form: all marginal costs equal |lambda| at the optimum. The full
closed-loop equilibrium extends the dispatch point with angles, internal
generator states and consensus states.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .devices import bus_injection, prosumption
from .errors import ConfigurationError, InfeasibilityError
from .network import dc_power_flow
from .schemes import PRIVACY_PRESERVING, UNIT_CONSENSUS_KINDS

RESIDUAL_TOL = 1e-9  # power balance and consensus residual of an equilibrium


@dataclass
class EquilibriumSolution:
    """Dispatch optimum plus (optionally) the network-dependent fields."""

    lam: float  # balance-constraint multiplier
    p_M_star: np.ndarray  # per generator
    d_c_star: np.ndarray  # per load
    total_cost: float
    p_c_star: np.ndarray | None = None  # per unit (per controller at rest), common value -lam
    x_star: np.ndarray | None = None  # per generator
    eta_star: np.ndarray | None = None  # per line
    psi_star: np.ndarray | None = None  # per communication edge
    s_tilde_star: np.ndarray | None = None  # per unit


def solve_kkt(devices, p_load=None):
    """Closed-form solution of the dispatch problem.

    Stationarity gives q*p_M = -lambda for generators and q*d_c = lambda
    for loads; the balance constraint then fixes
    lambda = -(sum p_load) / (sum 1/q).
    """
    p_load = devices.p_load if p_load is None else np.asarray(p_load, dtype=float)
    inv_q = 1.0 / devices.cost_q
    lam = -p_load.sum() / inv_q.sum()
    p_M_star = -lam * inv_q[devices.gen_index]
    d_c_star = lam * inv_q[devices.load_index]
    total_cost = 0.5 * (
        devices.cost_q[devices.gen_index] @ p_M_star**2
        + devices.cost_q[devices.load_index] @ d_c_star**2
    )
    return EquilibriumSolution(lam=float(lam), p_M_star=p_M_star, d_c_star=d_c_star,
                               total_cost=float(total_cost))


def build_equilibrium(model, devices, comm, kkt, p_load=None):
    """Complete a dispatch optimum into a closed-loop equilibrium.

    The power commands synchronize at -lambda, frequency deviations vanish,
    angles follow from a DC power flow of the optimal injections and the
    consensus states solve the incidence system for the equilibrium
    prosumption (minimum-norm choice on cyclic graphs).
    """
    p_load = devices.p_load if p_load is None else np.asarray(p_load, dtype=float)
    gains_lhs = devices.cost_q * (devices.droop_m + devices.damping_h)
    if not np.allclose(gains_lhs, 1.0, atol=1e-9):
        warnings.warn(
            "device gains do not satisfy the optimality conditions; the closed-loop "
            "equilibrium will differ from the dispatch optimum",
            stacklevel=2,
        )
    n_units = devices.n_units
    p_c_star = np.full(n_units, -kkt.lam)
    x_star = devices.droop_m[devices.gen_index] * p_c_star[devices.gen_index]
    s_tilde_star = prosumption(devices, kkt.p_M_star, kkt.d_c_star, p_load)
    total = s_tilde_star.sum()
    if abs(total) > RESIDUAL_TOL * (1.0 + np.abs(s_tilde_star).sum()):
        raise InfeasibilityError(f"equilibrium prosumption does not balance (sum {total:.3e})")
    _, eta_star = dc_power_flow(model, bus_injection(devices, kkt.p_M_star, kkt.d_c_star, p_load))
    if comm is not None:
        if comm.node_count != n_units:
            raise ConfigurationError("communication graph must have one node per unit")
        psi_star = consensus_flows(comm, s_tilde_star)
    else:
        psi_star = None
    return EquilibriumSolution(
        lam=kkt.lam, p_M_star=kkt.p_M_star, d_c_star=kkt.d_c_star,
        total_cost=kkt.total_cost, p_c_star=p_c_star, x_star=x_star,
        eta_star=eta_star, psi_star=psi_star, s_tilde_star=s_tilde_star,
    )


def consensus_flows(graph, s):
    """Minimum-norm consensus states psi = Hᵀz with H psi = s, for a zero-sum s;
    z are the unit-weight Laplacian potentials of s. The residual is checked."""
    psi = graph.edge_diff(graph.potentials(1.0, s))
    residual = np.abs(graph.node_sum(psi) - s).max()
    if residual > RESIDUAL_TOL:
        raise InfeasibilityError(f"consensus equilibrium residual {residual:.3e}")
    return psi


def lyapunov_value(model, devices, comm, cfg, eq, eta, omega, x, p_c, psi, xi=None):
    """Energy-like certificate value at a state, relative to an equilibrium.

    Returns (total, components). Defined for the unit-level consensus
    schemes only; the privacy scheme uses the xi-augmented command term.
    The state arguments may carry a leading sample axis; total and the
    components are then arrays over the samples, and numpy scalars for a
    single state. comm is not read; it stays in the signature because the
    benchmark harness passes the arguments by position.
    """
    if cfg.kind not in UNIT_CONSENSUS_KINDS:
        raise ConfigurationError(f"no Lyapunov certificate for scheme kind {cfg.kind!r}")
    if eq.p_c_star is None or eq.eta_star is None or eq.psi_star is None:
        raise ConfigurationError("equilibrium is incomplete")
    d_omega = np.asarray(omega, dtype=float)  # omega* = 0
    d_eta = np.asarray(eta, dtype=float) - eq.eta_star
    d_pc = np.asarray(p_c, dtype=float) - eq.p_c_star
    d_psi = np.asarray(psi, dtype=float) - eq.psi_star
    d_x = np.asarray(x, dtype=float) - eq.x_star
    gi = devices.gen_index
    # einsum, not a BLAS matvec: a sample's value must not depend on the batch
    v_f = 0.5 * np.einsum("...i,i->...", d_omega**2, model.inertia)
    v_p = 0.5 * np.einsum("...i,i->...", d_eta**2, model.susceptance)
    weight = cfg.gamma
    if cfg.kind == PRIVACY_PRESERVING:
        if xi is None:
            raise ConfigurationError("privacy scheme Lyapunov value requires xi")
        weight = cfg.gamma + np.asarray(xi, dtype=float)
    v_c = 0.5 * np.sum(weight * d_pc**2, axis=-1)
    v_psi = 0.5 * np.einsum("...i,i->...", d_psi**2, cfg.gamma_psi)
    v_m = np.einsum("...i,i->...", d_x**2, devices.tau[gi] / (2.0 * devices.droop_m[gi]))
    total = v_f + v_p + v_c + v_psi + v_m
    components = {"V_F": v_f, "V_P": v_p, "V_C": v_c, "V_psi": v_psi, "V_M": v_m}
    return total, components
