"""Eavesdropper models and the model-inversion observer attack.

A naive eavesdropper only reads what is on the wire; with the bus-level
scheme that is the prosumption itself. An informed eavesdropper knows the
controller dynamics, including the communication `Graph` and its
incidence H, and reconstructs the prosumption from the power command
trajectories: it integrates the consensus states from the observed
commands and inverts the command dynamics,
s_hat = gamma * pc_dot + H psi_hat. The privacy scheme defeats this
because the true dynamics carry the unknown signal n.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .schemes import PRIMAL_DUAL

FORWARD_DIFF = "forward"
CENTRAL_DIFF = "central"
EXACT_DERIV = "exact"
ORIGIN_WINDOW = 2.0  # s after the disturbance that origin detection looks at


@dataclass
class KnowledgeSet:
    """What the adversary observes.

    observed_channels: "all" or a list of unit indices in [0, n_units)
    whose power command signal is intercepted. The adversary knows the
    dynamics: the true gamma, gamma_psi and communication graph.
    """

    observed_channels: object = "all"

    def observed_mask(self, n_units):
        ch = self.observed_channels
        if isinstance(ch, str) and ch == "all":
            return np.ones(n_units, dtype=bool)
        mask = np.zeros(n_units, dtype=bool)
        for c in ch:
            if isinstance(c, bool) or not isinstance(c, (int, np.integer)) or not 0 <= c < n_units:
                raise ConfigurationError(f"channel {c} is not a unit index in [0, {n_units})")
            mask[c] = True
        return mask


@dataclass
class AttackReport:
    s_hat: np.ndarray  # (T, n_units) estimated prosumption
    rmse_transient: float
    rmse_steady: float
    origin_ranking: list | None = None
    warnings: list = field(default_factory=list)

    def to_dict(self):
        return {
            "target_units": list(range(self.s_hat.shape[1])),
            "rmse_transient": self.rmse_transient,
            "rmse_steady": self.rmse_steady,
            "origin_ranking": self.origin_ranking,
            "warnings": list(self.warnings),
        }


def naive_readout(traj):
    """Prosumption values visible to an eavesdropper without model knowledge.

    The bus-level scheme requires the units to transmit their prosumption
    toward the bus controller, so the full per-unit profile leaks. The
    unit-level schemes only put power commands on the wire.
    """
    if traj.scheme_kind == PRIMAL_DUAL:
        return traj.s_tilde
    return None


def observer_attack(traj, comm, cfg, knowledge, deriv=CENTRAL_DIFF, disturbance_time=None):
    """Reconstruct every unit's prosumption from power command trajectories.

    deriv selects the command-derivative estimate: finite differences on
    the recorded samples, or the trajectory's stored derivatives for the
    idealized adversary. In the idealized case the consensus states are
    taken as exactly integrated (the stored ones), so every channel must be
    observed; otherwise they are trapezoid-integrated from the first
    recorded consensus sample (the trace starts at a known steady state),
    and unobserved channels are zero-filled. A trace without consensus
    states starts the integration at zero, so the estimate carries a
    constant bias. The RMSE is over all samples. A disturbance_time adds
    the origin_detection ranking over the ORIGIN_WINDOW seconds after it,
    or as much of them as the trace holds; with fewer than three samples
    after it the ranking is None and a warning says so. Every check runs
    first; it refuses a primal_dual trajectory, with one command per bus, and
    one whose command width is not the graph's node count.
    """
    times = traj.times
    dt = traj.dt
    p_c = traj.p_c
    n_units = p_c.shape[1]
    if traj.scheme_kind == PRIMAL_DUAL:
        raise ConfigurationError("trajectory columns do not match the attack: a primal_dual "
                                 "trace has one pc column per bus, the attack needs one per unit")
    if n_units != comm.node_count:
        raise ConfigurationError(f"trajectory columns do not match the attack: {n_units} pc "
                                 f"columns, the graph has {comm.node_count} nodes")
    if deriv not in (FORWARD_DIFF, CENTRAL_DIFF, EXACT_DERIV):
        raise ConfigurationError(f"unknown derivative estimator {deriv!r}")
    if deriv == EXACT_DERIV and traj.pc_dot.shape[1] != n_units:
        raise ConfigurationError("trajectory carries no stored derivatives")
    if len(times) < 2:
        raise ConfigurationError("trajectory has fewer than two samples; the attack needs "
                                 "dt and one command difference")
    if traj.s_tilde.shape[1] == 0:
        raise ConfigurationError("trajectory carries no prosumption s_tilde; a trace file "
                                 "holds it only under primal_dual, read it with its scenario")
    H = comm.incidence

    warnings_out = []
    mask = knowledge.observed_mask(n_units)
    pc_obs = p_c
    if not mask.all():
        if deriv == EXACT_DERIV:
            raise ConfigurationError("the exact-derivative attack needs every channel observed")
        pc_obs = np.where(mask[None, :], p_c, 0.0)
        warnings_out.append(
            "partial knowledge: unobserved channels "
            f"{np.flatnonzero(~mask).tolist()} zero-filled"
        )
    s_hat = _reconstruct(traj, pc_obs, H, cfg, deriv)

    err = s_hat - traj.s_tilde
    rmse_transient = float(np.sqrt(err.ravel() @ err.ravel() / err.size))
    tail = times >= times[-1] - max(dt, 0.05 * (times[-1] - times[0]))
    rmse_steady = float(np.sqrt(np.mean(err[tail].mean(axis=0) ** 2)))

    ranking = None
    if disturbance_time is not None:
        if np.count_nonzero(times > disturbance_time) < 3:
            warnings_out.append("origin detection skipped: fewer than 3 samples follow "
                                f"the disturbance at t={disturbance_time:g} s")
        else:
            window = min(ORIGIN_WINDOW, times[-1] - disturbance_time)
            ranking, _ = origin_detection(traj, disturbance_time, window)
    return AttackReport(s_hat=s_hat, rmse_transient=rmse_transient, rmse_steady=rmse_steady,
                        origin_ranking=ranking, warnings=warnings_out)


def _reconstruct(traj, pc_obs, H, cfg, deriv):
    """s_hat = gamma * pc_dot + H psi_hat for every unit, holding at most two
    (samples x units) arrays besides the trajectory and pc_obs."""
    if deriv == EXACT_DERIV:
        s_hat = traj.psi @ H.T
        s_hat += cfg.gamma * traj.pc_dot
        return s_hat
    psi0 = traj.psi[0] if traj.psi.shape[1] == H.shape[1] else None
    s_hat = _integrate_psi(pc_obs, H, cfg.gamma_psi, traj.dt, psi0) @ H.T
    pc_dot = _finite_difference(pc_obs, traj.dt, deriv)
    pc_dot *= cfg.gamma
    s_hat += pc_dot
    return s_hat


def _finite_difference(signal, dt, kind):
    out = np.empty_like(signal)
    if kind == FORWARD_DIFF:
        np.subtract(signal[1:], signal[:-1], out=out[:-1])
        out[:-1] /= dt
        out[-1] = out[-2]
    else:
        np.subtract(signal[2:], signal[:-2], out=out[1:-1])
        out[1:-1] /= 2.0 * dt
        out[0] = (signal[1] - signal[0]) / dt
        out[-1] = (signal[-1] - signal[-2]) / dt
    return out


def _integrate_psi(p_c, H, gamma_psi, dt, psi0=None):
    """Trapezoid integration of the consensus dynamics from observed commands,
    in place in the returned array."""
    rhs = p_c @ H
    rhs /= gamma_psi
    psi = np.empty_like(rhs)
    psi[0] = np.zeros(H.shape[1]) if psi0 is None else np.asarray(psi0, dtype=float)
    np.add(rhs[1:], rhs[:-1], out=psi[1:])
    psi[1:] *= 0.5 * dt
    np.cumsum(psi[1:], axis=0, out=psi[1:])
    psi[1:] += psi[0]
    return psi


def origin_detection(traj, disturbance_time, window=ORIGIN_WINDOW):
    """Rank units by power command activity right after a disturbance.

    Activity is the summed |command increment| over a short slice at the
    start of the window (1/40 of it, at least three samples). The disturbed
    unit's command derivative jumps with the load step while the others
    only move through the continuous consensus states, so the early slice
    separates them; later the consensus motion washes the contrast out.
    The truly disturbed unit ranks first unless noise masks it.
    """
    times = traj.times
    if disturbance_time < times[0] or disturbance_time > times[-1]:
        raise ConfigurationError("disturbance_time outside the trajectory")
    if disturbance_time + window > times[-1] + 1e-12:
        raise ConfigurationError("window exceeds the trajectory")
    dt = traj.dt
    early = max(3.0 * dt, 0.025 * window)
    sel = (times >= disturbance_time) & (times <= disturbance_time + early)
    pc = traj.p_c[sel]
    energy = np.abs(np.diff(pc, axis=0)).sum(axis=0)
    ranking = np.argsort(-energy, kind="stable").tolist()
    return ranking, energy
