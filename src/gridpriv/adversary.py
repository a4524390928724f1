"""Eavesdropper models and the model-inversion observer attack.

A naive eavesdropper only reads what is on the wire; with the bus-level
scheme that is the prosumption itself. An informed eavesdropper knows the
controller dynamics, including the communication `Graph` (its edges, so
the incidence H), and reconstructs the prosumption from the power command
trajectories: it integrates the consensus states from the observed
commands and inverts the command dynamics,
s_hat = gamma * pc_dot + H psi_hat. The privacy scheme defeats this
because the true dynamics carry the unknown signal n.

The observer walks the trace a block of about BLOCK_CELLS cells at a time
on the graph's edge arrays (`Graph.edge_diff`, `Graph.node_sum`), so it
holds one (samples x units) array, the s_hat it returns, and never forms
the dense H. It calls no BLAS routine, so its report does not depend on
the BLAS thread count.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .schemes import PRIMAL_DUAL

FORWARD_DIFF = "forward"
CENTRAL_DIFF = "central"
EXACT_DERIV = "exact"
ORIGIN_WINDOW = 2.0  # s after the disturbance that origin detection looks at
BLOCK_CELLS = 1 << 14  # (samples x units) cells the observer works on at a time


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

    warnings_out = []
    mask = knowledge.observed_mask(n_units)
    if not mask.all():
        if deriv == EXACT_DERIV:
            raise ConfigurationError("the exact-derivative attack needs every channel observed")
        warnings_out.append(
            "partial knowledge: unobserved channels "
            f"{np.flatnonzero(~mask).tolist()} zero-filled"
        )
    s_hat = _reconstruct(traj, mask, comm, cfg, deriv)

    tail = times >= times[-1] - max(dt, 0.05 * (times[-1] - times[0]))
    square_sum, tail_sum = 0.0, np.zeros(n_units)
    for rows in _blocks(*s_hat.shape):
        err = s_hat[rows] - traj.s_tilde[rows]
        square_sum += np.einsum("ij,ij->", err, err)  # no BLAS: the same bits at any thread count
        tail_sum += err[tail[rows]].sum(axis=0)
    rmse_transient = float(np.sqrt(square_sum / s_hat.size))
    rmse_steady = float(np.sqrt(np.mean((tail_sum / np.count_nonzero(tail)) ** 2)))

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


def _blocks(samples, width):
    """Row slices of about BLOCK_CELLS cells of a (samples x width) array, in order."""
    step = max(1, BLOCK_CELLS // width)
    return [slice(a, min(a + step, samples)) for a in range(0, samples, step)]


def _reconstruct(traj, mask, comm, cfg, deriv):
    """s_hat = gamma * pc_dot + H psi_hat for every unit, with the unobserved
    channels (mask False) zero-filled. s_hat starts as gamma * pc_dot, and H
    psi_hat is added into it a block of samples at a time, so besides s_hat
    only one block's temporaries are held."""
    if deriv == EXACT_DERIV:
        s_hat = cfg.gamma * traj.pc_dot
        psi_blocks = ((rows, traj.psi[rows]) for rows in _blocks(*s_hat.shape))
    else:
        s_hat = _finite_difference(traj.p_c, traj.dt, deriv)
        s_hat *= cfg.gamma
        s_hat[:, ~mask] = 0.0
        psi0 = traj.psi[0] if traj.psi.shape[1] == comm.edge_count else np.zeros(comm.edge_count)
        psi_blocks = _integrate_psi(traj.p_c, mask, comm, cfg.gamma_psi, traj.dt, psi0)
    for rows, psi_rows in psi_blocks:
        s_hat[rows] += comm.node_sum(psi_rows)
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


def _integrate_psi(p_c, mask, graph, gamma_psi, dt, psi0):
    """Trapezoid integration of the consensus dynamics Hᵀ p_c / gamma_psi from
    psi0, with the unobserved channels of p_c (mask False) zero-filled.

    Yields (rows, psi_hat[rows]) a block at a time. The running sum of the
    trapezoids and the last rate carry over from one block to the next, so
    psi_hat[k] = psi0 + cumsum(increments)[k] as the whole-array integral.
    """
    carry = np.zeros(graph.edge_count)  # sum of the increments so far
    last_rate, partial = None, not mask.all()
    for rows in _blocks(*p_c.shape):
        rate = graph.edge_diff(np.where(mask, p_c[rows], 0.0) if partial else p_c[rows])
        rate /= gamma_psi
        psi = np.empty_like(rate)
        np.add(rate[1:], rate[:-1], out=psi[1:])
        if last_rate is None:
            psi[0] = 0.0  # psi_hat[0] is psi0 itself
        else:
            np.add(rate[0], last_rate, out=psi[0])
        last_rate = rate[-1].copy()
        del rate  # free the block's rates before H psi_hat is formed
        psi *= 0.5 * dt
        psi[0] += carry
        np.cumsum(psi, axis=0, out=psi)
        carry = psi[-1].copy()
        psi += psi0
        yield rows, psi


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
