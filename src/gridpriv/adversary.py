"""Eavesdropper models and the model-inversion observer attack.

A naive eavesdropper only reads what is on the wire; with the bus-level
scheme that is the prosumption itself. An informed eavesdropper knows the
controller dynamics, including the communication `Graph` (its edges, so
the incidence H), and reconstructs the prosumption from the power command
trajectories: it integrates the consensus states from the observed
commands and inverts the command dynamics,
s_hat = gamma * pc_dot + H psi_hat. The privacy scheme defeats this
because the true dynamics carry the unknown signal n.

The observer walks the trace a block of samples at a time (`sim.row_blocks`)
on the graph's edge arrays (`Graph.edge_diff`, `Graph.node_sum`), and
reads the true prosumption, and the command derivatives of the idealized
attack, a block at a time from the trajectory, which derives them
(`Trajectory.s_tilde_at`, `Trajectory.pc_dot_at`). Each block of s_hat is
folded into the RMSEs and dropped, so the observer holds no (samples x
units) array and never forms the dense H; the report derives the whole
s_hat on its first read, from the same walk (`_reconstruct`). It calls no
BLAS routine, so its report does not depend on the BLAS thread count.
"""

from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import ConfigurationError
from .schemes import PRIMAL_DUAL
from .sim import row_blocks

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
    """What an observer attack found. The estimate s_hat is not held: its
    first read derives it from the attack's own (rows, s_hat[rows]) walk,
    which `observer_attack` gives the report, bit for bit, so the report
    holds the attacked trace while it lives."""

    rmse_transient: float
    rmse_steady: float
    origin_ranking: list | None = None
    warnings: list = field(default_factory=list)
    _shape: tuple = field(default=(0, 0), init=False, repr=False)  # (samples, units) of s_hat
    _walk: object = field(default=None, init=False, repr=False, compare=False)

    @cached_property
    def s_hat(self):
        """(samples, units) estimated prosumption, formed on first read."""
        s_hat = np.empty(self._shape)
        for rows, block in self._walk():
            s_hat[rows] = block
        return s_hat

    def to_dict(self):
        return {
            "target_units": list(range(self._shape[1])),
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

    deriv selects the command-derivative estimate: finite differences on the
    recorded samples, or, for the idealized adversary, the run's own, which a
    simulated trajectory derives from its scenario. In the idealized case the
    consensus states are taken as exactly integrated (the stored ones), so
    every channel must be observed; otherwise they are trapezoid-integrated
    from the first recorded consensus sample (the trace starts at a known
    steady state), and unobserved channels are zero-filled. A trace without
    consensus states starts the integration at zero, so the estimate carries a
    constant bias. The RMSE is over all samples. A disturbance_time adds the
    origin_detection ranking over the ORIGIN_WINDOW seconds after it, or as
    much of them as the trace holds; with fewer than three samples after it
    the ranking is None and a warning says so. Every check runs first; it
    refuses a primal_dual trajectory, with one command per bus, one whose
    command width is not the graph's node count, one with consensus states
    whose width is not the graph's edge count, and, for the exact attack, one
    without them.
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
    if 0 < traj.psi.shape[1] != comm.edge_count:
        raise ConfigurationError(f"trajectory columns do not match the attack: {traj.psi.shape[1]}"
                                 f" psi columns, the graph has {comm.edge_count} edges")
    if deriv not in (FORWARD_DIFF, CENTRAL_DIFF, EXACT_DERIV):
        raise ConfigurationError(f"unknown derivative estimator {deriv!r}")
    if deriv == EXACT_DERIV and traj.scenario is None:
        raise ConfigurationError("trajectory carries no stored derivatives; only a simulated "
                                 "one, which holds its scenario, derives them")
    if deriv == EXACT_DERIV and traj.psi.shape[1] != comm.edge_count:
        raise ConfigurationError("the exact-derivative attack needs the recorded consensus "
                                 "states, and this trajectory has none")
    if len(times) < 2:
        raise ConfigurationError("trajectory has fewer than two samples; the attack needs "
                                 "dt and one command difference")
    if traj.scenario is None and traj.s_tilde.shape[1] == 0:
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
    walk = partial(_reconstruct, traj, mask, comm, cfg, deriv)

    tail = times >= times[-1] - max(dt, 0.05 * (times[-1] - times[0]))
    square_sum, tail_sum = 0.0, np.zeros(n_units)
    for rows, s_hat in walk():
        err = np.subtract(s_hat, traj.s_tilde_at(rows), out=s_hat)
        square_sum += np.einsum("ij,ij->", err, err)  # no BLAS: the same bits at any thread count
        tail_sum += err[tail[rows]].sum(axis=0)
    rmse_transient = float(np.sqrt(square_sum / (len(times) * n_units)))
    rmse_steady = float(np.sqrt(np.mean((tail_sum / np.count_nonzero(tail)) ** 2)))

    ranking = None
    if disturbance_time is not None:
        if np.count_nonzero(times > disturbance_time) < 3:
            warnings_out.append("origin detection skipped: fewer than 3 samples follow "
                                f"the disturbance at t={disturbance_time:g} s")
        else:
            window = min(ORIGIN_WINDOW, times[-1] - disturbance_time)
            ranking, _ = origin_detection(traj, disturbance_time, window)
    report = AttackReport(rmse_transient=rmse_transient, rmse_steady=rmse_steady,
                          origin_ranking=ranking, warnings=warnings_out)
    report._shape, report._walk = (len(times), n_units), walk
    return report


def _reconstruct(traj, mask, comm, cfg, deriv):
    """Yields (rows, s_hat[rows]), a fresh `row_blocks` block at a time, of
    s_hat = gamma * pc_dot + H psi_hat for every unit, with the unobserved
    channels (mask False) zero-filled: pc_dot the trajectory's own
    (`pc_dot_at`) and psi_hat the recorded psi for the exact attack, else
    pc_dot a finite difference of the commands (`_difference`) and psi_hat
    integrated from them (`_integrate_psi`)."""
    if deriv == EXACT_DERIV:
        for rows in row_blocks(*traj.p_c.shape):
            s_hat = traj.pc_dot_at(rows)
            s_hat *= cfg.gamma
            s_hat += comm.node_sum(traj.psi[rows])
            yield rows, s_hat
        return
    psi0 = traj.psi[0] if traj.psi.shape[1] else np.zeros(comm.edge_count)
    for rows, psi in _integrate_psi(traj.p_c, mask, comm, cfg.gamma_psi, traj.dt, psi0):
        s_hat = _difference(traj.p_c, rows, traj.dt, deriv)
        s_hat *= cfg.gamma
        s_hat[:, ~mask] = 0.0
        s_hat += comm.node_sum(psi)
        del psi  # the caller works on s_hat's block alone
        yield rows, s_hat


def _difference(signal, rows, dt, kind):
    """The finite-difference derivative of signal at the rows of a slice,
    formed in the block it returns from the rows and a one-row halo beside
    them. Forward: (signal[i + 1] - signal[i]) / dt, the last row taking its
    predecessor's. Central: (signal[i + 1] - signal[i - 1]) / (2 dt), one-sided
    over dt at the first and last rows."""
    lo, hi, last = rows.start, rows.stop, len(signal) - 1
    out = np.empty((hi - lo, signal.shape[1]))
    if kind == FORWARD_DIFF:
        a, b = lo, min(hi, last)  # the rows with a next sample
        np.subtract(signal[a + 1:b + 1], signal[a:b], out=out[:b - a])
        if hi > last:
            np.subtract(signal[last], signal[last - 1], out=out[-1])
        out /= dt
        return out
    a, b = max(lo, 1), min(hi, last)  # the rows with a sample on either side
    np.subtract(signal[a + 1:b + 1], signal[a - 1:b - 1], out=out[a - lo:b - lo])
    out[a - lo:b - lo] /= 2.0 * dt
    if lo == 0:
        out[0] = (signal[1] - signal[0]) / dt
    if hi > last:
        out[-1] = (signal[last] - signal[last - 1]) / dt
    return out


def _integrate_psi(p_c, mask, graph, gamma_psi, dt, psi0):
    """Trapezoid integration of the consensus dynamics Hᵀ p_c / gamma_psi from
    psi0, with the unobserved channels of p_c (mask False) zero-filled.

    Yields (rows, psi_hat[rows]) a block at a time, and holds no block of its
    own while the caller works on one. The running sum of the trapezoids and
    the last rate carry over from one block to the next, so psi_hat[k] = psi0
    + cumsum(increments)[k] as the whole-array integral.
    """
    carry = np.zeros(graph.edge_count)  # sum of the increments so far
    last_rate, masked = None, not mask.all()

    def block(rows):
        nonlocal carry, last_rate
        rate = graph.edge_diff(np.where(mask, p_c[rows], 0.0) if masked else p_c[rows])
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
        return psi

    for rows in row_blocks(*p_c.shape):
        yield rows, block(rows)


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
