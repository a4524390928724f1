"""Closed-loop simulation: plant + devices + controller, fixed-step RK4.

The stacked state is [eta, omega, x, p_c, psi]. The closed loop is one
affine operator on it, dy = A y + b, with b = B p_load plus n_f on the
command rows. Those rows carry 1/tau0, the base controller time constants
(gamma, or q / K under integral): `ClosedLoop(scenario)` divides them into A
once per run, and into B p_load once per load step. The privacy scheme's
time constants gamma + xi are then one diagonal on the command rows, rho =
tau0 / (tau0 + xi), exactly 1.0 where xi = 0. The constructor assembles A
and B from the index data of the units and the edge endpoints of two
`Graph`s: the network's lines and the consensus graph (the communication
graph, or the lines again for primal_dual). `swing_rhs`, `device_outputs`,
`device_rhs` and `scheme_rhs` are its per-stage reference. `simulate` walks
the (rows, load) slices `Scenario.load_segments` places on the step grid,
forming B p_load once a slice and holding it over its steps. RK4 is taken in
its Taylor form for an input held over the step (`ClosedLoop.step`): four
sparse products a step, no stage states. Only the privacy scheme modulates
the input. Its signals are inputs, not integrated states, held over a step
and drawn DRAW_BLOCK_ROWS steps at a time from the seeded sequence that
`privacy_draws` owns: the xi walk for a whole block and rho beside it, then
n_f step by step from omega, as n_f / tau0 onto the command rows of a copy
of B p_load. A seed gives the same draws as drawing one step at a time. The
run records the state alone and solves only the rest state it starts from.
The `Trajectory` holds the scenario it ran and derives the rest: s_tilde and
pc_dot for a row slice (`s_tilde_at`, `pc_dot_at`; pc_dot is bit for bit the
run's k1); xi and n_f on first read, replaying the run's draws; and the
Lyapunov column and its reference on first read, a block of about
BLOCK_CELLS cells at a time (`row_blocks`), as are the trace file's cells
and the observer's work arrays.

A trace file holds what a run integrates, draws or sends: every state
block but eta, the Lyapunov column, xi and n_f when they hold a non-zero
value, and s_tilde only under primal_dual, where it is on the wire; its
columns alone give the scheme kind (`_trace_kind`). `Trajectory.from_csv`
given the scenario rebuilds s_tilde as a simulated trajectory derives it,
bit for bit.
`write_csv`, the writer of every CSV file, gives each cell the bytes of
'%.17g'; it computes them for a float64 block at a time (`_cells.g17_rows`),
which hands ties and cells out of its range to '%'. `from_csv` reads a block
of rows at a time back the same way (`_cells.read_rows`), bit for bit as
np.loadtxt, which reads a body of any other layout from the same handle.
"""

import os
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from ._cells import g17_rows, read_rows
from .equilibrium import build_equilibrium, consensus_flows, lyapunov_value, solve_kkt
from .devices import unit_outputs
from .errors import ConfigurationError, DivergenceError, ScenarioError
from .network import Graph
from .schemes import (
    EXTENDED_PRIMAL_DUAL,
    INTEGRAL,
    PRIMAL_DUAL,
    PRIVACY_PRESERVING,
    UNIT_CONSENSUS_KINDS,
    design_condition_report,
    privacy_draws,
    privacy_noise,
)

SETTLE_THRESHOLD = 2.0 * np.pi * 0.01  # 0.01 Hz in rad/s
BLOCKS = ("eta", "omega", "x", "p_c", "psi")  # order of the stacked state
BLOCK_CELLS = 1 << 14  # cells of a (samples x width) array worked on at a time (`row_blocks`)
DRAW_BLOCK_ROWS = 64  # steps of privacy draws per rng call; bounds the block arrays
# (column prefix, Trajectory field) of each trace block, in column order after t
TRACE_BLOCKS = (("omega", "omega"), ("pc", "p_c"), ("psi", "psi"), ("x", "x"),
                ("s_tilde", "s_tilde"), ("xi", "xi"), ("nf", "n_f"))


@contextmanager
def atomic_open(path):
    """Text file written as path.tmp and renamed onto path once complete; a
    write that raises removes the temporary file and leaves path as it was."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def row_blocks(samples, width):
    """Row slices of about BLOCK_CELLS cells of a (samples x width) array,
    covering [0, samples) in order: every array derived from or written out
    of a trajectory is held a block at a time."""
    step = max(1, BLOCK_CELLS // width)
    return [slice(a, min(a + step, samples)) for a in range(0, samples, step)]


def write_csv(path, columns):
    """CSV of (name, block) float64 column blocks, one row per sample. A 1-D block
    is the column `name`, a 2-D block the columns `name_0`, `name_1`, ... A block
    may also be a function that returns a row slice's rows of one, so that it is
    formed only a block at a time; the first block is an array, whose length is
    the row count. LF line ends, %.17g cells (exact float64 round trip),
    formatted by `g17_rows` a `row_blocks` block at a time. A block of another
    dtype raises TypeError before the file is opened."""
    readers = [b if callable(b) else b.__getitem__ for _, b in columns]
    empty = [read(slice(0, 0)) for read in readers]
    header = [name if e.ndim == 1 else f"{name}_{k}" for (name, _), e in zip(columns, empty)
              for k in range(1 if e.ndim == 1 else e.shape[1])]
    if any(e.dtype != np.float64 for e in empty):
        raise TypeError("write_csv takes float64 blocks")
    with atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        for rows in row_blocks(len(columns[0][1]), len(header)):
            fh.write(g17_rows(np.column_stack([read(rows) for read in readers])))


@dataclass(frozen=True)
class Disturbance:
    time: float
    unit: int
    delta: float  # added to the unit's uncontrollable load, pu


@dataclass
class Scenario:
    model: object
    devices: object
    comm: Graph | None
    scheme: object
    disturbances: tuple = ()
    t_end: float = 60.0
    dt: float = 0.01
    seed: int = 0
    record_stride: int = 1

    def __post_init__(self):
        """Check the run settings; errors name the scenario file's JSON path."""
        if not 0 < self.dt < np.inf:
            raise ScenarioError("$.sim.dt", "must be positive and finite")
        if self.record_stride < 1:
            raise ScenarioError("$.sim.record_stride", "must be >= 1")
        if not self.t_end / self.dt < np.iinfo(np.intp).max:  # NaN and inf fail too
            raise ScenarioError("$.sim.t_end",
                                "must be finite, with a step count an array can index")
        spacing = self.dt * self.record_stride  # t_end: a positive multiple, rtol 1e-9
        n = np.round(self.t_end / spacing)
        if not (n >= 1 and abs(n * spacing - self.t_end) <= 1e-9 * self.t_end):
            raise ScenarioError("$.sim.t_end", f"not a multiple of dt*record_stride={spacing:g}")
        last = round(self.t_end / self.dt) * self.dt  # the last step's time
        for k, d in enumerate(self.disturbances):
            if not 0.0 <= d.time <= self.t_end:
                raise ScenarioError(f"$.disturbances[{k}].t",
                                    f"must lie in [0, t_end={self.t_end:g}]")
            if last + 1e-12 < d.time:  # `load_segments` would place it after the last step
                raise ScenarioError(f"$.disturbances[{k}].t",
                                    f"{d.time!r} lies after the last step, at t={last!r}")
            if not 0 <= d.unit < self.devices.n_units:
                raise ScenarioError(f"$.disturbances[{k}].unit",
                                    f"must lie in [0, {self.devices.n_units})")
            if not np.isfinite(d.delta):
                raise ScenarioError(f"$.disturbances[{k}].delta", "must be finite")
        # the order they act in; stable, so same-time steps keep file order
        self.disturbances = tuple(sorted(self.disturbances, key=lambda d: d.time))

    def load_segments(self, times):
        """[(rows, uncontrollable load per unit over those rows)]: slices that
        tile [0, len(times)) in order. A disturbance acts from the first j with
        times[j] + 1e-12 >= its time; disturbances at one index share a slice,
        and one after the last time starts the last slice, an empty one."""
        first = np.searchsorted(np.asarray(times) + 1e-12, [d.time for d in self.disturbances])
        p_load = self.devices.p_load.copy()
        loads = {0: p_load.copy()}  # by first index
        for d, j in zip(self.disturbances, first.tolist()):
            p_load[d.unit] += d.delta
            loads[j] = p_load.copy()
        bounds = [*loads, len(times)]
        return [(slice(a, b), load) for a, b, load in zip(bounds, bounds[1:], loads.values())]

    def step_grid(self, stride):
        """The step indices k = 0, stride, 2*stride, ... up to round(t_end/dt).
        A grid too large to allocate is refused at $.sim.t_end, naming its size."""
        last = int(round(self.t_end / self.dt))
        try:
            return np.arange(0, last + 1, stride)
        except MemoryError as exc:
            raise ScenarioError("$.sim.t_end", f"{last + 1} steps of dt={self.dt:g}: their grid "
                                f"of {8 * (last // stride + 1):.3g} bytes cannot be allocated"
                                ) from exc

    def final_load(self):
        """Uncontrollable load per unit after every disturbance: the last slice's."""
        return self.load_segments(())[-1][1]


@dataclass
class Trajectory:
    """Time-indexed record of all plant, controller and privacy signals.

    The fields `simulate` or `from_csv` returns are views into one buffer,
    which `simulate` fills with the state alone. What the record and the
    scenario a run holds determine is not stored: p_M and d_c
    (`marginal_costs`), s_tilde and pc_dot, for a row slice (`s_tilde_at`,
    `pc_dot_at`) or whole, and, on first read, xi and n_f (replayed from the
    run's seed under privacy, read-only zero views otherwise) and, under a
    unit-level scheme, `lyapunov` and its reference `equilibrium`. A copy
    made by `dataclasses.replace` derives them for its own rows. A trace file
    holds what a run integrates, draws or sends (see `to_csv`); `from_csv`
    reads the scheme kind from its columns and, given the scenario, rebuilds
    the rest but eta and pc_dot. Its s_tilde, xi, n_f and lyapunov columns
    stand in for the derived ones, so `dataclasses.replace` drops them. It
    refuses a header that repeats a name, does not decode or misorders a
    block's prefix_k.
    """

    times: np.ndarray
    omega: np.ndarray  # (T, |N|)
    eta: np.ndarray  # (T, |E|)
    x: np.ndarray  # (T, n_gen)
    p_c: np.ndarray  # (T, n_controllers)
    psi: np.ndarray  # (T, n_comm_edges)
    scheme_kind: str = EXTENDED_PRIMAL_DUAL
    scenario: object = None  # the Scenario `simulate` ran; what is not recorded derives from it
    _s_tilde: np.ndarray | None = field(default=None, init=False, repr=False)  # a file's

    @property
    def s_tilde(self):
        """(T, n_units) prosumption, whole (see `s_tilde_at`)."""
        return self.s_tilde_at(slice(None))

    @property
    def pc_dot(self):
        """(T, n_controllers) command derivatives, whole (see `pc_dot_at`)."""
        return self.pc_dot_at(slice(None))

    def s_tilde_at(self, rows):
        """s_tilde[rows] for a row slice: a trace file's columns, or, given
        the scenario, the prosumption at x, p_c and omega under the load
        `Scenario.load_segments` places at the rows' times; zero-width with
        neither."""
        if self._s_tilde is not None:
            return self._s_tilde[rows]
        if self.scenario is None:
            return np.zeros((len(self.times[rows]), 0))
        x, p_c, omega = self.x[rows], self.p_c[rows], self.omega[rows]
        out = np.empty((len(x), self.scenario.devices.n_units))
        for seg, load in self.scenario.load_segments(self.times[rows]):
            for c in row_blocks(seg.stop - seg.start, out.shape[1]):
                out[seg][c] = _unit_outputs(self.scheme_kind, self.scenario.devices, x[seg][c],
                                            p_c[seg][c], omega[seg][c], load)[2]
        return out

    def pc_dot_at(self, rows):
        """pc_dot[rows] for a row slice: given the scenario, the command rows
        of dy at the recorded state, load, xi and n_f
        (`ClosedLoop.command_rates`), bit for bit the run's; zero-width
        without it, as for a trace file."""
        if self.scenario is None:
            return np.zeros((len(self.times[rows]), 0))
        return self._loop.command_rates(self, rows)

    @cached_property
    def xi(self):
        """(T, n_units) privacy gain, derived with n_f (see `_privacy_signals`)."""
        return self._privacy_signals[0]

    @cached_property
    def n_f(self):
        """(T, n_units) privacy noise, derived with xi (see `_privacy_signals`)."""
        return self._privacy_signals[1]

    @cached_property
    def _privacy_signals(self):
        """(xi, n_f). Under privacy, given the scenario, the run's draws
        replayed from its seed (`privacy_draws`), a block at a time: each
        sample takes those of its step round(t / dt), and forms n_f from its
        recorded omega as the run did. Read-only zero views for the other
        schemes; zero-width without the scenario."""
        sc = self.scenario
        shape = (len(self.times), 0 if sc is None else sc.devices.n_units)
        if sc is None or self.scheme_kind != PRIVACY_PRESERVING:
            zeros = np.broadcast_to(0.0, shape)
            return zeros, zeros
        priv, bus = sc.scheme.privacy, sc.devices.bus
        steps = np.rint(self.times / sc.dt).astype(np.intp)
        order = np.argsort(steps, kind="stable")  # the samples by step
        n_rows = int(steps[order[-1]]) + 1 if len(steps) else 0
        starts = range(0, n_rows, DRAW_BLOCK_ROWS)
        bounds = np.searchsorted(steps[order], [*starts, n_rows]).tolist()
        xi, n_f = np.empty(shape), np.empty(shape)
        draw_blocks = privacy_draws(priv, shape[1], sc.dt, sc.seed, n_rows, DRAW_BLOCK_ROWS)
        for k, a, b in zip(starts, bounds, bounds[1:]):
            xi_rows, draws = next(draw_blocks)
            samples = order[a:b]  # those whose steps the block holds, at its rows
            rows = steps[samples] - k
            xi[samples] = xi_rows[rows]
            for i, r in zip(samples.tolist(), rows.tolist()):
                n_f[i] = privacy_noise(priv, draws[r], self.omega[i, bus])
            del xi_rows, draws  # as in the generator: one block is alive at a time
        return xi, n_f

    @cached_property
    def _loop(self):  # the scenario's ClosedLoop, built once per trajectory
        return ClosedLoop(self.scenario)

    @cached_property
    def equilibrium(self):
        """V's reference for a unit-level run with its scenario: the final load's rest state."""
        if self.scenario is None or self.scheme_kind not in UNIT_CONSENSUS_KINDS:
            return None
        return _rest_state(self.scenario, self._loop, self.scenario.final_load())

    @cached_property
    def lyapunov(self):
        """(T,) Lyapunov value against `equilibrium`, a `row_blocks` block at a time."""
        eq, sc = self.equilibrium, self.scenario
        if eq is None:
            return None
        out = np.empty(len(self.times))
        for c in row_blocks(len(out), self._loop.size):
            blocks = (b[c] for b in (self.eta, self.omega, self.x, self.p_c, self.psi, self.xi))
            out[c] = lyapunov_value(sc.model, sc.devices, sc.comm, sc.scheme, eq, *blocks)[0]
        return out

    @property
    def dt(self):
        return float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0

    def to_csv(self, path):
        """Wide CSV trace, one row per recorded sample (see write_csv): t, omega,
        pc, psi and x; s_tilde only under primal_dual, where it is the wire
        signal; xi and nf each only when it holds a non-zero value; lyapunov
        for the unit-level schemes."""
        written = {"s_tilde": self.scheme_kind == PRIMAL_DUAL,
                   "xi": np.any(self.xi), "n_f": np.any(self.n_f)}
        columns = [("t", self.times)]
        columns += [(prefix, getattr(self, name)) for prefix, name in TRACE_BLOCKS
                    if written.get(name, True)]
        if self.lyapunov is not None:
            columns.append(("lyapunov", self.lyapunov))
        write_csv(path, columns)

    @classmethod
    def from_csv(cls, path, scenario=None):
        """Read a CSV trace; its columns give the scheme kind (`_trace_kind`).

        One handle reads the cells into one array, each field a view of it:
        `_cells.read_rows`, bit for bit as np.loadtxt, or np.loadtxt where it
        refuses the body (another line end or cell layout, ragged rows, no rows).

        Given the scenario that ran it, the omega, x and pc widths are checked
        against the scenario for the trace's kind, s_tilde is rebuilt when the
        file has none and xi and n_f are read-only zero views when it has
        none. xi and n_f are the file's, never replayed from the scenario's
        seed. Without one, blocks the file does not hold, and always eta and
        pc_dot, are zero-width.
        """
        def span(prefix):  # block prefix: prefix_0 ... prefix_{n-1}, side by side in order
            n = sum(c.startswith(f"{prefix}_") and c[len(prefix) + 1:].isdecimal() for c in header)
            j = header.index(f"{prefix}_0") if f"{prefix}_0" in header else 0
            if header[j:j + n] != [f"{prefix}_{k}" for k in range(n)]:
                raise ValueError(f"its {n} {prefix} columns are not {prefix}_0 ... in order")
            return slice(j, j + n)
        with open(path, "rb") as fh:
            try:  # a UnicodeDecodeError is a ValueError too
                header = fh.readline().decode().rstrip("\r\n").split(",")
                spans = {"times": header.index("t"),  # "'t' is not in list" without one
                         **{name: span(prefix) for prefix, name in TRACE_BLOCKS}}
                start = fh.tell()
                data = read_rows(fh, len(header), BLOCK_CELLS)
                if data is None:  # not the writer's layout: np.loadtxt reads it, or names the fault
                    fh.seek(start)  # a row is a line np.loadtxt does not skip as blank or comment
                    if not any(line.partition(b"#")[0].rstrip(b"\r\n") for line in fh):
                        raise ValueError("no samples after the header")
                    fh.seek(start)
                    data = np.loadtxt(fh, delimiter=",", ndmin=2)
            except ValueError as exc:
                raise ConfigurationError(f"malformed trace {path}: {exc}") from exc
        if data.shape[1] != len(header) or len(set(header)) < len(header):
            raise ConfigurationError(f"malformed trace {path}: {data.shape[1]} columns under "
                                     f"{len(header)} names, {len(set(header))} of them distinct")
        s_tilde, xi, n_f = (data[:, spans.pop(name)] for name in ("s_tilde", "xi", "n_f"))
        traj = cls(eta=np.zeros((len(data), 0)),
                   **{name: data[:, cols] for name, cols in spans.items()})
        traj._s_tilde, traj.xi, traj.n_f = s_tilde, xi, n_f  # never replayed
        if "lyapunov" in header:  # in place of the derived column
            traj.lyapunov = data[:, header.index("lyapunov")]
        traj.scheme_kind = _trace_kind(traj)
        if scenario is None:
            return traj
        model, devices = scenario.model, scenario.devices
        want = (model.bus_count, devices.n_generators,
                model.bus_count if traj.scheme_kind == PRIMAL_DUAL else devices.n_units)
        got = (traj.omega.shape[1], traj.x.shape[1], traj.p_c.shape[1])
        if got != want:
            raise ConfigurationError(
                f"{path}: trajectory columns do not match the scenario: {got} omega / x / pc "
                f"columns, expected {want}")
        zeros = np.broadcast_to(0.0, (len(data), devices.n_units))
        for name in ("xi", "n_f"):
            if getattr(traj, name).shape[1] == 0:
                setattr(traj, name, zeros)
        if s_tilde.shape[1] == 0:
            traj._s_tilde = replace(traj, scenario=scenario).s_tilde  # as a run derives it
        return traj


def _trace_kind(traj):
    """The scheme kind a trace's columns show: privacy_preserving if xi or n_f
    holds a non-zero value, else extended_primal_dual if it has a Lyapunov
    column, else primal_dual if it has psi columns, or s_tilde columns and no
    xi columns, else integral. Only primal_dual writes s_tilde; the earlier
    format wrote s_tilde and xi under every scheme, so there a one-bus
    primal_dual trace, which has no psi, shows integral."""
    if np.any(traj.xi) or np.any(traj.n_f):
        return PRIVACY_PRESERVING
    if traj.lyapunov is not None:
        return EXTENDED_PRIMAL_DUAL
    sends_s_tilde = traj.s_tilde.shape[1] and not traj.xi.shape[1]
    return PRIMAL_DUAL if traj.psi.shape[1] or sends_s_tilde else INTEGRAL


class ClosedLoop:
    """The closed loop of a scenario as one affine operator on the stacked state.

    dy = A y + b, with b = B p_load plus n_f on the command rows of the
    unit-level schemes. The command rows of A and b carry 1/tau0, the base
    controller time constants (gamma, or q / K under integral); the privacy
    scheme's gamma + xi is the diagonal rho = tau0 / (tau0 + xi) on them,
    exactly 1.0 where xi = 0. A and B are COO triples, each applied with
    one bincount, assembled from the scenario's index data; row by row they
    are swing_rhs, device_outputs, device_rhs and scheme_rhs, which stay as
    their reference.

    With b and rho held over a step, classic RK4 is its Taylor form
    y + h k1 + (h^2/2) M k1 + (h^3/6) M^2 k1 + (h^4/24) M^3 k1, M = rho A.
    `step` nests it as w1 = h k1, w_{i+1} = (h/(i+1)) M w_i, on copies of
    A's values scaled by dt/2, dt/3 and dt/4: the four sparse products of
    the classic stages, without their stage states or a division.
    """

    def __init__(self, scenario):
        model, devices, cfg = scenario.model, scenario.devices, scenario.scheme
        n_units = devices.n_units
        if cfg.kind in UNIT_CONSENSUS_KINDS:
            graph = scenario.comm
            if graph is None or graph.node_count != n_units:
                raise ConfigurationError("unit-level scheme needs a communication node per unit")
        elif cfg.kind == PRIMAL_DUAL:
            graph = model.graph  # bus-level consensus over the electrical lines
        else:
            graph = None
        n_ctrl = model.bus_count if cfg.kind == PRIMAL_DUAL else n_units
        n_psi = graph.edge_count if graph is not None else 0
        if cfg.kind != INTEGRAL:
            for name, want in (("gamma", n_ctrl), ("gamma_psi", n_psi)):
                got = np.shape(getattr(cfg, name))
                if got not in ((), (want,)):
                    raise ConfigurationError(f"{cfg.kind} scheme: {name} has {got[0]} entries, "
                                             f"expected {want}")
        sizes = [model.line_count, model.bus_count, devices.n_generators, n_ctrl, n_psi]
        offsets = np.cumsum([0] + sizes)
        E, W, X, C, P = offsets[:-1]

        entries, inputs = [], []

        def add(to, row, col, val):
            to.append(np.broadcast_arrays(row, col, np.asarray(val, dtype=float)))

        tail, head = model.graph.tail, model.graph.head
        line = np.arange(model.line_count)
        node = np.arange(model.bus_count)
        unit = np.arange(n_units)
        gi, bus = devices.gen_index, devices.bus
        gen = np.arange(devices.n_generators)
        ctrl = C + (bus if cfg.kind == PRIMAL_DUAL else unit)
        h = devices.damping_h
        inv_m = 1.0 / model.inertia

        # swing: eta_dot = A^T omega, M omega_dot = net - D omega - A (b eta), with
        # net = sum of x_g + h (u - omega) over the bus's units minus its load
        add(entries, E + line, W + tail, 1.0)
        add(entries, E + line, W + head, -1.0)
        add(entries, W + node, W + node, -model.damping * inv_m)
        add(entries, W + tail, E + line, -model.susceptance * inv_m[tail])
        add(entries, W + head, E + line, model.susceptance * inv_m[head])
        add(entries, W + bus[gi], X + gen, inv_m[bus[gi]])
        add(entries, W + bus, ctrl, h * inv_m[bus])
        add(entries, W + bus, W + bus, -h * inv_m[bus])
        add(inputs, W + bus, unit, -inv_m[bus])
        # generator lag: tau x_dot = -x + m (u - omega)
        m_tau = devices.droop_m[gi] / devices.tau[gi]
        add(entries, X + gen, X + gen, -1.0 / devices.tau[gi])
        add(entries, X + gen, ctrl[gi], m_tau)
        add(entries, X + gen, W + bus[gi], -m_tau)

        if cfg.kind == INTEGRAL:
            # (q / K) pc_dot = -omega
            add(entries, C + unit, W + bus, -1.0)
            tau_c = devices.cost_q / cfg.integral_gain
        else:
            # tau_c pc_dot = s_tilde - H psi (+ n_f), summed per bus for primal_dual,
            # with s_tilde = -x_g - h (u - omega) + p_load
            add(entries, ctrl[gi], X + gen, -1.0)
            add(entries, ctrl, ctrl, -h)
            add(entries, ctrl, W + bus, h)
            add(inputs, ctrl, unit, 1.0)
            # gamma_psi psi_dot = H^T p_c
            a, c = graph.tail, graph.head
            edge = np.arange(graph.edge_count)
            add(entries, C + a, P + edge, -1.0)
            add(entries, C + c, P + edge, 1.0)
            add(entries, P + edge, C + a, 1.0 / cfg.gamma_psi)
            add(entries, P + edge, C + c, -1.0 / cfg.gamma_psi)
            tau_c = cfg.gamma

        # the command rows hold tau0 pc_dot; dividing them by tau0 once makes them pc_dot
        tau_rows = np.ones(offsets[-1])
        tau_rows[C:P] = tau_c

        def coo(parts):
            rows, cols, vals = (np.concatenate(v) for v in zip(*parts))
            return rows.astype(np.intp), cols.astype(np.intp), vals

        self.offsets = offsets  # start of each of BLOCKS in the stacked state, then its size
        self.rows, self.cols, vals = coo(entries)
        self.vals = vals / tau_rows[self.rows]
        self.in_rows, self.in_cols, self.in_vals = coo(inputs)  # in_cols: into p_load
        self.tau_c = tau_c  # tau0 per controller, divided into the command rows
        self.graph = graph  # consensus graph of the controllers
        self.dt = scenario.dt  # the step of `step`
        self.size = int(offsets[-1])
        self.pc = slice(offsets[3], offsets[4])  # the command rows
        command = (self.rows >= C) & (self.rows < P)  # A's command-row entries, in their order
        self.command_entries = self.rows[command] - C, self.cols[command], self.vals[command]
        # vals times dt/2, dt/3 and dt/4
        self.stage_vals = tuple(self.vals * (self.dt / n) for n in (2.0, 3.0, 4.0))

    def load_input(self, p_load):
        """B p_load."""
        return np.bincount(self.in_rows, self.in_vals * p_load[self.in_cols], minlength=self.size)

    def held_input(self, p_load):
        """B p_load with its command rows over tau0: the input term until the
        next load step."""
        b = self.load_input(p_load)
        b[self.pc] /= self.tau_c
        return b

    def rhs(self, y, b, rho):
        """dy at the stacked state y for the input term b (B p_load, plus n_f / tau0
        on the command rows) and the diagonal rho = tau0 / (tau0 + xi) there, or None."""
        return self._product(self.vals, y, rho, b)

    def _product(self, vals, y, rho, b=None):
        """A y (+ b) for A's values vals, its command rows times rho unless
        rho is None."""
        out = np.bincount(self.rows, vals * y[self.cols], minlength=self.size)
        if b is not None:
            out += b
        if rho is not None:
            out[self.pc] *= rho
        return out

    def step(self, y, b, rho):
        """(dy at y, the state one RK4 step of dt later) for the input b and
        the diagonal rho held over the step."""
        k1 = self.rhs(y, b, rho)
        w1 = self.dt * k1
        w2 = self._product(self.stage_vals[0], w1, rho)
        w3 = self._product(self.stage_vals[1], w2, rho)
        w4 = self._product(self.stage_vals[2], w3, rho)
        return k1, y + (w1 + (w2 + (w3 + w4)))

    def blocks(self, y):
        """Views of the BLOCKS of a stacked state, or of each row of a stack."""
        return tuple(y[..., a:b] for a, b in zip(self.offsets[:-1], self.offsets[1:]))

    def command_rates(self, traj, rows):
        """The command rows of dy at the samples `rows` (a slice) of a
        trajectory this loop ran: A y, plus the held load input (and n_f /
        tau0 under privacy), times rho from the recorded xi. A y is formed
        for a piece of samples at a time, its terms array one `row_blocks`
        block wide in A's command-row entries: the stacked state's columns
        those entries read, times their values, summed by one flattened
        bincount. Each row's terms are `rhs`'s, added in its order, so the
        rates are the run's k1 bit for bit."""
        ctrl, cols, vals = self.command_entries
        n_ctrl = self.pc.stop - self.pc.start
        times = traj.times[rows]
        out = np.empty((len(times), n_ctrl))
        fields = [f[rows] for f in (traj.eta, traj.omega, traj.x, traj.p_c, traj.psi)]
        pieces = row_blocks(len(times), vals.size)
        if pieces:  # sample-major bins of the entries' rows, for the longest piece
            index = (np.arange(pieces[0].stop)[:, None] * n_ctrl + ctrl).ravel()
        for c in pieces:
            n = c.stop - c.start
            terms = np.take(np.hstack([f[c] for f in fields]), cols, axis=1)
            terms *= vals
            out[c] = np.bincount(index[:terms.size], terms.ravel(),
                                 minlength=n * n_ctrl).reshape(n, n_ctrl)
        privacy = traj.scheme_kind == PRIVACY_PRESERVING
        for seg, p_load in traj.scenario.load_segments(times):
            b = self.held_input(p_load)[self.pc]
            out[seg] += b + traj.n_f[rows][seg] / self.tau_c if privacy else b
        if privacy:
            out *= self.tau_c / (self.tau_c + traj.xi[rows])
        return out


def _unit_outputs(kind, devices, x, p_c, omega, p_load):
    """unit_outputs at commands p_c; a primal_dual unit's input is its bus's command."""
    u = p_c[..., devices.bus] if kind == PRIMAL_DUAL else p_c
    return unit_outputs(devices, x, u, omega, p_load)


def _rest_state(scenario, op, p_load):
    """The closed loop's rest state at load p_load, for every scheme: frequency
    restored, every command at -lambda and the consensus states balancing the
    prosumption each controller sums, B's command rows applied to s_tilde*."""
    devices = scenario.devices
    eq = build_equilibrium(scenario.model, devices, None, solve_kkt(devices, p_load), p_load)
    zeta = op.load_input(eq.s_tilde_star)[op.pc]
    eq.p_c_star = np.full(zeta.shape, -eq.lam)
    eq.psi_star = np.zeros(0) if op.graph is None else consensus_flows(op.graph, zeta)
    return eq


def _divergence(op, y, k, dt):
    """DivergenceError naming the first non-finite entry of the state after step k."""
    first = int(np.flatnonzero(~np.isfinite(y))[0])
    block = int(np.searchsorted(op.offsets, first, side="right")) - 1
    return DivergenceError((k + 1) * dt, BLOCKS[block], first - int(op.offsets[block]), k * dt)


def simulate(scenario):
    """Integrate the closed loop and record a full trajectory."""
    model, devices, cfg = scenario.model, scenario.devices, scenario.scheme
    privacy = cfg.kind == PRIVACY_PRESERVING
    op = ClosedLoop(scenario)
    if privacy:
        feasible, _, _ = design_condition_report(devices, model, cfg.privacy)
        if not feasible.all():
            bad = np.flatnonzero(~feasible).tolist()
            raise ConfigurationError(f"design condition violated for units {bad}")

    eq = _rest_state(scenario, op, devices.p_load)
    y = np.concatenate([eq.eta_star, np.zeros(model.bus_count), eq.x_star, eq.p_c_star,
                        eq.psi_star])

    dt = scenario.dt
    n_steps = int(round(scenario.t_end / dt))
    stride = scenario.record_stride
    steps = scenario.step_grid(stride)
    # The record is the stacked state and nothing else: one large allocation
    # is mapped on its own and goes back to the system whole when the
    # trajectory is dropped. The privacy draws are replayed from the seed on
    # first read (`Trajectory.xi`).
    states = np.empty((len(steps), op.size))
    if privacy:
        priv = cfg.privacy
        draw_blocks = privacy_draws(priv, devices.n_units, dt, scenario.seed, n_steps + 1,
                                    DRAW_BLOCK_ROWS)

    omega_at_unit = op.offsets[1] + devices.bus  # each unit's bus frequency in y
    rho = None
    for steps_held, p_load in scenario.load_segments(scenario.step_grid(1) * dt):
        b_load = op.held_input(p_load)
        b = b_load.copy()  # under privacy its command rows are rewritten every step
        for k in range(steps_held.start, steps_held.stop):
            if privacy:
                r = k % DRAW_BLOCK_ROWS
                if r == 0:
                    xi_rows, draws = next(draw_blocks)
                    rho_rows = op.tau_c / (op.tau_c + xi_rows)
                rho = rho_rows[r]
                n_f = privacy_noise(priv, draws[r], y[omega_at_unit])
                np.add(b_load[op.pc], n_f / op.tau_c, out=b[op.pc])
            j, off = divmod(k, stride)
            if off == 0:
                states[j] = y
            if k == n_steps:
                break
            y = op.step(y, b, rho)[1]
            if not np.isfinite(y).all():
                raise _divergence(op, y, k, dt)

    return Trajectory(times=steps * dt, **dict(zip(BLOCKS, op.blocks(states))),
                      scheme_kind=cfg.kind, scenario=scenario)


def steady_state_metrics(traj, window, devices=None):
    """Terminal-window summary of a trajectory.

    Per-unit quantities are averaged over the final window before taking
    spreads, which makes the numbers robust to privacy noise. Marginal
    cost per unit is q times the magnitude of its prosumption; it needs
    the device set to be supplied, and is formed for the window's samples
    only. peak_abs_omega is the largest |omega|; a run whose peak stays
    below SETTLE_THRESHOLD never leaves the band, and its settle_time is its
    first time.
    """
    times = traj.times
    span = times[-1] - times[0]
    if window <= 0 or window > span:
        raise ConfigurationError(f"window must lie in (0, {span:.6g}]")
    sel = times >= times[-1] - window
    omega_w = traj.omega[sel]
    max_abs_omega_end = float(np.abs(omega_w).max())

    peak = np.abs(traj.omega).max(axis=1)
    over = peak >= SETTLE_THRESHOLD
    if over.any():
        last = np.flatnonzero(over)[-1]
        settle_time = float(times[last + 1]) if last + 1 < len(times) else None
    else:
        settle_time = float(times[0])

    pc_mean = traj.p_c[sel].mean(axis=0)
    p_c_spread_end = float(pc_mean.max() - pc_mean.min())
    metrics = {
        "max_abs_omega_end": max_abs_omega_end,
        "peak_abs_omega": float(peak.max()),
        "settle_time": settle_time,
        "settle_threshold": SETTLE_THRESHOLD,
        "p_c_spread_end": p_c_spread_end,
        "p_c_mean_end": float(pc_mean.mean()),
    }
    if devices is not None:
        mc = marginal_costs(traj, devices, sel).mean(axis=0)
        metrics["marginal_cost_spread_end"] = float(mc.max() - mc.min())
        metrics["marginal_cost_mean_end"] = float(mc.mean())
    return metrics


def marginal_costs(traj, devices, rows=slice(None)):
    """Per-sample, per-unit marginal cost q * |prosumption at zero load|: q|p_M| or
    q|d_c|, at the samples rows (a slice or a mask) select, or at all of them."""
    s = _unit_outputs(traj.scheme_kind, devices, traj.x[rows], traj.p_c[rows],
                      traj.omega[rows], 0.0)[2]
    return np.abs(s) * devices.cost_q
