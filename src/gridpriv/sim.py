"""Closed-loop simulation: plant + devices + controller, fixed-step RK4.

The stacked state is [eta, omega, x, p_c, psi]. The closed loop is one
affine operator on it, dy = A y + b, with b = B p_load plus n_f on the
command rows. Those rows carry 1/tau0, the base controller time constants
(gamma, or q / K under integral): `ClosedLoop(scenario)` divides them into
A once per run, and into B p_load once per load step. The privacy scheme's
time constants gamma + xi are then one diagonal on the command rows, rho =
tau0 / (tau0 + xi), exactly 1.0 where xi = 0. The constructor assembles A
and B from the index data of the units and the edge endpoints of two
`Graph`s: the network's lines and the consensus graph (the communication
graph, or the lines again for primal_dual). `swing_rhs`, `device_outputs`,
`device_rhs` and `scheme_rhs` are its per-stage reference. Every scheme
forms B p_load once per load step, from the step `Scenario.load_steps`
gives it, and holds it until the next. RK4 is taken in its Taylor form for
an input held over the step (`ClosedLoop.step`): four sparse products a
step, no stage states. Only the privacy scheme modulates the input. Its
signals are inputs, not integrated states, held over a step and drawn
DRAW_BLOCK_ROWS steps at a time: the xi walk for a whole block
(`draw_privacy_block`) and rho beside it, then n_f step by step from omega,
as n_f / tau0 onto the command rows of a copy of B p_load. A seed gives the
same draws as drawing one step at a time. The run records the state,
pc_dot, the privacy draws and the prosumption s_tilde; s_tilde and the
Lyapunov column are computed after the loop, a chunk of samples at a time.

A trace file holds what a run integrates, draws or sends: every state
block but eta, the Lyapunov column, xi and n_f when they hold a non-zero
value, and s_tilde only under primal_dual, where it is on the wire; its
columns alone give the scheme kind (`_trace_kind`). `Trajectory.from_csv`
given the scenario rebuilds s_tilde as `simulate` does, bit for bit.
`write_csv`, the writer of every CSV file, gives each cell the bytes of
'%.17g'; it computes them for a float64 block at a time (`_cells.g17_rows`),
which hands ties and cells out of its range to '%'. `from_csv` reads a block
of rows at a time back the same way (`_cells.read_rows`), bit for bit as
np.loadtxt, which reads a body of any other layout from the same handle.
"""

import os
from contextlib import contextmanager
from dataclasses import dataclass

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
    draw_privacy_block,
    privacy_noise,
)

SETTLE_THRESHOLD = 2.0 * np.pi * 0.01  # 0.01 Hz in rad/s
BLOCKS = ("eta", "omega", "x", "p_c", "psi")  # order of the stacked state
CSV_CHUNK_CELLS = 1 << 14  # cells formatted or parsed per call; bounds temporaries (~300 B a cell)
OUTPUT_CHUNK_ROWS = 64  # samples per post-loop output chunk; bounds its temporaries
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


def write_csv(path, columns):
    """CSV of (name, block) float64 column blocks, one row per sample. A 1-D block
    is the column `name`, a 2-D block the columns `name_0`, `name_1`, ... LF line
    ends, %.17g cells (exact float64 round trip), formatted by `g17_rows`
    CSV_CHUNK_CELLS cells at a time. A block of another dtype raises TypeError
    before the file is opened."""
    header = [name if b.ndim == 1 else f"{name}_{k}" for name, b in columns
              for k in range(1 if b.ndim == 1 else b.shape[1])]
    blocks = [b[:, None] if b.ndim == 1 else b for _, b in columns]
    if any(b.dtype != np.float64 for b in blocks):
        raise TypeError("write_csv takes float64 blocks")
    step = max(1, CSV_CHUNK_CELLS // len(header))
    with atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        for i in range(0, len(blocks[0]), step):
            fh.write(g17_rows(np.hstack([b[i:i + step] for b in blocks])))


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
        """{first index j: uncontrollable load per unit from times[j] on}, in
        index order. A disturbance acts from the first j with
        times[j] + 1e-12 >= its time; disturbances at one index merge into one
        entry, and one after the last time has the index len(times)."""
        first = np.searchsorted(np.asarray(times) + 1e-12, [d.time for d in self.disturbances])
        p_load = self.devices.p_load.copy()
        segments = {0: p_load.copy()}
        for d, j in zip(self.disturbances, first.tolist()):
            p_load[d.unit] += d.delta
            segments[j] = p_load.copy()
        return segments

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

    def load_steps(self):
        """{first step k: uncontrollable load per unit from k on}: the load
        segments of the step times k*dt."""
        return self.load_segments(self.step_grid(1) * self.dt)

    def final_load(self):
        """Uncontrollable load per unit after every disturbance: given no times,
        `load_segments` merges every disturbance into its one entry, index 0."""
        return self.load_segments(())[0]


@dataclass
class Trajectory:
    """Time-indexed record of all plant, controller and privacy signals.

    The fields `simulate` or `from_csv` returns are views into one buffer;
    outside the privacy scheme xi and n_f are read-only zero views. p_M and d_c
    are not stored; `marginal_costs` derives them with `unit_outputs`. A trace
    file holds what a run integrates, draws or sends (see `to_csv`); `from_csv`
    reads the scheme kind from its columns and, given the scenario, rebuilds
    the rest but eta and pc_dot. It refuses a header that repeats a name, does
    not decode or misorders a block's prefix_k.
    """

    times: np.ndarray
    omega: np.ndarray  # (T, |N|)
    eta: np.ndarray  # (T, |E|)
    x: np.ndarray  # (T, n_gen)
    p_c: np.ndarray  # (T, n_controllers)
    psi: np.ndarray  # (T, n_comm_edges)
    xi: np.ndarray  # (T, n_units)
    n_f: np.ndarray  # (T, n_units)
    s_tilde: np.ndarray  # (T, n_units)
    pc_dot: np.ndarray  # (T, n_controllers)
    lyapunov: np.ndarray | None = None  # (T,) for unit-level consensus schemes
    scheme_kind: str = EXTENDED_PRIMAL_DUAL
    equilibrium: object = None  # reference used for the Lyapunov column

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
        none. Without one, blocks the file does not hold, and always eta and
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
                data = read_rows(fh, len(header), CSV_CHUNK_CELLS)
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
        lyap = data[:, header.index("lyapunov")] if "lyapunov" in header else None
        traj = cls(lyapunov=lyap, **{name: data[:, cols] for name, cols in spans.items()},
                   **dict.fromkeys(("eta", "pc_dot"), np.zeros((len(data), 0))))
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
        if traj.s_tilde.shape[1] == 0:
            traj.s_tilde = _record_s_tilde(scenario, traj.scheme_kind, traj.times, traj.x,
                                           traj.p_c, traj.omega, np.empty(zeros.shape))
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
        unit_level = cfg.kind in UNIT_CONSENSUS_KINDS
        if unit_level:
            graph = scenario.comm
            if graph is None or graph.node_count != n_units:
                raise ConfigurationError("unit-level scheme needs a communication node per unit")
        elif cfg.kind == PRIMAL_DUAL:
            graph = model.graph  # bus-level consensus over the electrical lines
        else:
            graph = None
        n_ctrl = model.bus_count if cfg.kind == PRIMAL_DUAL else n_units
        sizes = [model.line_count, model.bus_count, devices.n_generators, n_ctrl,
                 graph.edge_count if graph is not None else 0]
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
        self.unit_level = unit_level  # rho and n_f act on the command rows
        self.graph = graph  # consensus graph of the controllers
        self.dt = scenario.dt  # the step of `step`
        self.size = int(offsets[-1])
        self.pc = slice(offsets[3], offsets[4])  # the command rows
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


def _chunks(j0, j1):
    """Slices of at most OUTPUT_CHUNK_ROWS samples covering [j0, j1)."""
    return (slice(i, min(i + OUTPUT_CHUNK_ROWS, j1)) for i in range(j0, j1, OUTPUT_CHUNK_ROWS))


def _record_s_tilde(scenario, kind, times, x, p_c, omega, out):
    """Fill out with the prosumption s_tilde at each sample, under the load that
    `Scenario.load_segments` places at the sample times; return out."""
    segments = scenario.load_segments(times)
    bounds = list(segments) + [len(times)]
    for j0, j1, load in zip(bounds, bounds[1:], segments.values()):
        for c in _chunks(j0, j1):
            out[c] = _unit_outputs(kind, scenario.devices, x[c], p_c[c], omega[c], load)[2]
    return out


def simulate(scenario):
    """Integrate the closed loop and record a full trajectory."""
    model, devices, cfg = scenario.model, scenario.devices, scenario.scheme
    n_units = devices.n_units
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

    # Lyapunov reference: the rest state after all load steps
    eq_ref = _rest_state(scenario, op, scenario.final_load()) if op.unit_level else None

    if privacy:
        rng = np.random.default_rng(scenario.seed)
        priv = cfg.privacy
        xi = rng.uniform(0.0, priv.xi_max / 10.0, n_units)
        xi[priv.beta_hat == 0.0] = 0.0  # degenerate units stay at the plain scheme

    dt = scenario.dt
    n_steps = int(round(scenario.t_end / dt))
    stride = scenario.record_stride
    steps = scenario.step_grid(stride)
    n_samples = len(steps)
    # Every recorded signal is a column block of one buffer. One large
    # allocation is mapped on its own and goes back to the system whole
    # when the trajectory is dropped; a dozen smaller ones fragment the heap.
    # xi and n_f vary only under the privacy scheme; elsewhere they are one
    # read-only zero view and take no columns.
    widths = [op.size, op.pc.stop - op.pc.start, n_units]
    if privacy:
        widths += [n_units] * 2
    record = np.empty((n_samples, sum(widths)))
    states, pc_dots, s_tilde, *noise = np.split(record, np.cumsum(widths[:-1]), axis=1)
    xis, n_fs = noise if privacy else [np.broadcast_to(0.0, (n_samples, n_units))] * 2

    loads = scenario.load_steps()
    omega_at_unit = op.offsets[1] + devices.bus  # each unit's bus frequency in y
    rho = None
    for k in range(n_steps + 1):
        if k in loads:
            b_load = op.held_input(loads[k])
            b = b_load.copy()  # under privacy its command rows are rewritten every step
        if privacy:
            r = k % DRAW_BLOCK_ROWS
            if r == 0:
                xi_rows, draws = draw_privacy_block(
                    priv, xi, dt, rng, min(DRAW_BLOCK_ROWS, n_steps + 1 - k))
                rho_rows = op.tau_c / (op.tau_c + xi_rows)
            xi, rho = xi_rows[r], rho_rows[r]
            n_f = privacy_noise(priv, draws[r], y[omega_at_unit])
            np.add(b_load[op.pc], n_f / op.tau_c, out=b[op.pc])
        if k < n_steps:
            k1, y_next = op.step(y, b, rho)
        else:
            k1 = op.rhs(y, b, rho)  # the last sample's pc_dot; no step follows
        j, off = divmod(k, stride)
        if off == 0:
            states[j] = y
            pc_dots[j] = k1[op.pc]
            if privacy:
                xis[j], n_fs[j] = xi, n_f
        if k == n_steps:
            break
        y = y_next
        if not np.isfinite(y).all():
            raise _divergence(op, y, k, dt)

    eta, omega, x, p_c, psi = op.blocks(states)
    times = steps * dt
    _record_s_tilde(scenario, cfg.kind, times, x, p_c, omega, s_tilde)
    lyap = None
    if op.unit_level:
        lyap = np.empty(n_samples)
        for c in _chunks(0, n_samples):
            lyap[c] = lyapunov_value(model, devices, scenario.comm, cfg, eq_ref,
                                     eta[c], omega[c], x[c], p_c[c], psi[c], xis[c])[0]
    return Trajectory(
        times=times,
        omega=omega, eta=eta, x=x, p_c=p_c, psi=psi,
        xi=xis, n_f=n_fs, s_tilde=s_tilde, pc_dot=pc_dots,
        lyapunov=lyap, scheme_kind=cfg.kind, equilibrium=eq_ref,
    )


def steady_state_metrics(traj, window, devices=None):
    """Terminal-window summary of a trajectory.

    Per-unit quantities are averaged over the final window before taking
    spreads, which makes the numbers robust to privacy noise. Marginal
    cost per unit is q times the magnitude of its prosumption; it needs
    the device set to be supplied. peak_abs_omega is the largest |omega|; a
    run whose peak stays below SETTLE_THRESHOLD never leaves the band, and
    its settle_time is its first time.
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
        mc = marginal_costs(traj, devices)[sel].mean(axis=0)
        metrics["marginal_cost_spread_end"] = float(mc.max() - mc.min())
        metrics["marginal_cost_mean_end"] = float(mc.mean())
    return metrics


def marginal_costs(traj, devices):
    """Per-sample, per-unit marginal cost q * |prosumption at zero load|: q|p_M| or q|d_c|."""
    s = _unit_outputs(traj.scheme_kind, devices, traj.x, traj.p_c, traj.omega, 0.0)[2]
    return np.abs(s) * devices.cost_q
