"""Closed-loop simulation: plant + devices + controller, fixed-step RK4.

The stacked state is [eta, omega, x, p_c, psi]. The closed loop is one
affine operator on it, dy = A y + B [p_load, n_f], with the command rows
divided by the controller time constants (gamma + xi for the privacy
scheme). `closed_loop` assembles A and B once per run from the index data
of the units and the edge endpoints of two `Graph`s: the network's lines
and the consensus graph (the communication graph, or the lines again for
primal_dual). `swing_rhs`, `device_outputs`, `device_rhs` and
`scheme_rhs` are its per-stage reference. Privacy signals are refreshed
once per step and held constant across the four internal stages; they are
inputs, not integrated states. Load steps act from the step that
`Scenario.load_steps` gives them. The run records the state, pc_dot, the
privacy draws and the prosumption s_tilde; s_tilde and the Lyapunov column
are computed after the loop, a chunk of samples at a time.
"""

import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .equilibrium import build_equilibrium, lyapunov_value, solve_kkt
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
    refresh_privacy_signals,
)

SETTLE_THRESHOLD = 2.0 * np.pi * 0.01  # 0.01 Hz in rad/s
BLOCKS = ("eta", "omega", "x", "p_c", "psi")  # order of the stacked state
CSV_CHUNK_ROWS = 256  # rows formatted per % call; bounds the transient text
OUTPUT_CHUNK_ROWS = 64  # samples per post-loop output chunk; bounds its temporaries
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
    """CSV of (name, block) column blocks, one row per sample. A 1-D block is the
    column `name`, a 2-D block the columns `name_0`, `name_1`, ... LF line ends,
    %.17g cells (exact float64 round trip), formatted a chunk of rows at a time."""
    header = [name if b.ndim == 1 else f"{name}_{k}" for name, b in columns
              for k in range(1 if b.ndim == 1 else b.shape[1])]
    blocks = [b[:, None] if b.ndim == 1 else b for _, b in columns]
    row = ",".join(["%.17g"] * len(header)) + "\n"
    with atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        for i in range(0, len(blocks[0]), CSV_CHUNK_ROWS):
            chunk = np.hstack([b[i:i + CSV_CHUNK_ROWS] for b in blocks])
            fh.write((row * len(chunk)) % tuple(chunk.ravel().tolist()))


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
        if not self.dt > 0:
            raise ScenarioError("$.sim.dt", "must be positive")
        if self.record_stride < 1:
            raise ScenarioError("$.sim.record_stride", "must be >= 1")
        spacing = self.dt * self.record_stride  # t_end: a positive multiple, rtol 1e-9
        n = np.round(self.t_end / spacing)
        if not (n >= 1 and abs(n * spacing - self.t_end) <= 1e-9 * self.t_end):
            raise ScenarioError("$.sim.t_end", f"not a multiple of dt*record_stride={spacing:g}")
        for k, d in enumerate(self.disturbances):
            if not 0.0 <= d.time <= self.t_end:
                raise ScenarioError(f"$.disturbances[{k}].t",
                                    f"must lie in [0, t_end={self.t_end:g}]")
            if not 0 <= d.unit < self.devices.n_units:
                raise ScenarioError(f"$.disturbances[{k}].unit",
                                    f"must lie in [0, {self.devices.n_units})")
        # the order they act in; stable, so same-time steps keep file order
        self.disturbances = tuple(sorted(self.disturbances, key=lambda d: d.time))

    def load_steps(self):
        """{first step k: uncontrollable load per unit from k on}, in step order.
        A disturbance acts from the first k with k*dt + 1e-12 >= its time;
        disturbances on one step merge into one entry."""
        grid = np.arange(int(round(self.t_end / self.dt)) + 1) * self.dt + 1e-12
        first = np.searchsorted(grid, [d.time for d in self.disturbances])
        p_load = self.devices.p_load.copy()
        steps = {0: p_load.copy()}
        for d, k in zip(self.disturbances, first.tolist()):
            p_load[d.unit] += d.delta
            steps[k] = p_load.copy()
        return steps

    def final_load(self):
        """Uncontrollable load per unit after every disturbance."""
        return list(self.load_steps().values())[-1]


@dataclass
class Trajectory:
    """Time-indexed record of all plant, controller and privacy signals.

    The fields `simulate` returns are views into one buffer; outside the
    privacy scheme xi and n_f are read-only zero views. p_M and d_c are not
    stored; `marginal_costs` derives them with `unit_outputs`.
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
        """Wide CSV trace, one row per recorded sample (see write_csv)."""
        columns = [("t", self.times)]
        columns += [(prefix, getattr(self, name)) for prefix, name in TRACE_BLOCKS]
        if self.lyapunov is not None:
            columns.append(("lyapunov", self.lyapunov))
        write_csv(path, columns)

    @classmethod
    def from_csv(cls, path):
        """Rebuild the recorded signals available in a CSV trace."""
        with open(path) as fh:
            header = fh.readline().rstrip("\n").split(",")
            try:
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
                if "t" not in header or data.shape[1] != len(header):
                    raise ValueError(f"{data.shape[1]} columns under {len(header)} names")
            except ValueError as exc:
                raise ConfigurationError(f"malformed trace {path}: {exc}") from exc
        def block(prefix):
            idx = [k for k, c in enumerate(header) if re.fullmatch(rf"{prefix}_\d+", c)]
            return data[:, idx]
        lyap = data[:, header.index("lyapunov")] if "lyapunov" in header else None
        empty = np.zeros((len(data), 0))
        return cls(times=data[:, header.index("t")], lyapunov=lyap,
                   **{name: block(prefix) for prefix, name in TRACE_BLOCKS},
                   **dict.fromkeys(("eta", "pc_dot"), empty))


@dataclass(frozen=True)
class ClosedLoop:
    """The closed loop as one affine operator on the stacked state.

    dy = A y + B [p_load, n_f], after which the p_c rows, which hold the
    numerator of tau_c * pc_dot, are divided by the controller time
    constants: gamma + xi for the unit-level schemes, gamma for
    primal_dual and q / K for integral. A and B are COO triples, each
    applied with one bincount.
    """

    offsets: np.ndarray  # start of each of BLOCKS in the stacked state, then its size
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    in_rows: np.ndarray
    in_cols: np.ndarray  # into the input vector [p_load, n_f]
    in_vals: np.ndarray
    tau_c: np.ndarray  # per controller, before xi
    unit_level: bool  # xi adds to tau_c and n_f enters the command rows
    graph: Graph | None  # consensus graph of the controllers
    size: int = field(init=False)
    pc: slice = field(init=False)  # the command rows

    def __post_init__(self):
        object.__setattr__(self, "size", int(self.offsets[-1]))
        object.__setattr__(self, "pc", slice(self.offsets[3], self.offsets[4]))

    def inputs(self, p_load, xi, n_f):
        """The input term b = B [p_load, n_f] and the time constants tau_c."""
        u = np.concatenate([p_load, n_f])
        b = np.bincount(self.in_rows, self.in_vals * u[self.in_cols], minlength=self.size)
        return b, (self.tau_c + xi if self.unit_level else self.tau_c)

    def rhs(self, y, b, tau_c):
        """dy at the stacked state y, for the inputs from `inputs`."""
        dy = np.bincount(self.rows, self.vals * y[self.cols], minlength=self.size)
        dy += b
        dy[self.pc] /= tau_c
        return dy

    def blocks(self, y):
        """Views of the BLOCKS of a stacked state, or of each row of a stack."""
        return tuple(y[..., a:b] for a, b in zip(self.offsets[:-1], self.offsets[1:]))


def closed_loop(scenario):
    """Assemble the ClosedLoop of a scenario from its index data.

    Row by row it is swing_rhs, device_outputs, device_rhs and
    scheme_rhs, which stay as its reference.
    """
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
        if unit_level:
            add(inputs, ctrl, n_units + unit, 1.0)
        # gamma_psi psi_dot = H^T p_c
        a, c = graph.tail, graph.head
        edge = np.arange(graph.edge_count)
        add(entries, C + a, P + edge, -1.0)
        add(entries, C + c, P + edge, 1.0)
        add(entries, P + edge, C + a, 1.0 / cfg.gamma_psi)
        add(entries, P + edge, C + c, -1.0 / cfg.gamma_psi)
        tau_c = cfg.gamma

    def coo(parts):
        rows, cols, vals = (np.concatenate(v) for v in zip(*parts))
        return rows.astype(np.intp), cols.astype(np.intp), vals

    return ClosedLoop(offsets, *coo(entries), *coo(inputs), tau_c=tau_c,
                      unit_level=unit_level, graph=graph)


def _unit_outputs(kind, devices, x, p_c, omega, p_load):
    """unit_outputs at commands p_c; a primal_dual unit's input is its bus's command."""
    u = p_c[..., devices.bus] if kind == PRIMAL_DUAL else p_c
    return unit_outputs(devices, x, u, omega, p_load)


def _initial_state(scenario, kkt, graph):
    """Pre-disturbance equilibrium of the chosen scheme."""
    model, devices, cfg = scenario.model, scenario.devices, scenario.scheme
    if cfg.kind in UNIT_CONSENSUS_KINDS:
        eq = build_equilibrium(model, devices, graph, kkt)
        return eq.eta_star, eq.x_star, eq.p_c_star, eq.psi_star
    eq = build_equilibrium(model, devices, None, kkt)
    if cfg.kind == INTEGRAL:
        return eq.eta_star, eq.x_star, eq.p_c_star, np.zeros(0)
    # primal_dual: bus-level commands and consensus states
    zeta_star = devices.bus_sum(eq.s_tilde_star)
    psi0 = graph.edge_diff(graph.potentials(1.0, zeta_star))
    return eq.eta_star, eq.x_star, np.full(model.bus_count, -kkt.lam), psi0


def _divergence(op, y, k, dt):
    """DivergenceError naming the first non-finite entry of the state after step k."""
    first = int(np.flatnonzero(~np.isfinite(y))[0])
    block = int(np.searchsorted(op.offsets, first, side="right")) - 1
    return DivergenceError((k + 1) * dt, BLOCKS[block], first - int(op.offsets[block]), k * dt)


def simulate(scenario):
    """Integrate the closed loop and record a full trajectory."""
    model, devices, cfg = scenario.model, scenario.devices, scenario.scheme
    n_units = devices.n_units
    privacy = cfg.kind == PRIVACY_PRESERVING
    op = closed_loop(scenario)
    if privacy:
        feasible, _, _ = design_condition_report(devices, model, cfg.privacy)
        if not feasible.all():
            bad = np.flatnonzero(~feasible).tolist()
            raise ConfigurationError(f"design condition violated for units {bad}")

    eta0, x0, pc0, psi0 = _initial_state(scenario, solve_kkt(devices), op.graph)
    y = np.concatenate([eta0, np.zeros(model.bus_count), x0, pc0, psi0])

    # Lyapunov reference: the equilibrium reached after all load steps
    eq_ref = None
    if op.unit_level:
        final = scenario.final_load()
        eq_ref = build_equilibrium(model, devices, scenario.comm, solve_kkt(devices, final), final)

    rng = np.random.default_rng(scenario.seed)
    xi = np.zeros(n_units)
    n_f = np.zeros(n_units)
    if privacy:
        priv = cfg.privacy
        xi = rng.uniform(0.0, priv.xi_max / 10.0, n_units)
        xi[priv.beta_hat == 0.0] = 0.0  # degenerate units stay at the plain scheme

    dt = scenario.dt
    n_steps = int(round(scenario.t_end / dt))
    stride = scenario.record_stride
    steps = np.arange(0, n_steps + 1, stride)
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
    omega_rows = slice(op.offsets[1], op.offsets[2])
    for k in range(n_steps + 1):
        if k in loads:
            p_load = loads[k]
        if privacy:
            xi, n_f = refresh_privacy_signals(cfg.privacy, xi, devices.bus, y[omega_rows],
                                              dt, rng)
        if k in loads or privacy:
            b, tau_c = op.inputs(p_load, xi, n_f)
        k1 = op.rhs(y, b, tau_c)
        j, off = divmod(k, stride)
        if off == 0:
            states[j] = y
            pc_dots[j] = k1[op.pc]
            if privacy:
                xis[j], n_fs[j] = xi, n_f
        if k == n_steps:
            break
        k2 = op.rhs(y + 0.5 * dt * k1, b, tau_c)
        k3 = op.rhs(y + 0.5 * dt * k2, b, tau_c)
        k4 = op.rhs(y + dt * k3, b, tau_c)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(y).all():
            raise _divergence(op, y, k, dt)

    def chunks(j0, j1):
        return (slice(i, min(i + OUTPUT_CHUNK_ROWS, j1))
                for i in range(j0, j1, OUTPUT_CHUNK_ROWS))

    eta, omega, x, p_c, psi = op.blocks(states)
    # a load acts from sample ceil(k / stride) on; a segment may be empty
    bounds = [min(-(-k // stride), n_samples) for k in loads] + [n_samples]
    for j0, j1, load in zip(bounds, bounds[1:], loads.values()):
        for c in chunks(j0, j1):
            s_tilde[c] = _unit_outputs(cfg.kind, devices, x[c], p_c[c], omega[c], load)[2]
    lyap = None
    if op.unit_level:
        lyap = np.empty(n_samples)
        for c in chunks(0, n_samples):
            lyap[c] = lyapunov_value(model, devices, scenario.comm, cfg, eq_ref,
                                     eta[c], omega[c], x[c], p_c[c], psi[c], xis[c])[0]
    return Trajectory(
        times=steps * dt,
        omega=omega, eta=eta, x=x, p_c=p_c, psi=psi,
        xi=xis, n_f=n_fs, s_tilde=s_tilde, pc_dot=pc_dots,
        lyapunov=lyap, scheme_kind=cfg.kind, equilibrium=eq_ref,
    )


def steady_state_metrics(traj, window, devices=None):
    """Terminal-window summary of a trajectory.

    Per-unit quantities are averaged over the final window before taking
    spreads, which makes the numbers robust to privacy noise. Marginal
    cost per unit is q times the magnitude of its prosumption; it needs
    the device set to be supplied.
    """
    times = traj.times
    span = times[-1] - times[0]
    if window <= 0 or window > span:
        raise ConfigurationError(f"window must lie in (0, {span:.6g}]")
    sel = times >= times[-1] - window
    omega_w = traj.omega[sel]
    max_abs_omega_end = float(np.abs(omega_w).max())

    over = np.abs(traj.omega).max(axis=1) >= SETTLE_THRESHOLD
    if over.any():
        last = np.flatnonzero(over)[-1]
        settle_time = float(times[last + 1]) if last + 1 < len(times) else None
    else:
        settle_time = float(times[0])

    pc_mean = traj.p_c[sel].mean(axis=0)
    p_c_spread_end = float(pc_mean.max() - pc_mean.min())
    metrics = {
        "max_abs_omega_end": max_abs_omega_end,
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
    """Per-sample, per-unit marginal cost q * |prosumption|, from p_M and d_c."""
    p_M, d_c, _ = _unit_outputs(traj.scheme_kind, devices, traj.x, traj.p_c, traj.omega, 0.0)
    out = np.empty((len(traj.times), devices.n_units))
    out[:, devices.gen_index] = np.abs(p_M) * devices.cost_q[devices.gen_index]
    out[:, devices.load_index] = np.abs(d_c) * devices.cost_q[devices.load_index]
    return out
