import csv
import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from gridpriv import (
    DeviceState,
    PlantState,
    RandomScenarioSpec,
    Scenario,
    SchemeState,
    build_scenario,
    device_outputs,
    device_rhs,
    gen_scenario,
    lyapunov_value,
    scheme_rhs,
    simulate,
    solve_kkt,
    swing_rhs,
)
import gridpriv.sim as sim_module
from gridpriv.adversary import KnowledgeSet, naive_readout, observer_attack
from gridpriv.devices import unit_outputs
from gridpriv.equilibrium import build_equilibrium
from gridpriv.errors import ConfigurationError, DivergenceError, InfeasibilityError
from gridpriv.network import Graph
from gridpriv.schemes import (
    EXTENDED_PRIMAL_DUAL,
    INTEGRAL,
    PRIMAL_DUAL,
    PRIVACY_PRESERVING,
    refresh_privacy_signals,
)
from gridpriv.sim import (
    SETTLE_THRESHOLD,
    ClosedLoop,
    Disturbance,
    Trajectory,
    _rest_state,
    marginal_costs,
    steady_state_metrics,
    write_csv,
)
from tests.conftest import ALL_KINDS, make_scenario, read_csv


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_all_schemes_run_and_restore_frequency(scenario_factory, kind):
    traj = simulate(scenario_factory(kind, t_end=30.0))
    assert np.isfinite(traj.omega).all()
    assert np.abs(traj.omega[-1]).max() < SETTLE_THRESHOLD


def test_starts_at_equilibrium_before_disturbance(scenario_factory):
    for kind in (EXTENDED_PRIMAL_DUAL, PRIMAL_DUAL):
        traj = simulate(scenario_factory(kind, t_end=5.0, disturbances=((2.0, 0, 0.2),)))
        pre = traj.times < 2.0 - 1e-9
        assert np.abs(traj.omega[pre]).max() < 1e-10
        # commands and consensus states sit at the pre-disturbance optimum and
        # only move after the step
        assert np.abs(traj.p_c[pre] - traj.p_c[0]).max() < 1e-10
        assert np.abs(traj.psi[pre] - traj.psi[0]).max() < 1e-10
        assert np.abs(traj.p_c[-1] - traj.p_c[0]).max() > 1e-3


def test_primal_dual_start_checks_the_consensus_residual(scenario_factory, monkeypatch):
    """Every scheme's rest state checks H psi* = zeta*, the bus-level one too."""
    solve = Graph.potentials
    monkeypatch.setattr(Graph, "potentials",
                        lambda self, w, s: solve(self, w, s) + np.arange(self.node_count))
    with pytest.raises(InfeasibilityError, match="consensus equilibrium residual"):
        simulate(scenario_factory(PRIMAL_DUAL, t_end=1.0))


@pytest.mark.parametrize("kind", [EXTENDED_PRIMAL_DUAL, PRIMAL_DUAL])
def test_converges_to_dispatch_optimum(scenario_factory, kind, devices4):
    sc = scenario_factory(kind, t_end=60.0)
    traj = simulate(sc)
    kkt = solve_kkt(devices4, sc.final_load())
    np.testing.assert_allclose(traj.p_c[-1], -kkt.lam, rtol=0.0, atol=1e-3)
    mc = marginal_costs(traj, devices4)[-1]
    np.testing.assert_allclose(mc, abs(kkt.lam), rtol=0.0, atol=1e-3)


def test_determinism(scenario_factory):
    a = simulate(scenario_factory(PRIVACY_PRESERVING, seed=5, t_end=5.0))
    b = simulate(scenario_factory(PRIVACY_PRESERVING, seed=5, t_end=5.0))
    for name in ("omega", "p_c", "psi", "xi", "n_f", "s_tilde", "lyapunov"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    c = simulate(scenario_factory(PRIVACY_PRESERVING, seed=6, t_end=5.0))
    assert not np.array_equal(a.n_f, c.n_f)


def test_dt_refinement_fourth_order(model3, devices4, comm4):
    """Halving the step shrinks the error ~16x (fourth-order integrator)."""
    def run(dt):
        return simulate(make_scenario(model3, devices4, comm4,
                                      EXTENDED_PRIMAL_DUAL, t_end=5.0, dt=dt))
    ref = run(0.00125)
    err = {}
    for dt, stride in ((0.01, 8), (0.005, 4)):
        traj = run(dt)
        err[dt] = np.abs(traj.p_c - ref.p_c[::stride]).max()
    ratio = err[0.01] / err[0.005]
    assert 10.0 < ratio < 22.0
    scale = 1.0 + np.abs(ref.p_c).max()
    assert err[0.005] / scale < 1e-4


def test_recorded_reconstruction_identity(scenario_factory, comm4):
    """Recorded columns satisfy (gamma + xi) pc_dot = s - H psi + n_f exactly."""
    sc = scenario_factory(PRIVACY_PRESERVING, t_end=5.0)
    traj = simulate(sc)
    H = comm4.incidence
    lhs = (sc.scheme.gamma + traj.xi) * traj.pc_dot
    rhs = traj.s_tilde - traj.psi @ H.T + traj.n_f
    assert np.abs(lhs - rhs).max() < 1e-10


def test_privacy_reduces_to_plain_scheme_bitwise(scenario_factory):
    """beta = beta_hat = 0 privacy runs match the plain scheme bit for bit."""
    plain = simulate(scenario_factory(EXTENDED_PRIMAL_DUAL, seed=3, t_end=5.0))
    degenerate = simulate(scenario_factory(
        PRIVACY_PRESERVING, seed=3, t_end=5.0,
        beta=np.zeros(4), beta_hat=np.zeros(4), xi_max=0.0))
    for name in ("omega", "eta", "x", "p_c", "psi", "s_tilde", "pc_dot", "lyapunov"):
        np.testing.assert_array_equal(getattr(plain, name), getattr(degenerate, name))
    assert np.all(degenerate.xi == 0.0)
    assert np.all(degenerate.n_f == 0.0)


@pytest.mark.parametrize("kind", (INTEGRAL, PRIMAL_DUAL, EXTENDED_PRIMAL_DUAL))
def test_plain_run_privacy_columns_are_a_read_only_zero_view(scenario_factory, kind):
    traj = simulate(scenario_factory(kind, t_end=2.0))
    for name in ("xi", "n_f"):
        block = getattr(traj, name)
        assert block.shape == (len(traj.times), 4)
        assert block.strides == (0, 0)
        with pytest.raises(ValueError):
            block[0, 0] = 1.0
        assert np.all(block == 0.0)


def test_simulate_peak_memory_is_the_recording_buffer():
    """One buffer holds every recorded signal, 8 x (state + n_ctrl + n_units
    + 2 n_units for privacy) bytes per sample; the post-loop outputs add
    chunk-sized temporaries only."""
    sc = build_scenario(gen_scenario(RandomScenarioSpec(
        bus_count=30, t_end=5.0, seed=2, scheme_kind=PRIVACY_PRESERVING)))
    state_size, n = ClosedLoop(sc).size, sc.devices.n_units
    tracemalloc.start()
    try:
        traj = simulate(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    record = traj.omega.base
    for name in ("eta", "x", "p_c", "psi", "pc_dot", "s_tilde", "xi", "n_f"):
        assert getattr(traj, name).base is record
    # state, pc_dot (n_ctrl = n_units here), s_tilde, then xi and n_f
    assert record.nbytes == 8 * len(traj.times) * (state_size + n + n + 2 * n)
    assert peak <= 1.25 * record.nbytes


def test_lyapunov_monotone(scenario_factory):
    traj = simulate(scenario_factory(EXTENDED_PRIMAL_DUAL, t_end=20.0))
    v = traj.lyapunov
    tol = 1e-7 * (1.0 + v[0])
    # ignore the jump where the disturbance moves the reference-relative state
    after = traj.times >= 1.0
    dv = np.diff(v[after])
    assert np.all(dv <= tol)
    assert v[after][-1] < 1e-3 * v[after][0]


def test_lyapunov_column_does_not_depend_on_chunk_size():
    """simulate evaluates V a chunk of samples at a time; each sample's value
    must equal the one a single whole-trajectory call gives."""
    sc = build_scenario(gen_scenario(RandomScenarioSpec(
        bus_count=200, t_end=10.0, seed=7, scheme_kind=EXTENDED_PRIMAL_DUAL)))
    traj = simulate(sc)
    whole, _ = lyapunov_value(sc.model, sc.devices, sc.comm, sc.scheme, traj.equilibrium,
                              traj.eta, traj.omega, traj.x, traj.p_c, traj.psi)
    np.testing.assert_array_equal(traj.lyapunov, whole)


def test_lyapunov_absent_for_bus_level_scheme(scenario_factory):
    traj = simulate(scenario_factory(PRIMAL_DUAL, t_end=2.0))
    assert traj.lyapunov is None


def test_privacy_signal_columns_within_bounds(scenario_factory):
    sc = scenario_factory(PRIVACY_PRESERVING, t_end=10.0)
    traj = simulate(sc)
    beta = sc.scheme.privacy.beta
    beta_hat = sc.scheme.privacy.beta_hat
    omega_at_unit = np.abs(traj.omega[:, sc.devices.bus])
    ok = (np.abs(traj.n_f) < beta * omega_at_unit) | (traj.n_f == 0.0)
    assert ok.all()
    assert (traj.xi >= 0.0).all()
    dxi = np.abs(np.diff(traj.xi, axis=0)) / sc.dt
    assert np.all((dxi < beta_hat) | (dxi == 0.0))


def test_csv_round_trip(tmp_path, scenario_factory):
    sc = scenario_factory(PRIVACY_PRESERVING, t_end=2.0)
    traj = simulate(sc)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    back = Trajectory.from_csv(path, scenario=sc)
    np.testing.assert_array_equal(back.times, traj.times)
    for name in ("omega", "p_c", "psi", "x", "s_tilde", "xi", "n_f", "lyapunov"):
        np.testing.assert_array_equal(getattr(back, name), getattr(traj, name))
    header = path.read_text().splitlines()[0].split(",")
    assert header[0] == "t"
    assert "omega_0" in header and "pc_0" in header and "psi_0" in header
    assert "x_0" in header and "s_tilde_0" not in header
    assert "xi_0" in header and "nf_0" in header and "lyapunov" in header


def test_csv_round_trip_is_bit_exact_for_edge_values(tmp_path):
    values = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308, 1 / 3])
    path = tmp_path / "edge.csv"
    write_csv(path, [("a", values), ("b", values[::-1].copy())])
    header, back = read_csv(path)
    assert header == ["a", "b"]
    want = np.column_stack([values, values[::-1]])
    np.testing.assert_array_equal(back.view(np.uint64), want.view(np.uint64))
    assert np.signbit(back[0, 0]) and np.signbit(back[-1, 1])


def test_csv_one_row_zero_width_block_and_line_endings(tmp_path, scenario_factory):
    sc = scenario_factory(INTEGRAL, t_end=0.02, disturbances=((0.0, 0, 0.2),))
    traj = simulate(sc)
    assert traj.psi.shape[1] == 0 and traj.lyapunov is None  # integral has no psi
    one = dataclasses.replace(traj, **{name: getattr(traj, name)[:1] for name in (
        "times", "omega", "p_c", "psi", "x", "s_tilde", "xi", "n_f")})
    path = tmp_path / "one.csv"
    one.to_csv(path)
    raw = path.read_bytes()
    assert b"\r" not in raw and raw.count(b"\n") == 2 and raw.endswith(b"\n")
    back = Trajectory.from_csv(path, scenario=sc)
    assert back.times.shape == (1,) and back.psi.shape == (1, 0)
    for name in ("times", "omega", "p_c", "x", "s_tilde", "xi", "n_f"):
        np.testing.assert_array_equal(getattr(back, name), getattr(one, name))
    assert back.lyapunov is None
    assert list(tmp_path.glob("*.tmp")) == []


def test_failed_csv_write_leaves_no_partial_target(tmp_path):
    column = np.arange(600, dtype=float).astype(object)
    column[400] = "not a number"  # in the second chunk, after the first is written
    kept, absent = tmp_path / "kept.csv", tmp_path / "absent.csv"
    kept.write_text("previous\n")
    for path in (kept, absent):
        with pytest.raises(TypeError):
            write_csv(path, [("a", column)])
    assert kept.read_text() == "previous\n"
    assert not absent.exists()
    assert list(tmp_path.glob("*.tmp")) == []


def test_csv_write_failing_mid_file_leaves_no_partial_target(tmp_path, monkeypatch):
    """The second chunk's formatter raises after the first chunk is written: the
    existing target keeps its bytes, a new one does not appear, no .tmp is left."""
    block = np.linspace(0.0, 1.0, sim_module.CSV_CHUNK_CELLS + 100)  # two chunks
    format_chunk, calls = sim_module.g17_rows, []

    class DiskFull(Exception):
        pass

    def failing_second_call(chunk):
        calls.append(len(chunk))
        if len(calls) == 2:
            raise DiskFull
        return format_chunk(chunk)

    monkeypatch.setattr(sim_module, "g17_rows", failing_second_call)
    kept, absent = tmp_path / "kept.csv", tmp_path / "absent.csv"
    kept.write_bytes(b"previous\n")
    for path in (kept, absent):
        calls.clear()
        with pytest.raises(DiskFull):
            write_csv(path, [("t", block)])
        assert calls == [sim_module.CSV_CHUNK_CELLS, 100]
    assert kept.read_bytes() == b"previous\n"
    assert not absent.exists()
    assert list(tmp_path.glob("*.tmp")) == []


@pytest.mark.parametrize("dtype", [np.int64, np.float32])
def test_csv_write_refuses_a_block_that_is_not_float64(tmp_path, dtype):
    path = tmp_path / "ints.csv"
    with pytest.raises(TypeError, match="float64"):
        write_csv(path, [("t", np.arange(3.0)), ("n", np.arange(3).astype(dtype))])
    assert list(tmp_path.iterdir()) == []


def test_from_csv_reads_the_old_trace_format(tmp_path, scenario_factory):
    """CRLF line ends and repr cells, as csv.writer wrote traces before."""
    traj = simulate(scenario_factory(PRIVACY_PRESERVING, t_end=1.0))
    header = ["t"] + [f"{prefix}_{k}" for prefix, block in (
        ("omega", traj.omega), ("pc", traj.p_c), ("psi", traj.psi), ("x", traj.x),
        ("s_tilde", traj.s_tilde), ("xi", traj.xi), ("nf", traj.n_f))
        for k in range(block.shape[1])] + ["lyapunov"]
    data = np.hstack([traj.times[:, None], traj.omega, traj.p_c, traj.psi, traj.x,
                      traj.s_tilde, traj.xi, traj.n_f, traj.lyapunov[:, None]])
    path = tmp_path / "old.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in data:
            writer.writerow([repr(float(v)) for v in row])
    assert b"\r\n" in path.read_bytes()
    back = Trajectory.from_csv(path)
    for name in ("times", "omega", "p_c", "psi", "x", "s_tilde", "xi", "n_f", "lyapunov"):
        np.testing.assert_array_equal(getattr(back, name), getattr(traj, name))
    assert back.scheme_kind == PRIVACY_PRESERVING


@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_from_csv_rebuilds_every_recorded_field(tmp_path, scenario_factory, kind, stride):
    """Given the scenario, a trace read back equals the run in every field but
    eta and pc_dot; s_tilde, dropped from the file, is rebuilt bit for bit under
    loads at t = 0, on one step, off the grid and at t_end."""
    t_end = 3.03
    sc = scenario_factory(kind, t_end=t_end, disturbances=(
        (0.0, 0, 0.2), (1.0, 1, -0.1), (1.0, 2, 0.1), (3.004, 3, 0.3), (t_end, 0, 0.05)))
    sc.record_stride = stride
    traj = simulate(sc)
    full = tmp_path / "full.csv"
    traj.to_csv(full)
    header, data = read_csv(full)
    path = tmp_path / "no_s_tilde.csv"
    write_csv(path, [(name, data[:, k]) for k, name in enumerate(header)
                     if not name.startswith("s_tilde_")])
    back = Trajectory.from_csv(path, scenario=sc)
    for name in ("times", "omega", "p_c", "psi", "x", "s_tilde", "xi", "n_f", "lyapunov"):
        want, got = getattr(traj, name), getattr(back, name)
        if want is None:
            assert got is None
        else:
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    assert back.scheme_kind == kind
    assert back.eta.shape[1] == back.pc_dot.shape[1] == 0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_trace_columns_hold_what_the_run_sends_or_draws(tmp_path, scenario_factory, kind):
    """Plain traces carry no xi_, nf_ columns, and only primal_dual writes s_tilde_;
    the columns give the scheme kind back, with or without the scenario."""
    sc = scenario_factory(kind, t_end=2.0)
    traj = simulate(sc)
    path = tmp_path / "trace.csv"
    traj.to_csv(path)
    header, _ = read_csv(path)
    prefixes = {name.rsplit("_", 1)[0] for name in header if name[-1].isdigit()}
    assert ("xi" in prefixes, "nf" in prefixes) == (kind == PRIVACY_PRESERVING,) * 2
    assert ("s_tilde" in prefixes) == (kind == PRIMAL_DUAL)
    for scenario in (None, sc):
        back = Trajectory.from_csv(path, scenario=scenario)
        assert back.scheme_kind == kind
    if kind != PRIVACY_PRESERVING:
        assert back.n_f.shape == (len(traj.times), 4) and not back.n_f.flags.writeable
    if kind != PRIMAL_DUAL:
        bare = Trajectory.from_csv(path)
        assert bare.s_tilde.shape == (len(traj.times), 0)
        with pytest.raises(ConfigurationError, match="no prosumption"):
            observer_attack(bare, sc.comm, sc.scheme, KnowledgeSet())
        return
    readout = naive_readout(back)
    np.testing.assert_array_equal(readout, naive_readout(traj))
    np.testing.assert_array_equal(readout, traj.s_tilde)
    np.testing.assert_array_equal(marginal_costs(back, sc.devices),
                                  marginal_costs(traj, sc.devices))


def test_zero_bound_privacy_trace_reads_back_as_the_plain_scheme(tmp_path, scenario_factory):
    zero = np.zeros(4)
    sc = scenario_factory(PRIVACY_PRESERVING, t_end=2.0, beta=zero, beta_hat=zero, xi_max=0.0)
    traj = simulate(sc)
    plain = tmp_path / "plain.csv"
    simulate(scenario_factory(EXTENDED_PRIMAL_DUAL, t_end=2.0)).to_csv(plain)
    path = tmp_path / "zero.csv"
    traj.to_csv(path)
    assert path.read_bytes() == plain.read_bytes()
    back = Trajectory.from_csv(path, scenario=sc)
    assert back.scheme_kind == EXTENDED_PRIMAL_DUAL
    np.testing.assert_array_equal(back.xi, traj.xi)
    np.testing.assert_array_equal(back.n_f, traj.n_f)


def test_from_csv_checks_widths_before_the_rebuild(tmp_path, scenario_factory):
    """A trace of another scenario is named, not broadcast against it."""
    path = tmp_path / "trace.csv"
    simulate(scenario_factory(EXTENDED_PRIMAL_DUAL, t_end=1.0)).to_csv(path)
    other = build_scenario(gen_scenario(RandomScenarioSpec(
        bus_count=3, units_per_bus=(1, 1), t_end=1.0, seed=0)))
    with pytest.raises(ConfigurationError, match=rf"^{re.escape(str(path))}: trajectory "
                                                 "columns do not match"):
        Trajectory.from_csv(path, scenario=other)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_from_csv_takes_the_kind_from_the_trace_not_the_scenario(tmp_path, scenario_factory,
                                                                 kind):
    """The scenario's own scheme kind has no say: each trace is checked and
    rebuilt under the kind its columns show."""
    traj = simulate(scenario_factory(kind, t_end=1.0))
    path = tmp_path / "trace.csv"
    traj.to_csv(path)
    for other in ALL_KINDS:
        back = Trajectory.from_csv(path, scenario=scenario_factory(other, t_end=1.0))
        assert back.scheme_kind == kind
        np.testing.assert_array_equal(back.s_tilde, traj.s_tilde)


def test_one_bus_primal_dual_trace_is_told_by_its_pc_count(tmp_path):
    """Over no lines primal_dual has no psi; its s_tilde columns, which only
    primal_dual writes, tell it from integral, with or without the scenario,
    and given the scenario its one pc column per bus is checked."""
    sc = build_scenario(gen_scenario(RandomScenarioSpec(
        bus_count=1, units_per_bus=(2, 2), scheme_kind=PRIMAL_DUAL, t_end=1.0)))
    traj = simulate(sc)
    path = tmp_path / "trace.csv"
    traj.to_csv(path)
    assert Trajectory.from_csv(path).scheme_kind == PRIMAL_DUAL
    back = Trajectory.from_csv(path, scenario=sc)
    assert back.scheme_kind == PRIMAL_DUAL
    for name in ("p_c", "s_tilde"):
        np.testing.assert_array_equal(getattr(back, name), getattr(traj, name))


def write_earlier_format_trace(path, traj):
    """A trace as csv.writer wrote it before 0.3.0: CRLF line ends, repr cells,
    s_tilde, xi and nf under every scheme, lyapunov for the unit-level ones."""
    blocks = [("omega", traj.omega), ("pc", traj.p_c), ("psi", traj.psi), ("x", traj.x),
              ("s_tilde", traj.s_tilde), ("xi", traj.xi), ("nf", traj.n_f)]
    header = ["t"] + [f"{prefix}_{k}" for prefix, block in blocks
                      for k in range(block.shape[1])]
    data = np.hstack([traj.times[:, None]] + [block for _, block in blocks])
    if traj.lyapunov is not None:
        header.append("lyapunov")
        data = np.hstack([data, traj.lyapunov[:, None]])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) for v in row] for row in data)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_earlier_format_traces_read_back_as_their_own_kinds(tmp_path, scenario_factory, kind):
    """Earlier-format traces hold xi columns under every scheme, so s_tilde alone
    does not make them primal_dual: psi does, and integral stays integral."""
    sc = scenario_factory(kind, t_end=1.0)
    traj = simulate(sc)
    path = tmp_path / "old.csv"
    write_earlier_format_trace(path, traj)
    assert b"\r\n" in path.read_bytes()
    for scenario in (None, sc):
        back = Trajectory.from_csv(path, scenario=scenario)
        assert back.scheme_kind == kind
        for name in ("p_c", "psi", "s_tilde"):
            np.testing.assert_array_equal(getattr(back, name), getattr(traj, name))


def test_earlier_format_one_bus_primal_dual_trace_shows_integral(tmp_path):
    """With no psi and xi columns beside s_tilde, an earlier-format one-bus
    primal_dual trace shows integral; its scenario then rejects the pc count."""
    sc = build_scenario(gen_scenario(RandomScenarioSpec(
        bus_count=1, units_per_bus=(2, 2), scheme_kind=PRIMAL_DUAL, t_end=1.0)))
    path = tmp_path / "old.csv"
    write_earlier_format_trace(path, simulate(sc))
    assert Trajectory.from_csv(path).scheme_kind == INTEGRAL
    with pytest.raises(ConfigurationError, match="do not match the scenario"):
        Trajectory.from_csv(path, scenario=sc)


def test_record_stride(model3, devices4, comm4):
    dense = simulate(make_scenario(model3, devices4, comm4,
                                   EXTENDED_PRIMAL_DUAL, t_end=2.0, dt=0.01))
    sc = make_scenario(model3, devices4, comm4, EXTENDED_PRIMAL_DUAL,
                       t_end=2.0, dt=0.01)
    sc.record_stride = 10
    sparse = simulate(sc)
    assert len(sparse.times) == 21
    np.testing.assert_array_equal(sparse.omega, dense.omega[::10])


def test_load_steps_one_entry_per_first_step(model3, devices4, comm4):
    """Same-time steps merge, an off-grid time acts from the next grid step,
    and a step at t_end reaches the last sample."""
    base = devices4.p_load
    sc = make_scenario(model3, devices4, comm4, EXTENDED_PRIMAL_DUAL, t_end=2.0, dt=0.01,
                       disturbances=((1.0, 0, 0.2), (1.0, 1, -0.1), (1.005, 2, 0.3),
                                     (2.0, 3, 0.05)))
    steps = sc.load_steps()
    assert list(steps) == [0, 100, 101, 200]
    np.testing.assert_array_equal(steps[0], base)
    np.testing.assert_array_equal(steps[100], base + [0.2, -0.1, 0.0, 0.0])
    np.testing.assert_array_equal(steps[101], base + [0.2, -0.1, 0.3, 0.0])
    np.testing.assert_array_equal(steps[200], base + [0.2, -0.1, 0.3, 0.05])
    np.testing.assert_array_equal(sc.final_load(), steps[200])

    at_end = simulate(sc)
    before = simulate(dataclasses.replace(sc, disturbances=sc.disturbances[:3]))
    np.testing.assert_array_equal(at_end.p_c, before.p_c)
    np.testing.assert_array_equal(at_end.s_tilde[:-1], before.s_tilde[:-1])
    np.testing.assert_allclose(at_end.s_tilde[-1] - before.s_tilde[-1], [0.0, 0.0, 0.0, 0.05],
                               rtol=0.0, atol=1e-15)


def test_t_end_must_lie_on_the_sample_grid(model3, devices4, comm4):
    with pytest.raises(ConfigurationError, match="t_end"):
        make_scenario(model3, devices4, comm4, EXTENDED_PRIMAL_DUAL, t_end=10.05, dt=0.1)
    sc = make_scenario(model3, devices4, comm4, EXTENDED_PRIMAL_DUAL, t_end=2.0, dt=0.01)
    with pytest.raises(ConfigurationError, match="t_end"):
        dataclasses.replace(sc, t_end=10.05, record_stride=10)
    strided = dataclasses.replace(sc, record_stride=10)
    traj = simulate(strided)
    assert traj.dt == sc.dt * 10
    np.testing.assert_allclose(np.diff(traj.times), traj.dt, rtol=1e-12)
    assert traj.times[-1] == pytest.approx(sc.t_end, rel=1e-12)


def test_divergence_raises(model3, devices4, comm4):
    sc = make_scenario(model3, devices4, comm4, EXTENDED_PRIMAL_DUAL,
                       t_end=2000.0, dt=10.0, disturbances=((0.0, 0, 0.5),))
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
        simulate(sc)
    err = info.value
    sizes = {"eta": 2, "omega": 3, "x": 2, "p_c": 4, "psi": 3}
    assert err.block in sizes and 0 <= err.index < sizes[err.block]
    assert err.last_finite_time == pytest.approx(err.time - sc.dt)
    assert f"{err.block}[{err.index}]" in str(err)
    # the run up to the last finite time completes
    sc.t_end = err.last_finite_time
    with np.errstate(over="ignore"):  # the Lyapunov column of the huge state
        assert np.isfinite(simulate(sc).p_c).all()


def test_divergence_under_privacy_names_the_state_and_keeps_the_prefix(model3, devices4, comm4):
    """A privacy run that first goes non-finite in the second block of draws."""
    sc = make_scenario(model3, devices4, comm4, PRIVACY_PRESERVING,
                       t_end=1000.0, dt=0.5, disturbances=((0.0, 0, 0.5),))
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
        simulate(sc)
    err = info.value
    assert err.time / sc.dt > getattr(sim_module, "DRAW_BLOCK_ROWS", 64)
    sizes = {"eta": 2, "omega": 3, "x": 2, "p_c": 4, "psi": 3}
    assert err.block in sizes and 0 <= err.index < sizes[err.block]
    assert f"{err.block}[{err.index}]" in str(err)
    assert err.last_finite_time == pytest.approx(err.time - sc.dt)
    with np.errstate(over="ignore", invalid="ignore"):  # the Lyapunov column of the huge state
        longer = simulate(dataclasses.replace(sc, t_end=err.last_finite_time))
        shorter = simulate(dataclasses.replace(sc, t_end=20.0))
    for name in ("omega", "eta", "x", "p_c", "psi", "pc_dot", "xi", "n_f"):
        assert np.isfinite(getattr(longer, name)).all()
    # a run cut short draws the same signals up to its end
    for name in TRAJECTORY_ARRAYS:
        np.testing.assert_array_equal(getattr(shorter, name),
                                      getattr(longer, name)[:len(shorter.times)])


def test_steady_state_metrics(scenario_factory, devices4):
    traj = simulate(scenario_factory(EXTENDED_PRIMAL_DUAL, t_end=30.0))
    m = steady_state_metrics(traj, window=3.0, devices=devices4)
    assert m["max_abs_omega_end"] < SETTLE_THRESHOLD
    assert m["settle_time"] is not None
    assert m["p_c_spread_end"] < 1e-3
    assert m["marginal_cost_spread_end"] < 1e-2
    with pytest.raises(ConfigurationError):
        steady_state_metrics(traj, window=0.0)
    with pytest.raises(ConfigurationError):
        steady_state_metrics(traj, window=1e9)


def test_scenario_validation(model3, devices4, comm4, scenario_factory):
    with pytest.raises(ConfigurationError):
        make_scenario(model3, devices4, comm4, EXTENDED_PRIMAL_DUAL, dt=0.0)
    with pytest.raises(ConfigurationError):
        make_scenario(model3, devices4, comm4, EXTENDED_PRIMAL_DUAL,
                      disturbances=((1.0, 99, 0.1),))
    with pytest.raises(ConfigurationError, match="t_end"):
        make_scenario(model3, devices4, comm4, EXTENDED_PRIMAL_DUAL, t_end=5.0,
                      disturbances=((6.0, 0, 0.1),))


def oracle_scenario(system, kind, scenario_factory):
    """The conftest 3-bus system or a small generated one, 2 s with a load step at 1 s."""
    if system == "3-bus":
        return scenario_factory(kind, t_end=2.0)
    doc = gen_scenario(RandomScenarioSpec(bus_count=3, units_per_bus=(2, 3), t_end=2.0,
                                          seed=system))
    doc["scheme"]["kind"] = kind
    return build_scenario(doc)


def stacked_rhs(sc, op, y, p_load, xi, n_f):
    """The closed loop from the per-stage functions, and their outputs."""
    cfg, devices = sc.scheme, sc.devices
    eta, omega, x, p_c, psi = op.blocks(y)
    u = p_c[devices.bus] if cfg.kind == PRIMAL_DUAL else p_c
    p_M, d_c, s_tilde, net = device_outputs(devices, DeviceState(x), u, omega, p_load)
    eta_dot, omega_dot = swing_rhs(sc.model, PlantState(eta, omega), net)
    x_dot = device_rhs(devices, DeviceState(x), u, omega)
    zeta = devices.bus_sum(s_tilde) if cfg.kind == PRIMAL_DUAL else None
    sr = scheme_rhs(cfg, op.graph, SchemeState(p_c, psi, xi, n_f), devices, s_tilde,
                    omega, zeta)
    dy = np.concatenate([eta_dot, omega_dot, x_dot, sr.pc_dot, sr.psi_dot])
    return dy, {"p_M": p_M, "d_c": d_c, "s_tilde": s_tilde, "pc_dot": sr.pc_dot}


def assert_close(got, want):
    """Within 1e-12 relative to the largest entry compared."""
    np.testing.assert_allclose(got, want, rtol=1e-12,
                               atol=1e-12 * np.abs(want).max(initial=0.0))


ORACLE_SYSTEMS = ["3-bus", 21, 22]


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("system", ORACLE_SYSTEMS)
def test_closed_loop_matches_per_stage_functions(scenario_factory, system, kind):
    sc = oracle_scenario(system, kind, scenario_factory)
    op = ClosedLoop(sc)
    n_units = sc.devices.n_units
    rng = np.random.default_rng(5)
    for _ in range(5):
        y = rng.normal(size=op.size)
        p_load = rng.normal(scale=0.2, size=n_units)
        xi = rng.uniform(0.0, 0.1, n_units)
        n_f = rng.normal(scale=0.01, size=n_units)
        want, _ = stacked_rhs(sc, op, y, p_load, xi, n_f)
        got = op.rhs(y, *op.inputs(p_load, xi, n_f))
        for got_block, want_block in zip(op.blocks(got), op.blocks(want)):
            assert_close(got_block, want_block)


def classic_rk4_step(op, y, b, rho):
    """One classic RK4 step of op.dt from four op.rhs stages."""
    dt = op.dt
    k1 = op.rhs(y, b, rho)
    k2 = op.rhs(y + 0.5 * dt * k1, b, rho)
    k3 = op.rhs(y + 0.5 * dt * k2, b, rho)
    k4 = op.rhs(y + dt * k3, b, rho)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@pytest.mark.parametrize("dt", (0.01, 0.1))
@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("system", ORACLE_SYSTEMS)
def test_step_is_classic_rk4(scenario_factory, system, kind, dt):
    """op.step's Taylor form of RK4 for an input held over the step equals
    the four classic stages: each block of the increment within 1e-12 of its
    largest entry."""
    sc = dataclasses.replace(oracle_scenario(system, kind, scenario_factory), dt=dt)
    op = ClosedLoop(sc)
    n_units = sc.devices.n_units
    rng = np.random.default_rng(6)
    for _ in range(5):
        y = rng.normal(size=op.size)
        p_load = rng.normal(scale=0.2, size=n_units)
        xi = rng.uniform(0.0, 0.1, n_units) * (rng.random(n_units) < 0.5)  # some exactly 0
        n_f = rng.normal(scale=0.01, size=n_units)
        b, rho = op.inputs(p_load, xi, n_f)
        k1, got = op.step(y, b, rho)
        np.testing.assert_array_equal(k1, op.rhs(y, b, rho))
        want = classic_rk4_step(op, y, b, rho)
        for got_block, want_block in zip(op.blocks(got - y), op.blocks(want - y)):
            assert_close(got_block, want_block)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("system", ORACLE_SYSTEMS)
def test_recorded_outputs_match_per_stage_functions(scenario_factory, system, kind):
    sc = oracle_scenario(system, kind, scenario_factory)
    op = ClosedLoop(sc)
    traj = simulate(sc)
    want = {}
    for j, t in enumerate(traj.times):
        p_load = sc.devices.p_load.copy()
        for d in sc.disturbances:
            if d.time <= t + 1e-12:
                p_load[d.unit] += d.delta
        y = np.concatenate([traj.eta[j], traj.omega[j], traj.x[j], traj.p_c[j], traj.psi[j]])
        _, outputs = stacked_rhs(sc, op, y, p_load, traj.xi[j], traj.n_f[j])
        for name, value in outputs.items():
            want.setdefault(name, []).append(value)
    for name in ("s_tilde", "pc_dot"):
        assert_close(getattr(traj, name), np.array(want[name]))
    q, gi, li = sc.devices.cost_q, sc.devices.gen_index, sc.devices.load_index
    mc = marginal_costs(traj, sc.devices)
    assert_close(mc[:, gi], q[gi] * np.abs(np.array(want["p_M"])))
    assert_close(mc[:, li], q[li] * np.abs(np.array(want["d_c"])))
    if kind in (EXTENDED_PRIMAL_DUAL, PRIVACY_PRESERVING):
        per_sample = [lyapunov_value(sc.model, sc.devices, sc.comm, sc.scheme,
                                     traj.equilibrium, traj.eta[j], traj.omega[j],
                                     traj.x[j], traj.p_c[j], traj.psi[j], traj.xi[j])[0]
                      for j in range(len(traj.times))]
        np.testing.assert_allclose(traj.lyapunov, per_sample, rtol=1e-12, atol=0.0)


TRAJECTORY_ARRAYS = ("times", "omega", "eta", "x", "p_c", "psi", "xi", "n_f", "s_tilde",
                     "pc_dot", "lyapunov")
BLOCK = getattr(sim_module, "DRAW_BLOCK_ROWS", 64)


def stepwise_privacy_run(sc):
    """simulate's loop for the privacy scheme with its signals drawn a step
    at a time: refresh_privacy_signals, op.inputs and op.step at every step."""
    model, devices, cfg = sc.model, sc.devices, sc.scheme
    op = ClosedLoop(sc)
    eq0 = _rest_state(sc, op, devices.p_load)
    y = np.concatenate([eq0.eta_star, np.zeros(model.bus_count), eq0.x_star, eq0.p_c_star, eq0.psi_star])
    rng = np.random.default_rng(sc.seed)
    xi = rng.uniform(0.0, cfg.privacy.xi_max / 10.0, devices.n_units)
    xi[cfg.privacy.beta_hat == 0.0] = 0.0
    loads, dt = sc.load_steps(), sc.dt
    n_steps = int(round(sc.t_end / dt))
    rec = {name: [] for name in ("y", "pc_dot", "xi", "n_f", "p_load")}
    for k in range(n_steps + 1):
        if k in loads:
            p_load = loads[k]
        xi, n_f = refresh_privacy_signals(cfg.privacy, xi, devices.bus,
                                          y[op.offsets[1]:op.offsets[2]], dt, rng)
        k1, y_next = op.step(y, *op.inputs(p_load, xi, n_f))
        if k % sc.record_stride == 0:
            for name, value in zip(rec, (y, k1[op.pc], xi, n_f, p_load)):
                rec[name].append(value)
        y = y_next
    rec = {name: np.array(v) for name, v in rec.items()}
    eta, omega, x, p_c, psi = op.blocks(rec["y"])
    final = sc.final_load()
    eq = build_equilibrium(model, devices, sc.comm, solve_kkt(devices, final), final)
    lyap, _ = lyapunov_value(model, devices, sc.comm, cfg, eq, eta, omega, x, p_c, psi, rec["xi"])
    return {"times": np.arange(0, n_steps + 1, sc.record_stride) * dt,
            "omega": omega, "eta": eta, "x": x, "p_c": p_c, "psi": psi,
            "xi": rec["xi"], "n_f": rec["n_f"], "pc_dot": rec["pc_dot"], "lyapunov": lyap,
            "s_tilde": unit_outputs(devices, x, p_c, omega, rec["p_load"])[2]}


def assert_matches_stepwise(sc):
    traj, want = simulate(sc), stepwise_privacy_run(sc)
    for name in TRAJECTORY_ARRAYS:
        np.testing.assert_array_equal(getattr(traj, name), want[name], err_msg=name)
    return traj


def privacy_steps_scenario(scenario_factory, n_steps, stride=1, **kw):
    """n_steps of 10 ms (rounded up to the sample grid), a load step in the
    middle of the first block of draws and unit 1 with beta_hat = 0."""
    n_steps = -(-n_steps // stride) * stride
    sc = scenario_factory(PRIVACY_PRESERVING, t_end=n_steps * 0.01, dt=0.01,
                          disturbances=((0.3, 0, 0.2),),
                          beta_hat=np.array([0.002, 0.0, 0.002, 0.002]), **kw)
    return dataclasses.replace(sc, record_stride=stride)


@pytest.mark.parametrize("stride", (1, 3))
@pytest.mark.parametrize("n_steps", (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1))
def test_block_draws_match_stepwise_draws(scenario_factory, n_steps, stride):
    traj = assert_matches_stepwise(privacy_steps_scenario(scenario_factory, n_steps, stride))
    assert np.all(traj.xi[:, 1] == 0.0) and np.any(traj.xi[:, 0] != traj.xi[0, 0])


def test_block_draws_match_stepwise_draws_when_xi_clamps(scenario_factory):
    xi_max = 1e-4  # the walk's steps, up to 2e-5, reach both bounds
    traj = assert_matches_stepwise(privacy_steps_scenario(
        scenario_factory, 2 * BLOCK + 1, xi_max=xi_max, seed=1))
    live = traj.xi[:, [0, 2, 3]]
    assert (live == 0.0).any() and (live == xi_max).any()


@pytest.mark.parametrize("block", (1, 7))
def test_block_draws_match_stepwise_draws_for_any_block_length(
        monkeypatch, scenario_factory, block):
    monkeypatch.setattr(sim_module, "DRAW_BLOCK_ROWS", block, raising=False)
    for stride in (1, 3):
        assert_matches_stepwise(privacy_steps_scenario(scenario_factory, 45, stride))


def test_negative_zero_xi_max_runs_as_zero_bit_for_bit():
    """-0.0 passes xi_max's >= 0 check; it must not reach xi's initial draw as a
    negative range, and the run must equal the xi_max = 0 run."""
    doc = gen_scenario(RandomScenarioSpec(bus_count=3, t_end=2.0, seed=1))
    runs = []
    for xi_max in (-0.0, 0):
        doc["scheme"]["privacy"]["xi_max"] = xi_max
        sc = build_scenario(doc)
        assert not np.signbit(sc.scheme.privacy.xi_max)
        runs.append(simulate(sc))
    for field in dataclasses.fields(runs[0]):
        a, b = (getattr(run, field.name) for run in runs)
        if isinstance(a, np.ndarray):
            assert a.tobytes() == b.tobytes(), field.name
