import csv
import dataclasses
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
from gridpriv.errors import ConfigurationError, DivergenceError
from gridpriv.schemes import (
    EXTENDED_PRIMAL_DUAL,
    INTEGRAL,
    PRIMAL_DUAL,
    PRIVACY_PRESERVING,
)
from gridpriv.sim import (
    SETTLE_THRESHOLD,
    Disturbance,
    Trajectory,
    closed_loop,
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
    state_size, n = closed_loop(sc).size, sc.devices.n_units
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
    traj = simulate(scenario_factory(PRIVACY_PRESERVING, t_end=2.0))
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    back = Trajectory.from_csv(path)
    np.testing.assert_array_equal(back.times, traj.times)
    for name in ("omega", "p_c", "psi", "x", "s_tilde", "xi", "n_f", "lyapunov"):
        np.testing.assert_array_equal(getattr(back, name), getattr(traj, name))
    header = path.read_text().splitlines()[0].split(",")
    assert header[0] == "t"
    assert "omega_0" in header and "pc_0" in header and "psi_0" in header
    assert "x_0" in header and "s_tilde_0" in header
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
    traj = simulate(scenario_factory(INTEGRAL, t_end=0.02, disturbances=((0.0, 0, 0.2),)))
    assert traj.psi.shape[1] == 0 and traj.lyapunov is None  # integral has no psi
    one = dataclasses.replace(traj, **{name: getattr(traj, name)[:1] for name in (
        "times", "omega", "p_c", "psi", "x", "s_tilde", "xi", "n_f")})
    path = tmp_path / "one.csv"
    one.to_csv(path)
    raw = path.read_bytes()
    assert b"\r" not in raw and raw.count(b"\n") == 2 and raw.endswith(b"\n")
    back = Trajectory.from_csv(path)
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


def test_from_csv_reads_the_old_trace_format(tmp_path, scenario_factory):
    """CRLF line ends and repr cells, as csv.writer wrote traces before."""
    traj = simulate(scenario_factory(PRIVACY_PRESERVING, t_end=1.0))
    traj.to_csv(tmp_path / "new.csv")
    header, _ = read_csv(tmp_path / "new.csv")
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
    op = closed_loop(sc)
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


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("system", ORACLE_SYSTEMS)
def test_recorded_outputs_match_per_stage_functions(scenario_factory, system, kind):
    sc = oracle_scenario(system, kind, scenario_factory)
    op = closed_loop(sc)
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
