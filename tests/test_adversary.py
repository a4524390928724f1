import dataclasses
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gridpriv
from gridpriv import (
    Graph,
    KnowledgeSet,
    RandomScenarioSpec,
    build_scenario,
    gen_scenario,
    naive_readout,
    observer_attack,
    origin_detection,
    simulate,
)
import gridpriv.adversary as adversary_module
import gridpriv.sim as sim_module
from gridpriv.adversary import CENTRAL_DIFF, EXACT_DERIV, FORWARD_DIFF
from gridpriv.devices import unit_outputs
from gridpriv.errors import ConfigurationError
from gridpriv.schemes import (
    EXTENDED_PRIMAL_DUAL,
    INTEGRAL,
    PRIMAL_DUAL,
    PRIVACY_PRESERVING,
    UNIT_CONSENSUS_KINDS,
)
from gridpriv.sim import ClosedLoop, Trajectory
from tests.conftest import ALL_KINDS, make_scenario
from tests.reference_dynamics import incidence, inputs


@pytest.fixture
def epd_run(scenario_factory, comm4):
    sc = scenario_factory(EXTENDED_PRIMAL_DUAL, t_end=15.0)
    return sc, simulate(sc)


@pytest.fixture
def pp_run(scenario_factory):
    sc = scenario_factory(PRIVACY_PRESERVING, t_end=15.0)
    return sc, simulate(sc)


def test_naive_readout_only_leaks_bus_level_scheme(scenario_factory):
    pd = simulate(scenario_factory(PRIMAL_DUAL, t_end=2.0))
    leaked = naive_readout(pd)
    np.testing.assert_array_equal(leaked, pd.s_tilde)
    epd = simulate(scenario_factory(EXTENDED_PRIMAL_DUAL, t_end=2.0))
    assert naive_readout(epd) is None


def test_exact_observer_is_algebraic_identity(epd_run):
    sc, traj = epd_run
    report = observer_attack(traj, sc.comm, sc.scheme, KnowledgeSet(),
                             deriv=EXACT_DERIV)
    assert report.rmse_transient < 1e-9
    assert report.rmse_steady < 1e-9


def test_finite_difference_observer_recovers_prosumption(epd_run):
    sc, traj = epd_run
    report = observer_attack(traj, sc.comm, sc.scheme, KnowledgeSet(),
                             deriv=CENTRAL_DIFF)
    scale = np.abs(traj.s_tilde).max()
    assert report.rmse_transient < 0.02 * scale
    # the residual is integration error accrued during the transient
    assert report.rmse_steady < 0.01 * scale


def test_forward_difference_worse_than_central(epd_run):
    sc, traj = epd_run
    fwd = observer_attack(traj, sc.comm, sc.scheme, KnowledgeSet(), deriv=FORWARD_DIFF)
    ctr = observer_attack(traj, sc.comm, sc.scheme, KnowledgeSet(), deriv=CENTRAL_DIFF)
    assert ctr.rmse_transient <= fwd.rmse_transient


def test_privacy_scheme_defeats_observer(epd_run, pp_run):
    sc_e, traj_e = epd_run
    sc_p, traj_p = pp_run
    base = observer_attack(traj_e, sc_e.comm, sc_e.scheme, KnowledgeSet())
    attacked = observer_attack(traj_p, sc_p.comm, sc_p.scheme, KnowledgeSet())
    assert attacked.rmse_transient > 3.0 * base.rmse_transient


def test_privacy_beta_sweep_degrades_attack(model3, devices4, comm4):
    """Larger noise bounds hurt the observer (majority over seeds)."""
    wins = 0
    seeds = range(5)
    for seed in seeds:
        rmses = []
        for scale in (0.1, 1.0):
            sc = make_scenario(model3, devices4, comm4, PRIVACY_PRESERVING,
                               seed=seed, t_end=10.0,
                               beta=np.full(4, 0.004 * scale),
                               beta_hat=np.zeros(4), xi_max=0.0)
            traj = simulate(sc)
            r = observer_attack(traj, sc.comm, sc.scheme, KnowledgeSet())
            rmses.append(r.rmse_transient)
        wins += rmses[1] > rmses[0]
    assert wins >= 4


def test_partial_knowledge_flags_warning(epd_run):
    sc, traj = epd_run
    k = KnowledgeSet(observed_channels=[0, 1])
    report = observer_attack(traj, sc.comm, sc.scheme, k)
    assert any("unobserved" in w for w in report.warnings)
    full = observer_attack(traj, sc.comm, sc.scheme, KnowledgeSet())
    assert report.rmse_transient >= full.rmse_transient


def test_exact_observer_needs_every_channel(epd_run):
    """The stored derivatives and consensus states hold every unit, so a partial
    mask would be ignored; it is refused instead."""
    sc, traj = epd_run
    with pytest.raises(ConfigurationError, match="needs every channel observed"):
        observer_attack(traj, sc.comm, sc.scheme, KnowledgeSet([0]), deriv=EXACT_DERIV)


@pytest.mark.parametrize("units_per_bus", [(2, 3), (1, 1)])
def test_observer_refuses_a_primal_dual_run(units_per_bus):
    """A primal_dual run has one command per bus, so there is nothing per unit to
    invert: at 11 units the widths differ, and at one unit per bus, where they
    agree, the run's kind alone refuses it."""
    sc = build_scenario(gen_scenario(RandomScenarioSpec(
        bus_count=4, units_per_bus=units_per_bus, t_end=2.0, seed=3, scheme_kind=PRIMAL_DUAL)))
    traj = simulate(sc)
    assert traj.p_c.shape[1] == 4 and sc.devices.n_units == (11 if units_per_bus[0] == 2 else 4)
    for deriv in (CENTRAL_DIFF, EXACT_DERIV):
        with pytest.raises(ConfigurationError, match="a primal_dual trace has one pc column "
                                                     "per bus, the attack needs one per unit"):
            observer_attack(traj, sc.comm, sc.scheme, KnowledgeSet(), deriv=deriv)


def test_observer_refuses_a_graph_of_another_width(epd_run):
    """Four units' commands under a three-node consensus graph."""
    sc, traj = epd_run
    with pytest.raises(ConfigurationError, match="trajectory columns do not match the attack: "
                                                 "4 pc columns, the graph has 3 nodes"):
        observer_attack(traj, Graph(3, ((0, 1), (1, 2))), sc.scheme, KnowledgeSet())


@pytest.mark.parametrize("deriv", [CENTRAL_DIFF, EXACT_DERIV])
def test_observer_refuses_consensus_states_of_another_graph(epd_run, monkeypatch, deriv):
    """Three psi columns under a four-edge graph are refused before any work,
    rather than integrated from zero in place of the trace's first sample."""
    def no_work(*args):
        raise AssertionError("the attack reconstructed s_hat before checking psi")

    monkeypatch.setattr(adversary_module, "_reconstruct", no_work)
    sc, traj = epd_run
    comm = Graph(4, sc.comm.edges + ((0, 3),))
    with pytest.raises(ConfigurationError, match="trajectory columns do not match the attack: "
                                                 "3 psi columns, the graph has 4 edges"):
        observer_attack(traj, comm, sc.scheme, KnowledgeSet(), deriv=deriv)


def test_observer_checks_its_derivative_before_any_work(epd_run, monkeypatch):
    """An unknown estimator, or the exact one on a trace without stored
    derivatives (one that holds no scenario to derive them from), fails
    before the consensus states are integrated."""
    def no_work(*args):
        raise AssertionError("the attack integrated psi before checking deriv")

    monkeypatch.setattr(adversary_module, "_integrate_psi", no_work)
    sc, traj = epd_run
    with pytest.raises(ConfigurationError, match="unknown derivative estimator 'backward'"):
        observer_attack(traj, sc.comm, sc.scheme, KnowledgeSet(), deriv="backward")
    stripped = dataclasses.replace(traj, scenario=None)
    with pytest.raises(ConfigurationError, match="no stored derivatives"):
        observer_attack(stripped, sc.comm, sc.scheme, KnowledgeSet(), deriv=EXACT_DERIV)


def test_exact_attack_refuses_a_run_without_consensus_states(monkeypatch):
    """An integral run records no psi, which the exact attack adds to gamma
    pc_dot: it is refused by name before any work, and the central attack,
    which integrates psi from the commands, still runs."""
    sc = build_scenario(gen_scenario(RandomScenarioSpec(
        bus_count=4, t_end=2.0, seed=7, scheme_kind=INTEGRAL)))
    traj = simulate(sc)
    assert traj.psi.shape[1] == 0 < sc.comm.edge_count
    with monkeypatch.context() as patched:
        patched.setattr(adversary_module, "_reconstruct", lambda *args: pytest.fail("work done"))
        with pytest.raises(ConfigurationError, match="the exact-derivative attack needs the "
                                                     "recorded consensus states"):
            observer_attack(traj, sc.comm, sc.scheme, KnowledgeSet(), deriv=EXACT_DERIV)
    report = observer_attack(traj, sc.comm, sc.scheme, KnowledgeSet(), deriv=CENTRAL_DIFF)
    assert np.isfinite(report.rmse_transient)


def test_observed_mask_accepts_numpy_channels():
    mask = KnowledgeSet(observed_channels=np.array([0, 2])).observed_mask(4)
    np.testing.assert_array_equal(mask, [True, False, True, False])
    assert KnowledgeSet().observed_mask(3).all()


@pytest.mark.parametrize("channel", [-1, 4, 10])
def test_observed_mask_rejects_channels_outside_the_units(channel):
    with pytest.raises(ConfigurationError, match=rf"channel {channel} is not a unit index"):
        KnowledgeSet(observed_channels=[0, channel]).observed_mask(4)


@pytest.mark.parametrize("channel", [1.5, True, np.float64(2.0), np.bool_(True)])
def test_observed_mask_rejects_channels_that_are_not_integers(channel):
    """A bool would index the whole mask and a float would raise numpy's IndexError."""
    with pytest.raises(ConfigurationError, match=rf"channel {channel} is not a unit index"):
        KnowledgeSet(observed_channels=[0, channel]).observed_mask(4)


def reference_attack(traj, comm, cfg, mask, deriv):
    """The observer written out with whole-array temporaries: (s_hat, rmse)."""
    dt, H = traj.dt, incidence(comm)
    pc = np.where(mask[None, :], traj.p_c, 0.0)
    if deriv == FORWARD_DIFF:
        pc_dot = np.empty_like(pc)
        pc_dot[:-1] = (pc[1:] - pc[:-1]) / dt
        pc_dot[-1] = pc_dot[-2]
    else:
        pc_dot = np.gradient(pc, dt, axis=0)
    rhs = (pc @ H) / cfg.gamma_psi
    psi0 = traj.psi[0]
    psi = np.vstack([psi0, psi0 + np.cumsum(0.5 * dt * (rhs[1:] + rhs[:-1]), axis=0)])
    s_hat = cfg.gamma * pc_dot + psi @ H.T
    return s_hat, np.sqrt(np.mean((s_hat - traj.s_tilde) ** 2))


@pytest.mark.parametrize("deriv", [CENTRAL_DIFF, FORWARD_DIFF])
@pytest.mark.parametrize("channels", ["all", [0, 1], [0, 2, 3]])
def test_observer_matches_whole_array_reference(pp_run, deriv, channels):
    sc, traj = pp_run
    knowledge = KnowledgeSet(observed_channels=channels)
    report = observer_attack(traj, sc.comm, sc.scheme, knowledge, deriv=deriv)
    mask = knowledge.observed_mask(4)
    s_hat, rmse = reference_attack(traj, sc.comm, sc.scheme, mask, deriv)
    np.testing.assert_array_equal(report.s_hat, s_hat)
    assert report.rmse_transient == pytest.approx(rmse, rel=1e-14)


def truncated(traj, samples):
    """The first `samples` samples of a trajectory."""
    return dataclasses.replace(traj, **{f.name: getattr(traj, f.name)[:samples]
                                        for f in dataclasses.fields(traj)
                                        if isinstance(getattr(traj, f.name), np.ndarray)})


@pytest.mark.parametrize("samples", [2, 7, 100, None])
@pytest.mark.parametrize("block_cells", [1, 12, 28])
@pytest.mark.parametrize("deriv,channels", [(CENTRAL_DIFF, "all"), (CENTRAL_DIFF, [0, 2, 3]),
                                            (FORWARD_DIFF, "all"), (FORWARD_DIFF, [1]),
                                            (EXACT_DERIV, "all")])
def test_observer_blocks_match_whole_array_reference(pp_run, monkeypatch, samples, block_cells,
                                                     deriv, channels):
    """With blocks of one row, or of 3 and 7 rows of the 4 units, the trace ends
    inside a block (7, 100 and 1501 samples) or is shorter than one (2), and the
    carried-over integral still gives the whole-array estimate."""
    monkeypatch.setattr(sim_module, "BLOCK_CELLS", block_cells)
    sc, traj = pp_run
    traj = truncated(traj, samples)
    knowledge = KnowledgeSet(observed_channels=channels)
    report = observer_attack(traj, sc.comm, sc.scheme, knowledge, deriv=deriv)
    if deriv == EXACT_DERIV:
        s_hat = sc.scheme.gamma * traj.pc_dot + traj.psi @ incidence(sc.comm).T
    else:
        s_hat = reference_attack(traj, sc.comm, sc.scheme, knowledge.observed_mask(4), deriv)[0]
    err = s_hat - traj.s_tilde
    times = traj.times
    tail = times >= times[-1] - max(traj.dt, 0.05 * (times[-1] - times[0]))
    np.testing.assert_allclose(report.s_hat, s_hat, rtol=1e-12, atol=1e-12 * np.abs(s_hat).max())
    assert report.rmse_transient == pytest.approx(np.sqrt(np.mean(err**2)), rel=1e-12)
    assert report.rmse_steady == pytest.approx(
        np.sqrt(np.mean(err[tail].mean(axis=0) ** 2)), rel=1e-12)


def strided_load_steps(scenario_factory, kind):
    """0.6 s recorded every third 10 ms step, 21 samples, with load steps that
    act from sample 4 (at 0.1 s, between two samples), from sample 7 (at
    0.205 s, off the step grid) and at t_end."""
    sc = scenario_factory(kind, t_end=0.6, disturbances=(
        (0.1, 0, 0.2), (0.205, 2, -0.1), (0.6, 3, 0.05)))
    return dataclasses.replace(sc, record_stride=3)


@pytest.mark.parametrize("block_cells", [4, 12, 28])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_derived_rows_are_the_runs_outputs(scenario_factory, monkeypatch, kind, block_cells):
    """s_tilde and pc_dot read in the observer's blocks (4, 12 and 28 cells of
    the commands, with load steps inside them) equal the whole-trace reads
    and, bit for bit, each sample's unit_outputs and command rows of op.rhs
    at the recorded state, load, xi and n_f."""
    monkeypatch.setattr(sim_module, "BLOCK_CELLS", block_cells)
    sc = strided_load_steps(scenario_factory, kind)
    traj, op = simulate(sc), ClosedLoop(sc)
    want = {"s_tilde": [], "pc_dot": []}
    for j, t in enumerate(traj.times):
        p_load = sc.devices.p_load.copy()
        for d in sc.disturbances:
            if d.time <= t + 1e-12:
                p_load[d.unit] += d.delta
        y = np.concatenate([traj.eta[j], traj.omega[j], traj.x[j], traj.p_c[j], traj.psi[j]])
        want["pc_dot"].append(op.rhs(y, *inputs(sc, op, p_load, traj.xi[j], traj.n_f[j]))[op.pc])
        u = traj.p_c[j][sc.devices.bus] if kind == PRIMAL_DUAL else traj.p_c[j]
        want["s_tilde"].append(unit_outputs(sc.devices, traj.x[j], u, traj.omega[j], p_load)[2])
    blocks = sim_module.row_blocks(*traj.p_c.shape)
    assert len(traj.times) == 21 and len(blocks) >= 3
    for name, rows in (("s_tilde", [traj.s_tilde_at(r) for r in blocks]),
                       ("pc_dot", [traj.pc_dot_at(r) for r in blocks])):
        got, whole = np.concatenate(list(rows)), getattr(traj, name)
        np.testing.assert_array_equal(got.view(np.uint64), whole.view(np.uint64))
        np.testing.assert_array_equal(whole.view(np.uint64), np.array(want[name]).view(np.uint64))


def assert_row_blocks_cover(samples, width):
    """row_blocks covers [0, samples) once, in order, in slices of at most
    max(1, BLOCK_CELLS // width) rows."""
    blocks = sim_module.row_blocks(samples, width)
    assert [i for rows in blocks for i in range(samples)[rows]] == list(range(samples))
    most = max(1, sim_module.BLOCK_CELLS // width)
    assert all(rows.step is None and 0 < rows.stop - rows.start <= most for rows in blocks)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_block_size_changes_no_output_bit(scenario_factory, monkeypatch, tmp_path, kind):
    """Blocks of 1, 7 and 64 cells and the default one give the same trace
    bytes, Lyapunov column, s_tilde and pc_dot, s_tilde rebuilt from the file,
    and observer estimates, bit for bit, on a strided trace with load steps
    inside its blocks. Only the RMSEs, sums of per-block partial sums, may
    move, within 1e-12."""
    sc = strided_load_steps(scenario_factory, kind)
    op = ClosedLoop(sc)
    runs = []
    for cells in (1, 7, 64, sim_module.BLOCK_CELLS):
        monkeypatch.setattr(sim_module, "BLOCK_CELLS", cells)
        traj = simulate(sc)
        path = tmp_path / f"{cells}.csv"
        traj.to_csv(path)
        width = len(path.read_text().split("\n", 1)[0].split(","))
        for samples, w in ((21, width), (21, op.size), (21, sc.devices.n_units),
                           (21, op.command_entries[2].size), (0, 3), (5, 1 << 20)):
            assert_row_blocks_cover(samples, w)
        got = {"csv": path.read_bytes(), "lyapunov": traj.lyapunov, "s_tilde": traj.s_tilde,
               "pc_dot": traj.pc_dot, "file s_tilde": Trajectory.from_csv(path, sc).s_tilde}
        rmse = []
        if kind in UNIT_CONSENSUS_KINDS:
            for deriv in (CENTRAL_DIFF, EXACT_DERIV):
                report = observer_attack(traj, sc.comm, sc.scheme, KnowledgeSet(), deriv=deriv)
                got[f"{deriv} s_hat"] = report.s_hat
                rmse += [report.rmse_transient, report.rmse_steady]
        runs.append((got, rmse))
    (want, want_rmse), rest = runs[0], runs[1:]
    assert len(traj.times) == 21 and np.abs(want["pc_dot"]).max() > 0
    for got, rmse in rest:
        assert got.keys() == want.keys()
        for name, value in want.items():
            if isinstance(value, np.ndarray):
                np.testing.assert_array_equal(got[name].view(np.uint64), value.view(np.uint64),
                                              err_msg=name)
            else:
                assert got[name] == value, name
        assert rmse == pytest.approx(want_rmse, rel=1e-12)


@pytest.mark.parametrize("block_cells", [4, 12, 28])
@pytest.mark.parametrize("deriv,channels", [(CENTRAL_DIFF, "all"), (CENTRAL_DIFF, [0, 2, 3]),
                                            (FORWARD_DIFF, "all"), (FORWARD_DIFF, [1]),
                                            (EXACT_DERIV, "all")])
@pytest.mark.parametrize("kind", [EXTENDED_PRIMAL_DUAL, PRIVACY_PRESERVING])
def test_observer_blocks_across_load_steps_match_whole_array_reference(
        scenario_factory, monkeypatch, kind, deriv, channels, block_cells):
    """The attack on a strided trace with load steps inside its blocks, which
    it reads s_tilde and pc_dot from a block at a time, gives the whole-array
    estimate and errors."""
    monkeypatch.setattr(sim_module, "BLOCK_CELLS", block_cells)
    sc = strided_load_steps(scenario_factory, kind)
    traj = simulate(sc)
    knowledge = KnowledgeSet(observed_channels=channels)
    report = observer_attack(traj, sc.comm, sc.scheme, knowledge, deriv=deriv)
    if deriv == EXACT_DERIV:
        s_hat = sc.scheme.gamma * traj.pc_dot + traj.psi @ incidence(sc.comm).T
    else:
        s_hat = reference_attack(traj, sc.comm, sc.scheme, knowledge.observed_mask(4), deriv)[0]
    err = s_hat - traj.s_tilde
    tail = traj.times >= traj.times[-1] - max(traj.dt, 0.05 * (traj.times[-1] - traj.times[0]))
    np.testing.assert_allclose(report.s_hat, s_hat, rtol=1e-12, atol=1e-12 * np.abs(s_hat).max())
    assert report.rmse_transient == pytest.approx(np.sqrt(np.mean(err**2)), rel=1e-12)
    assert report.rmse_steady == pytest.approx(
        np.sqrt(np.mean(err[tail].mean(axis=0) ** 2)), rel=1e-12)


def test_observer_without_targets_is_lean_and_equals_all_targets(monkeypatch):
    """Besides the s_hat it returns, the attack holds one block of samples: a few
    arrays of the block's rows by units or edges, and numpy's ufunc buffers for
    the whole-trace operations on strided trace columns. It never forms the
    dense incidence. Blocks of 2^10 cells split the 501-sample trace in 63."""
    monkeypatch.setattr(sim_module, "BLOCK_CELLS", 1 << 10)
    sc = build_scenario(gen_scenario(RandomScenarioSpec(bus_count=30, t_end=5.0, seed=2)))
    traj = simulate(sc)
    n = sc.devices.n_units
    tracemalloc.start()
    try:
        plain = observer_attack(traj, sc.comm, sc.scheme, KnowledgeSet())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = 8 * (sim_module.BLOCK_CELLS // n) * (n + sc.comm.edge_count)
    assert peak <= traj.p_c.nbytes + 4 * block + 2 * 8 * np.getbufsize()
    assert plain.s_hat.shape == traj.s_tilde.shape
    assert plain.to_dict()["target_units"] == list(range(n))


@pytest.mark.parametrize("deriv,channels", [(CENTRAL_DIFF, "all"), (FORWARD_DIFF, [0, 2])])
def test_observer_holds_only_blocks(monkeypatch, deriv, channels):
    """The attack folds each block of its estimate into the RMSEs and drops
    it: its peak is a few blocks and numpy's ufunc buffers, with no term that
    grows with the sample count. The report derives s_hat on its first read,
    not in to_dict: bit for bit the estimate at the default block size, and
    the whole-array one within the last bits that its BLAS sums over the
    dense incidence round differently at 120 units."""
    sc = build_scenario(gen_scenario(RandomScenarioSpec(bus_count=30, t_end=5.0, seed=2)))
    traj = simulate(sc)
    n = sc.devices.n_units
    knowledge = KnowledgeSet(observed_channels=channels)
    with monkeypatch.context() as patched:
        patched.setattr(sim_module, "BLOCK_CELLS", 1 << 10)
        tracemalloc.start()
        try:
            report = observer_attack(traj, sc.comm, sc.scheme, knowledge, deriv=deriv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = 8 * (sim_module.BLOCK_CELLS // n) * (n + sc.comm.edge_count)
        assert 8 * len(traj.times) * n > 4 * block + 2 * 8 * np.getbufsize()
        assert peak <= 4 * block + 2 * 8 * np.getbufsize()
        assert report.to_dict()["target_units"] == list(range(n))
        assert "s_hat" not in vars(report)  # not derived until read
        s_hat = report.s_hat
    default = observer_attack(traj, sc.comm, sc.scheme, knowledge, deriv=deriv).s_hat
    np.testing.assert_array_equal(s_hat.view(np.uint64), default.view(np.uint64))
    whole = reference_attack(traj, sc.comm, sc.scheme, knowledge.observed_mask(n), deriv)[0]
    np.testing.assert_allclose(s_hat, whole, rtol=1e-12, atol=1e-12 * np.abs(whole).max())


ATTACK_SCRIPT = """
import hashlib, pathlib, pickle, sys
from gridpriv import KnowledgeSet, observer_attack
for traj, comm, cfg in pickle.loads(pathlib.Path(sys.argv[1]).read_bytes()):
    r = observer_attack(traj, comm, cfg, KnowledgeSet())
    print(r.rmse_transient.hex(), r.rmse_steady.hex(), hashlib.sha256(r.s_hat.tobytes()).hexdigest())
"""


def test_observer_report_does_not_depend_on_the_blas_thread_count(tmp_path):
    """The same privacy traces attacked at one and at two OpenBLAS threads give the
    same bits, because the attack calls no BLAS routine. On the 40-bus trace a
    BLAS dot product of the whole error rounds differently at the two counts."""
    runs = []
    for buses, t_end in ((10, 30.0), (40, 10.0)):
        sc = build_scenario(gen_scenario(RandomScenarioSpec(
            bus_count=buses, t_end=t_end, seed=7, scheme_kind=PRIVACY_PRESERVING)))
        runs.append((simulate(sc), sc.comm, sc.scheme))
    path = tmp_path / "runs.pkl"
    path.write_bytes(pickle.dumps(runs))
    src = str(Path(gridpriv.__file__).parents[1])
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-c", ATTACK_SCRIPT, str(path)], env=env,
                              capture_output=True, text=True, check=True, timeout=300)
        out.append(done.stdout.split())
    assert len(out[0]) == 6
    assert out[0] == out[1]


def test_origin_detection_finds_disturbed_unit(scenario_factory):
    for unit in range(4):
        sc = scenario_factory(EXTENDED_PRIMAL_DUAL, t_end=6.0,
                              disturbances=((1.0, unit, 0.3),))
        traj = simulate(sc)
        ranking, energy = origin_detection(traj, 1.0, window=2.0)
        assert ranking[0] == unit
        assert energy[unit] == max(energy)


def test_origin_detection_window_validation(epd_run):
    _, traj = epd_run
    with pytest.raises(ConfigurationError):
        origin_detection(traj, -5.0)
    with pytest.raises(ConfigurationError):
        origin_detection(traj, traj.times[-1] - 0.5, window=2.0)


def test_report_serializes(epd_run):
    sc, traj = epd_run
    report = observer_attack(traj, sc.comm, sc.scheme, KnowledgeSet(),
                             disturbance_time=1.0)
    doc = report.to_dict()
    assert set(doc) >= {"target_units", "rmse_transient", "rmse_steady",
                        "origin_ranking", "warnings"}
    assert doc["origin_ranking"] is not None
