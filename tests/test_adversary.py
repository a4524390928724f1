import tracemalloc

import numpy as np
import pytest

from gridpriv import (
    KnowledgeSet,
    RandomScenarioSpec,
    build_scenario,
    gen_scenario,
    naive_readout,
    observer_attack,
    origin_detection,
    simulate,
)
from gridpriv.adversary import CENTRAL_DIFF, EXACT_DERIV, FORWARD_DIFF
from gridpriv.errors import ConfigurationError
from gridpriv.schemes import EXTENDED_PRIMAL_DUAL, PRIMAL_DUAL, PRIVACY_PRESERVING
from tests.conftest import make_scenario


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
    report = observer_attack(traj, sc.comm, sc.scheme, k, target_units=[3])
    assert any("unobserved" in w for w in report.warnings)
    full = observer_attack(traj, sc.comm, sc.scheme, KnowledgeSet(), target_units=[3])
    assert report.rmse_transient >= full.rmse_transient


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


def reference_attack(traj, comm, cfg, mask, targets, deriv):
    """The observer written out with whole-array temporaries: (s_hat, rmse)."""
    dt, H = traj.dt, comm.incidence
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
    s_hat = (cfg.gamma * pc_dot + psi @ H.T)[:, targets]
    return s_hat, np.sqrt(np.mean((s_hat - traj.s_tilde[:, targets]) ** 2))


@pytest.mark.parametrize("deriv", [CENTRAL_DIFF, FORWARD_DIFF])
@pytest.mark.parametrize("channels, targets", [("all", None), ([0, 1], [3]), ([0, 2, 3], [1, 2])])
def test_observer_matches_whole_array_reference(pp_run, deriv, channels, targets):
    sc, traj = pp_run
    knowledge = KnowledgeSet(observed_channels=channels)
    report = observer_attack(traj, sc.comm, sc.scheme, knowledge, deriv=deriv,
                             target_units=targets)
    mask = knowledge.observed_mask(4)
    want = np.arange(4) if targets is None else targets
    s_hat, rmse = reference_attack(traj, sc.comm, sc.scheme, mask, want, deriv)
    np.testing.assert_array_equal(report.s_hat, s_hat)
    assert report.rmse_transient == pytest.approx(rmse, rel=1e-14)


def test_observer_without_targets_is_lean_and_equals_all_targets():
    sc = build_scenario(gen_scenario(RandomScenarioSpec(bus_count=30, t_end=5.0, seed=2)))
    traj = simulate(sc)
    n = sc.devices.n_units
    tracemalloc.start()
    try:
        plain = observer_attack(traj, sc.comm, sc.scheme, KnowledgeSet())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * traj.p_c.size * 8  # at most three (samples x units) arrays
    listed = observer_attack(traj, sc.comm, sc.scheme, KnowledgeSet(), target_units=np.arange(n))
    np.testing.assert_array_equal(plain.s_hat, listed.s_hat)
    assert plain.rmse_transient == pytest.approx(listed.rmse_transient, rel=1e-15, abs=0)
    assert plain.rmse_steady == listed.rmse_steady


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
