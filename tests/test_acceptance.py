"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line for its criterion. Expensive
simulations are shared through module-scoped fixtures: one 10-bus,
40-unit scenario run under all four schemes, and 20 seeded pairs of
plain/privacy consensus runs on smaller random systems.
"""

import copy
import json
from time import perf_counter

import numpy as np
import pytest

from gridpriv import (
    DeviceSet,
    KnowledgeSet,
    observer_attack,
    simulate,
    solve_kkt,
)
from gridpriv.adversary import CENTRAL_DIFF, EXACT_DERIV
from gridpriv.scenario import RandomScenarioSpec, build_scenario, gen_scenario
from gridpriv.schemes import (
    EXTENDED_PRIMAL_DUAL,
    INTEGRAL,
    PRIMAL_DUAL,
    PRIVACY_PRESERVING,
    SCHEME_KINDS,
    check_design_condition,
    max_feasible_beta,
)
from gridpriv.sim import SETTLE_THRESHOLD, steady_state_metrics
from tests.conftest import padded


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def big_runs():
    """The reference scenario: 10 buses, 4 units per bus, 0.2 pu step,
    120 simulated seconds at dt = 10 ms, run under all four schemes."""
    doc = gen_scenario(RandomScenarioSpec(
        bus_count=10, units_per_bus=(4, 4), disturbance_magnitude=0.2,
        t_end=120.0, dt=0.01, seed=7,
    ))
    runs = {}
    for kind in SCHEME_KINDS:
        variant = copy.deepcopy(doc)
        variant["scheme"]["kind"] = kind
        sc = build_scenario(variant)
        t0 = perf_counter()
        traj = simulate(sc)
        runs[kind] = (sc, traj, perf_counter() - t0)
    sc = runs[INTEGRAL][0]
    lam = solve_kkt(sc.devices, sc.final_load()).lam
    return runs, lam


N_SEEDS = 20


@pytest.fixture(scope="module")
def paired_runs():
    """20 seeded pairs of plain / privacy consensus runs on small random
    systems (same scenario and seed within a pair)."""
    pairs = []
    for seed in range(N_SEEDS):
        doc = gen_scenario(RandomScenarioSpec(
            bus_count=4, units_per_bus=(2, 3), t_end=15.0, seed=100 + seed,
        ))
        pair = {}
        for kind in (EXTENDED_PRIMAL_DUAL, PRIVACY_PRESERVING):
            variant = copy.deepcopy(doc)
            variant["scheme"]["kind"] = kind
            sc = build_scenario(variant)
            pair[kind] = (sc, simulate(sc))
        pairs.append(pair)
    return pairs


# ---------------------------------------------------------------- criteria

def test_criterion_1_kkt_oracle_equivalence():
    """solve_kkt matches a projected-gradient solver on 100 random device
    sets within 1e-6 relative, in under 10 seconds."""
    t0 = perf_counter()
    rng = np.random.default_rng(1)
    cases = []
    for _ in range(100):
        n = int(rng.integers(2, 12))
        q = rng.uniform(50.0, 250.0, n)
        is_gen = rng.random(n) < 0.5
        is_gen[int(rng.integers(0, n))] = True
        p_load = rng.uniform(-0.3, 0.5, n)
        devices = DeviceSet(np.zeros(n, dtype=int), is_gen, np.ones(n), q, p_load, bus_count=1)
        cases.append((q, is_gen, p_load, solve_kkt(devices)))
    # projected gradient descent on the dispatch quadratic, one case per row;
    # a is 0 on the padding, where z stays 0
    q, mask = padded([c[0] for c in cases])
    is_gen, _ = padded([c[1] for c in cases])
    n = mask.sum(axis=1)
    a = np.where(mask, np.where(is_gen, 1.0, -1.0), 0.0)
    r = np.array([c[2].sum() for c in cases])
    z = a * (r / n)[:, None]
    step = 1.0 / q.max(axis=1, keepdims=True)
    for _ in range(4000):
        z = z - step * q * z
        z = z + a * ((r - (a * z).sum(axis=1)) / n)[:, None]
    lam_est = np.where(is_gen, -q * z, q * z).sum(axis=1) / n
    worst = 0.0
    for k, (_, gen, _, sol) in enumerate(cases):
        zk = z[k, mask[k]]
        scale = max(1e-9, abs(sol.lam))
        err = abs(sol.lam - lam_est[k]) / scale
        err = max(err, np.max(np.abs(sol.p_M_star - zk[gen]), initial=0.0) / scale)
        err = max(err, np.max(np.abs(sol.d_c_star - zk[~gen]), initial=0.0) / scale)
        worst = max(worst, err)
    elapsed = perf_counter() - t0
    report(1, worst < 1e-6 and elapsed < 10.0,
           f"worst relative error {worst:.2e}, {elapsed:.1f}s for 100 instances")


def test_criterion_2_frequency_restoration(big_runs):
    runs, _ = big_runs
    details = []
    ok = True
    for kind in SCHEME_KINDS:
        sc, traj, wall = runs[kind]
        m = steady_state_metrics(traj, window=10.0)
        good = m["max_abs_omega_end"] < SETTLE_THRESHOLD and wall < 60.0
        ok &= good
        details.append(f"{kind}: |omega|_end={m['max_abs_omega_end']:.2e}, {wall:.1f}s")
    report(2, ok, "; ".join(details))


def test_criterion_3_optimal_allocation(big_runs):
    runs, lam = big_runs
    details = []
    ok = True
    for kind in (PRIMAL_DUAL, EXTENDED_PRIMAL_DUAL, PRIVACY_PRESERVING):
        sc, traj, _ = runs[kind]
        m = steady_state_metrics(traj, window=10.0, devices=sc.devices)
        spread = m["marginal_cost_spread_end"]
        good = spread < 1e-3 * abs(lam)
        ok &= good
        details.append(f"{kind} spread={spread:.2e}")
    sc, traj, _ = runs[INTEGRAL]
    m = steady_state_metrics(traj, window=10.0, devices=sc.devices)
    integral_spread = m["marginal_cost_spread_end"]
    ok &= integral_spread > 1e-2 * abs(lam)
    details.append(f"integral spread={integral_spread:.2e} (must exceed "
                   f"{1e-2 * abs(lam):.2e})")
    report(3, ok, "; ".join(details))


def test_criterion_4_consensus(big_runs):
    runs, lam = big_runs
    details = []
    ok = True
    for kind, spread_tol, value_tol in (
        (EXTENDED_PRIMAL_DUAL, 1e-4 * (1.0 + abs(lam)), 1e-3),
        (PRIVACY_PRESERVING, 5e-3 * (1.0 + abs(lam)), 5e-3),
    ):
        sc, traj, _ = runs[kind]
        m = steady_state_metrics(traj, window=10.0)
        spread = m["p_c_spread_end"]
        value_err = abs(m["p_c_mean_end"] - (-lam))
        good = spread < spread_tol and value_err < value_tol
        ok &= good
        details.append(f"{kind}: spread={spread:.2e} (tol {spread_tol:.1e}), "
                       f"|mean+lambda|={value_err:.2e} (tol {value_tol:.0e})")
    report(4, ok, "; ".join(details))


def _lyapunov_violations(sc, traj):
    v = traj.lyapunov
    slack = np.full(len(v) - 1, 1e-7 * (1.0 + v[0]))
    if sc.scheme.kind == PRIVACY_PRESERVING:
        # the gain random walk moves the command weight by at most
        # safety*beta_hat*dt per unit and step, growing V by up to
        # 0.5 * sum_j dxi_j * (pc_j - pc*_j)^2
        priv = sc.scheme.privacy
        d_pc = traj.p_c - traj.equilibrium.p_c_star
        extra = 0.5 * priv.safety * sc.dt * (d_pc**2 @ priv.beta_hat)
        slack = slack + extra[:-1]
    return int(np.sum(np.diff(v) > slack))


def test_criterion_5_lyapunov_monotonicity(paired_runs):
    violations = {EXTENDED_PRIMAL_DUAL: 0, PRIVACY_PRESERVING: 0}
    for pair in paired_runs:
        for kind in violations:
            sc, traj = pair[kind]
            violations[kind] += _lyapunov_violations(sc, traj)
    ok = all(v == 0 for v in violations.values())
    report(5, ok, f"per-step violations over {N_SEEDS} runs each: "
                  f"plain={violations[EXTENDED_PRIMAL_DUAL]}, "
                  f"privacy={violations[PRIVACY_PRESERVING]}")


def test_criterion_6_design_condition_verifier():
    rng = np.random.default_rng(6)
    n = 10_000
    h = rng.uniform(1e-3, 0.05, n)
    d_over_n = rng.uniform(0.01, 2.0, n)
    beta_hat = rng.uniform(0.0, 3.0, n) * h
    beta = rng.uniform(0.0, 0.2, n)
    feasible, _ = check_design_condition(h, d_over_n, beta, beta_hat)
    M = np.zeros((n, 2, 2))
    M[:, 0, 0] = -h - d_over_n
    M[:, 0, 1] = M[:, 1, 0] = h + beta / 2.0
    M[:, 1, 1] = -h + beta_hat / 2.0
    oracle = np.all(np.linalg.eigvalsh(M) <= 0.0, axis=1)
    mismatches = int(np.sum(feasible != oracle))

    # analytic boundary: determinant vanishes at max_feasible_beta
    sel = beta_hat < 1.8 * h
    b = max_feasible_beta(h[sel], d_over_n[sel], beta_hat[sel])
    det = (-h[sel] - d_over_n[sel]) * (-h[sel] + beta_hat[sel] / 2.0) \
        - (h[sel] + b / 2.0) ** 2
    boundary_err = float(np.abs(det).max())
    ok = mismatches == 0 and boundary_err < 1e-9
    report(6, ok, f"{mismatches} mismatches on {n} tuples, "
                  f"max |det| at boundary {boundary_err:.1e}")


def test_criterion_7_privacy_contrast(paired_runs):
    ratios = []
    exact_worst = 0.0
    for pair in paired_runs:
        sc_e, traj_e = pair[EXTENDED_PRIMAL_DUAL]
        sc_p, traj_p = pair[PRIVACY_PRESERVING]
        base = observer_attack(traj_e, sc_e.comm, sc_e.scheme, KnowledgeSet(),
                               deriv=CENTRAL_DIFF)
        attacked = observer_attack(traj_p, sc_p.comm, sc_p.scheme, KnowledgeSet(),
                                   deriv=CENTRAL_DIFF)
        ratios.append(attacked.rmse_transient / base.rmse_transient)
        exact = observer_attack(traj_e, sc_e.comm, sc_e.scheme, KnowledgeSet(),
                                deriv=EXACT_DERIV)
        exact_worst = max(exact_worst, exact.rmse_transient)
    median_ratio = float(np.median(ratios))
    ok = median_ratio >= 5.0 and exact_worst < 1e-9
    report(7, ok, f"median rmse ratio {median_ratio:.1f} over {N_SEEDS} seeds "
                  f"(min {min(ratios):.1f}), exact-derivative rmse {exact_worst:.1e}")


def test_criterion_8_privacy_bound_compliance(paired_runs, big_runs):
    runs, _ = big_runs
    traces = [pair[PRIVACY_PRESERVING] for pair in paired_runs]
    traces.append(runs[PRIVACY_PRESERVING][:2])
    bad = 0
    total = 0
    for sc, traj in traces:
        priv = sc.scheme.privacy
        omega_at_unit = np.abs(traj.omega[:, sc.devices.bus])
        nf_ok = (np.abs(traj.n_f) < priv.beta * omega_at_unit) | (traj.n_f == 0.0)
        dxi = np.abs(np.diff(traj.xi, axis=0)) / sc.dt
        dxi_ok = (dxi < priv.beta_hat) | (dxi == 0.0)
        xi_ok = traj.xi >= 0.0
        bad += int((~nf_ok).sum() + (~dxi_ok).sum() + (~xi_ok).sum())
        total += nf_ok.size + dxi_ok.size + xi_ok.size
    report(8, bad == 0, f"{bad} bound violations over {total} recorded samples "
                        f"in {len(traces)} runs")


def test_criterion_9_determinism(tmp_path):
    doc = gen_scenario(RandomScenarioSpec(bus_count=4, units_per_bus=(2, 3),
                                          t_end=10.0, seed=21))
    paths = []
    for name in ("a.csv", "b.csv"):
        traj = simulate(build_scenario(doc))
        p = tmp_path / name
        traj.to_csv(p)
        paths.append(p)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    report(9, identical, f"trajectory.csv byte-identical across re-runs: {identical}")


def test_criterion_10_reduction_property(tmp_path):
    doc = gen_scenario(RandomScenarioSpec(bus_count=4, units_per_bus=(2, 3),
                                          t_end=10.0, seed=22))
    plain = copy.deepcopy(doc)
    plain["scheme"]["kind"] = EXTENDED_PRIMAL_DUAL
    degenerate = copy.deepcopy(doc)
    degenerate["scheme"]["kind"] = PRIVACY_PRESERVING
    n = len(doc["devices"])
    degenerate["scheme"]["privacy"] = {"beta": [0.0] * n, "beta_hat": [0.0] * n,
                                       "xi_max": 0.0, "safety": 0.999}
    for name, variant in (("plain.csv", plain), ("degenerate.csv", degenerate)):
        simulate(build_scenario(variant)).to_csv(tmp_path / name)
    identical = (tmp_path / "plain.csv").read_bytes() == \
        (tmp_path / "degenerate.csv").read_bytes()
    report(10, identical,
           f"zero-noise privacy run bit-identical to plain scheme: {identical}")
