import numpy as np
import pytest

from gridpriv import (
    DeviceSet,
    Graph,
    NetworkModel,
    build_equilibrium,
    solve_kkt,
)
from gridpriv.devices import DeviceState, bus_injection, device_outputs, device_rhs
from gridpriv.equilibrium import lyapunov_value
from gridpriv.errors import ConfigurationError, InfeasibilityError
from gridpriv.network import PlantState, dc_power_flow, swing_rhs
from gridpriv.scenario import RandomScenarioSpec, build_scenario, gen_scenario
from gridpriv.schemes import EXTENDED_PRIMAL_DUAL, SchemeState, scheme_rhs
from tests.conftest import make_scheme, padded
from tests.reference_dynamics import incidence, laplacian


def dispatch_oracle(q, is_gen, total_load, mask, iters=4000):
    """Projected gradient descent on the dispatch problem, one case per row.

    Row k minimizes 0.5 * sum q z^2 over the per-unit outputs z in mask[k]
    subject to the balance constraint a^T z = total_load[k] with a = +1 for
    generators, -1 for loads and 0 on the padding, where z stays 0. Each
    iterate takes a gradient step and re-projects onto the constraint.
    """
    n = mask.sum(axis=1)
    a = np.where(mask, np.where(is_gen, 1.0, -1.0), 0.0)
    a_sum = a.sum(axis=1)
    start = np.divide(total_load, a_sum, out=np.zeros_like(a_sum), where=np.abs(a_sum) > 1e-12)
    z = np.where(mask, start[:, None], 0.0)
    z += a * ((total_load - (a * z).sum(axis=1)) / n)[:, None]
    step = 1.0 / q.max(axis=1, keepdims=True)
    for _ in range(iters):
        z = z - step * q * z
        z = z + a * ((total_load - (a * z).sum(axis=1)) / n)[:, None]
    lam_est = np.where(is_gen, -q * z, q * z).sum(axis=1) / n
    return z, lam_est


def test_kkt_hand_values(devices4):
    sol = solve_kkt(devices4)
    # lambda = -sum(p_load)/sum(1/q) = -0.3/0.0475 = -120/19
    assert sol.lam == pytest.approx(-120.0 / 19.0, rel=1e-12)
    np.testing.assert_allclose(sol.p_M_star, [-sol.lam / 100.0, -sol.lam / 50.0])
    np.testing.assert_allclose(sol.d_c_star, [sol.lam / 200.0, sol.lam / 80.0])
    assert sol.total_cost == pytest.approx(342.0 / 361.0, rel=1e-12)


def test_kkt_marginal_costs_equalized(devices4):
    sol = solve_kkt(devices4)
    q = devices4.cost_q
    mc = np.concatenate([
        q[devices4.gen_index] * np.abs(sol.p_M_star),
        q[devices4.load_index] * np.abs(sol.d_c_star),
    ])
    np.testing.assert_allclose(mc, abs(sol.lam), rtol=1e-12)


def test_kkt_against_gradient_oracle():
    rng = np.random.default_rng(2024)
    cases = []
    for _ in range(100):
        n = int(rng.integers(2, 10))
        q = rng.uniform(50.0, 250.0, n)
        is_gen = rng.random(n) < 0.5
        is_gen[0] = True
        p_load = rng.uniform(-0.2, 0.4, n)
        bus = np.zeros(n, dtype=int)
        devices = DeviceSet(bus, is_gen, np.ones(n), q, p_load, bus_count=1)
        cases.append((q, is_gen, p_load, solve_kkt(devices)))
    q, mask = padded([c[0] for c in cases])
    is_gen, _ = padded([c[1] for c in cases])
    z, lam_est = dispatch_oracle(q, is_gen, np.array([c[2].sum() for c in cases]), mask)
    for k, (_, gen, _, sol) in enumerate(cases):
        zk = z[k, mask[k]]
        scale = 1.0 + abs(sol.lam)
        assert abs(sol.lam - lam_est[k]) < 1e-6 * scale
        np.testing.assert_allclose(sol.p_M_star, zk[gen], atol=1e-6 * scale)
        np.testing.assert_allclose(sol.d_c_star, zk[~gen], atol=1e-6 * scale)


def test_equilibrium_is_closed_loop_fixed_point(model3, devices4, comm4):
    kkt = solve_kkt(devices4)
    eq = build_equilibrium(model3, devices4, comm4, kkt)
    np.testing.assert_allclose(eq.p_c_star, -kkt.lam)
    # prosumption balances and the consensus system is consistent
    assert abs(eq.s_tilde_star.sum()) < 1e-12
    np.testing.assert_allclose(incidence(comm4) @ eq.psi_star, eq.s_tilde_star,
                               atol=1e-9)
    # every derivative vanishes at the equilibrium
    omega = np.zeros(3)
    p_M, d_c, s_tilde, net = device_outputs(devices4, DeviceState(eq.x_star),
                                            eq.p_c_star, omega)
    np.testing.assert_allclose(s_tilde, eq.s_tilde_star, atol=1e-12)
    eta_dot, omega_dot = swing_rhs(model3, PlantState(eq.eta_star, omega), net)
    np.testing.assert_allclose(eta_dot, 0.0, atol=1e-12)
    np.testing.assert_allclose(omega_dot, 0.0, atol=1e-9)
    np.testing.assert_allclose(
        device_rhs(devices4, DeviceState(eq.x_star), eq.p_c_star, omega), 0.0,
        atol=1e-12)
    cfg = make_scheme(EXTENDED_PRIMAL_DUAL, 4, 3)
    psi_dot, pc_dot, _ = scheme_rhs(cfg, comm4, SchemeState(eq.p_c_star, eq.psi_star,
                                                            np.zeros(4), np.zeros(4)),
                                    devices4, s_tilde, omega)
    np.testing.assert_allclose(pc_dot, 0.0, atol=1e-9)
    np.testing.assert_allclose(psi_dot, 0.0, atol=1e-9)


def test_edge_flows_match_min_norm_lstsq(model3, devices4):
    """psi* is the minimum-norm solution of H psi = s and eta* the grounded DC
    power flow, on trees, meshed graphs, an antiparallel pair and one node."""
    cases = []
    for buses, style in ((4, "tree"), (10, "tree"), (200, "tree"), (10, "random")):
        sc = build_scenario(gen_scenario(RandomScenarioSpec(
            bus_count=buses, comm_style=style, edge_prob=0.3, t_end=5.0, seed=buses)))
        cases.append((sc.model, sc.devices, sc.comm))
    assert cases[-1][2].edge_count > 2 * cases[-1][2].node_count  # meshed
    cases.append((model3, devices4, Graph(4, ((0, 1), (1, 0), (1, 2), (3, 2)))))
    one_bus = NetworkModel(1, (), np.zeros(0), np.array([2.0]), np.array([1.0]))
    one_unit = DeviceSet(np.array([0]), np.array([True]), np.ones(1), np.array([100.0]),
                         np.array([0.3]), bus_count=1)
    cases.append((one_bus, one_unit, Graph(1, ())))

    rng = np.random.default_rng(5)
    for model, devices, comm in cases:
        p_load = rng.uniform(-0.2, 0.4, devices.n_units)
        kkt = solve_kkt(devices, p_load)
        eq = build_equilibrium(model, devices, comm, kkt, p_load)
        s = eq.s_tilde_star
        oracle, _, _, _ = np.linalg.lstsq(incidence(comm), s, rcond=None)
        assert eq.psi_star.shape == (comm.edge_count,)
        assert np.abs(eq.psi_star - oracle).max(initial=0.0) <= 1e-12 * (1.0 + np.abs(s).max())

        injection = bus_injection(devices, kkt.p_M_star, kkt.d_c_star, p_load)
        L = laplacian(model)
        theta = np.zeros(model.bus_count)
        theta[1:] = np.linalg.solve(L[1:, 1:], injection[1:])
        theta_dc, eta_dc = dc_power_flow(model, injection)
        np.testing.assert_array_equal(eta_dc, eq.eta_star)
        tol = 1e-12 * (1.0 + np.abs(injection).max())
        assert np.abs(theta_dc - theta).max() <= tol
        assert np.abs(eta_dc - incidence(model.graph).T @ theta).max(initial=0.0) <= tol


def test_lyapunov_zero_at_equilibrium_positive_elsewhere(model3, devices4, comm4):
    kkt = solve_kkt(devices4)
    eq = build_equilibrium(model3, devices4, comm4, kkt)
    cfg = make_scheme(EXTENDED_PRIMAL_DUAL, 4, 3)
    v0, comps = lyapunov_value(model3, devices4, comm4, cfg, eq,
                               eq.eta_star, np.zeros(3), eq.x_star,
                               eq.p_c_star, eq.psi_star)
    assert v0 == pytest.approx(0.0, abs=1e-18)
    assert set(comps) == {"V_F", "V_P", "V_C", "V_psi", "V_M"}
    rng = np.random.default_rng(9)
    v1, _ = lyapunov_value(model3, devices4, comm4, cfg, eq,
                           eq.eta_star + rng.normal(size=2),
                           rng.normal(size=3), eq.x_star + rng.normal(size=2),
                           eq.p_c_star + rng.normal(size=4),
                           eq.psi_star + rng.normal(size=3))
    assert v1 > 0.0


def test_lyapunov_matches_naive_recompute(model3, devices4, comm4):
    """Cross-check the vectorized evaluation against an explicit loop."""
    kkt = solve_kkt(devices4)
    eq = build_equilibrium(model3, devices4, comm4, kkt)
    cfg = make_scheme(EXTENDED_PRIMAL_DUAL, 4, 3)
    rng = np.random.default_rng(17)
    eta = rng.normal(size=2)
    omega = rng.normal(size=3)
    x = rng.normal(size=2)
    p_c = rng.normal(size=4)
    psi = rng.normal(size=3)
    total, _ = lyapunov_value(model3, devices4, comm4, cfg, eq,
                              eta, omega, x, p_c, psi)
    v = 0.0
    for j in range(3):
        v += 0.5 * model3.inertia[j] * omega[j] ** 2
    for e in range(2):
        v += 0.5 * model3.susceptance[e] * (eta[e] - eq.eta_star[e]) ** 2
    for k in range(4):
        v += 0.5 * cfg.gamma[k] * (p_c[k] - eq.p_c_star[k]) ** 2
    for e in range(3):
        v += 0.5 * cfg.gamma_psi[e] * (psi[e] - eq.psi_star[e]) ** 2
    for idx, g in enumerate(devices4.gen_index):
        v += devices4.tau[g] / (2.0 * devices4.droop_m[g]) * (x[idx] - eq.x_star[idx]) ** 2
    assert total == pytest.approx(v, rel=1e-12)


def test_lyapunov_rejects_other_schemes(model3, devices4, comm4):
    kkt = solve_kkt(devices4)
    eq = build_equilibrium(model3, devices4, comm4, kkt)
    cfg = make_scheme("integral", 4, 3)
    with pytest.raises(ConfigurationError):
        lyapunov_value(model3, devices4, comm4, cfg, eq,
                       eq.eta_star, np.zeros(3), eq.x_star, eq.p_c_star, eq.psi_star)


def test_equilibrium_refuses_a_dispatch_for_another_load(devices4, model3, comm4):
    """A dispatch solved for one load does not balance another: its
    prosumption sums to the load difference, and the rest state is refused."""
    other = devices4.p_load + np.array([0.1, 0.0, 0.0, 0.0])
    with pytest.raises(InfeasibilityError, match=r"equilibrium prosumption does not balance "
                                                 r"\(sum -1\.000e-01\)"):
        build_equilibrium(model3, devices4, comm4, solve_kkt(devices4, other), devices4.p_load)
    build_equilibrium(model3, devices4, comm4, solve_kkt(devices4, other), other)
