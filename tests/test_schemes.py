import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridpriv import Graph, PrivacyParams, SchemeConfig
from gridpriv.errors import ConfigurationError, InfeasibilityError
from gridpriv.schemes import (
    EXTENDED_PRIMAL_DUAL,
    INTEGRAL,
    PRIMAL_DUAL,
    PRIVACY_PRESERVING,
    SchemeState,
    check_design_condition,
    design_condition_report,
    draw_privacy_block,
    max_feasible_beta,
    privacy_noise,
    refresh_privacy_signals,
    scheme_rhs,
)
from tests.conftest import make_scheme
from tests.reference_dynamics import incidence


def test_comm_graph_incidence():
    g = Graph(3, ((0, 1), (1, 2)))
    np.testing.assert_array_equal(incidence(g), [[1, 0], [-1, 1], [0, -1]])
    assert g.edge_count == 2


def test_comm_graph_rejects_disconnected():
    with pytest.raises(ConfigurationError, match="not connected"):
        Graph(4, ((0, 1), (2, 3)))
    with pytest.raises(ConfigurationError):
        Graph(2, ((0, 0),))


def test_integral_rhs_hand_values(devices4):
    cfg = make_scheme(INTEGRAL, 4, 0, integral_gain=200.0)
    state = SchemeState(np.array([0.1, 0.2, 0.3, 0.4]), np.zeros(0),
                        np.zeros(4), np.zeros(4))
    omega = np.array([0.05, -0.02, 0.01])
    _, pc_dot, u = scheme_rhs(cfg, None, state, devices4, np.zeros(4), omega)
    expect = -(200.0 / devices4.cost_q) * omega[devices4.bus]
    np.testing.assert_allclose(pc_dot, expect)
    np.testing.assert_array_equal(u, state.p_c)


def test_primal_dual_rhs_hand_values(devices4):
    graph = Graph(3, ((0, 1), (1, 2)))
    cfg = SchemeConfig(PRIMAL_DUAL, np.full(3, 0.04), np.full(2, 0.03))
    p_c = np.array([1.0, 2.0, 3.0])
    psi = np.array([0.5, -0.5])
    state = SchemeState(p_c, psi, np.zeros(4), np.zeros(4))
    zeta = np.array([0.2, -0.1, 0.3])
    psi_dot, pc_dot, u = scheme_rhs(cfg, graph, state, devices4, np.zeros(4), np.zeros(3),
                                    zeta)
    np.testing.assert_allclose(psi_dot, (incidence(graph).T @ p_c) / 0.03)
    np.testing.assert_allclose(pc_dot, (zeta - incidence(graph) @ psi) / 0.04)
    # units see their bus command
    np.testing.assert_array_equal(u, p_c[devices4.bus])


def test_primal_dual_requires_zeta(devices4):
    graph = Graph(3, ((0, 1), (1, 2)))
    cfg = SchemeConfig(PRIMAL_DUAL, np.full(3, 0.04), np.full(2, 0.03))
    state = SchemeState(np.zeros(3), np.zeros(2), np.zeros(4), np.zeros(4))
    with pytest.raises(ConfigurationError, match="zeta"):
        scheme_rhs(cfg, graph, state, devices4, np.zeros(4), np.zeros(3))


def test_unit_level_rhs_identity(devices4, comm4):
    """The command derivative satisfies (gamma + xi) pc_dot = s - H psi + n_f
    and the speed-modulation signal is n_d = -xi pc_dot."""
    cfg = make_scheme(PRIVACY_PRESERVING, 4, 3)
    rng = np.random.default_rng(0)
    state = SchemeState(rng.normal(size=4), rng.normal(size=3),
                        rng.uniform(0, 0.3, 4), rng.normal(size=4) * 1e-3)
    s = rng.normal(size=4)
    _, pc_dot, _ = scheme_rhs(cfg, comm4, state, devices4, s, np.zeros(3))
    H = incidence(comm4)
    lhs = (cfg.gamma + state.xi) * pc_dot
    np.testing.assert_allclose(lhs, s - H @ state.psi + state.n_f_held, atol=1e-14)
    n_d = -state.xi * pc_dot
    # equivalent formulation: gamma pc_dot = s - H psi + n_f + n_d
    np.testing.assert_allclose(cfg.gamma * pc_dot,
                               s - H @ state.psi + state.n_f_held + n_d,
                               atol=1e-14)


def test_extended_pd_equals_privacy_with_zero_signals(devices4, comm4):
    rng = np.random.default_rng(1)
    p_c, psi, s = rng.normal(size=4), rng.normal(size=3), rng.normal(size=4)
    epd = make_scheme(EXTENDED_PRIMAL_DUAL, 4, 3)
    pp = make_scheme(PRIVACY_PRESERVING, 4, 3)
    st_epd = SchemeState(p_c, psi, np.zeros(4), np.zeros(4))
    st_pp = SchemeState(p_c, psi, np.zeros(4), np.zeros(4))
    a_psi_dot, a_pc_dot, _ = scheme_rhs(epd, comm4, st_epd, devices4, s, np.zeros(3))
    b_psi_dot, b_pc_dot, _ = scheme_rhs(pp, comm4, st_pp, devices4, s, np.zeros(3))
    np.testing.assert_array_equal(a_pc_dot, b_pc_dot)
    np.testing.assert_array_equal(a_psi_dot, b_psi_dot)


def test_refresh_privacy_bounds():
    params = PrivacyParams(beta=np.array([0.01, 0.0]), beta_hat=np.array([0.005, 0.0]),
                           xi_max=0.2)
    rng = np.random.default_rng(7)
    xi = np.array([0.1, 0.0])
    bus = np.array([0, 1])
    omega = np.array([0.3, -0.4])
    dt = 0.01
    for _ in range(500):
        xi_new, n_f = refresh_privacy_signals(params, xi, bus, omega, dt, rng)
        assert np.all(np.abs(xi_new - xi) <= params.beta_hat * dt + 1e-15)
        assert np.all(xi_new >= 0.0) and np.all(xi_new <= params.xi_max)
        assert np.all(np.abs(n_f) <= params.beta * np.abs(omega[bus]))
        # degenerate unit stays silent
        assert n_f[1] == 0.0 and xi_new[1] == 0.0
        xi = xi_new


def test_refresh_privacy_zero_frequency_gives_zero_noise():
    params = PrivacyParams(beta=np.array([0.01]), beta_hat=np.array([0.0]), xi_max=0.1)
    _, n_f = refresh_privacy_signals(params, np.zeros(1), np.array([0]),
                                     np.zeros(1), 0.01, np.random.default_rng(0))
    assert n_f[0] == 0.0
    assert not np.signbit(n_f[0])  # -0.0 is normalized away


def test_refresh_privacy_deterministic():
    params = PrivacyParams(beta=np.full(3, 0.02), beta_hat=np.full(3, 0.01), xi_max=0.5)
    args = (params, np.zeros(3), np.arange(3), np.array([0.1, 0.2, 0.3]), 0.01)
    a = refresh_privacy_signals(*args, np.random.default_rng(42))
    b = refresh_privacy_signals(*args, np.random.default_rng(42))
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


@pytest.mark.parametrize("rows", (1, 5, 64))
def test_block_draw_equals_stepwise_refreshes(rows):
    """One block of draws gives, bit for bit, the xi and n_f that `rows`
    refreshes on a generator with the same seed give."""
    params = PrivacyParams(beta=np.array([0.01, 0.02, 0.0]),
                           beta_hat=np.array([0.5, 0.0, 0.3]), xi_max=0.004)
    bus, dt = np.array([0, 1, 1]), 0.01
    omegas = np.random.default_rng(3).normal(scale=0.1, size=(rows, 2))
    omegas[0, 0] = -0.0
    xi0 = np.array([0.001, 0.0, 0.003])
    rng = np.random.default_rng(9)
    xi, stepwise = xi0, []
    for omega in omegas:
        xi, n_f = refresh_privacy_signals(params, xi, bus, omega, dt, rng)
        stepwise.append((xi, n_f))
    xi_rows, draws = draw_privacy_block(params, xi0, dt, np.random.default_rng(9), rows)
    assert xi_rows.shape == draws.shape == (rows, 3)
    for r, (xi, n_f) in enumerate(stepwise):
        np.testing.assert_array_equal(xi_rows[r].view(np.uint64), xi.view(np.uint64))
        block_n_f = privacy_noise(params, draws[r], omegas[r][bus])
        np.testing.assert_array_equal(block_n_f.view(np.uint64), n_f.view(np.uint64))
    if rows == 64:  # the walk reached both bounds
        assert (xi_rows == 0.0).any() and (xi_rows == params.xi_max).any()
    # each step takes its xi-increment draw, then its n_f draw
    raw = np.random.default_rng(9)
    u_xi, u_f = raw.uniform(-1.0, 1.0, 3), raw.uniform(-1.0, 1.0, 3)
    xi = np.clip(xi0 + u_xi * (params.safety * params.beta_hat * dt), 0.0, params.xi_max)
    n_f = u_f * (params.safety * params.beta * np.abs(omegas[0][bus])) + 0.0
    np.testing.assert_array_equal(stepwise[0][0], xi)
    np.testing.assert_array_equal(stepwise[0][1], n_f)


def _design_matrix(h, d_over_n, beta, beta_hat):
    return np.array([
        [-h - d_over_n, h + beta / 2.0],
        [h + beta / 2.0, -h + beta_hat / 2.0],
    ])


def test_design_condition_report_needs_privacy_parameters(model3, devices4):
    with pytest.raises(ConfigurationError, match="scenario has no privacy parameters"):
        design_condition_report(devices4, model3, None)


def test_design_condition_against_eigenvalue_oracle():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        h = rng.uniform(1e-3, 0.05)
        d_over_n = rng.uniform(0.05, 1.5)
        beta_hat = rng.uniform(0.0, 3.0 * h)
        beta = rng.uniform(0.0, 0.2)
        feasible, eigs = check_design_condition(h, d_over_n, beta, beta_hat)
        M = _design_matrix(h, d_over_n, beta, beta_hat)
        oracle = bool(np.all(np.linalg.eigvalsh(M) <= 0.0))
        assert bool(feasible) == oracle
        np.testing.assert_allclose(np.sort(eigs), np.linalg.eigvalsh(M), atol=1e-12)


def test_max_feasible_beta_boundary():
    rng = np.random.default_rng(5)
    for _ in range(200):
        h = rng.uniform(2e-3, 0.05)
        d_over_n = rng.uniform(0.05, 1.5)
        beta_hat = rng.uniform(0.0, 1.8 * h)
        b = float(max_feasible_beta(h, d_over_n, beta_hat))
        det = np.linalg.det(_design_matrix(h, d_over_n, b, beta_hat))
        assert abs(det) < 1e-9
        if b <= 0.0:
            # no admissible noise bound at all: even beta = 0 fails
            bad0, _ = check_design_condition(h, d_over_n, 0.0, beta_hat)
            assert not bool(bad0)
            continue
        ok, _ = check_design_condition(h, d_over_n, max(b - 1e-6, 0.0), beta_hat)
        bad, _ = check_design_condition(h, d_over_n, b + 1e-6, beta_hat)
        assert bool(ok) and not bool(bad)


def test_max_feasible_beta_requires_small_beta_hat():
    with pytest.raises(InfeasibilityError):
        max_feasible_beta(0.01, 0.5, 0.02)


@settings(max_examples=100, deadline=None)
@given(st.floats(1e-3, 0.05), st.floats(0.01, 2.0), st.floats(0.0, 0.3),
       st.floats(0.0, 0.2))
def test_design_condition_matches_oracle_property(h, d_over_n, beta, beta_hat):
    feasible, _ = check_design_condition(h, d_over_n, beta, beta_hat)
    M = _design_matrix(h, d_over_n, beta, beta_hat)
    assert bool(feasible) == bool(np.all(np.linalg.eigvalsh(M) <= 0.0))


def test_scheme_config_validation():
    with pytest.raises(ConfigurationError):
        SchemeConfig("nonsense", np.ones(2), np.ones(1))
    with pytest.raises(ConfigurationError):
        SchemeConfig(INTEGRAL, np.ones(2), np.ones(1), integral_gain=0.0)
    with pytest.raises(ConfigurationError):
        SchemeConfig(EXTENDED_PRIMAL_DUAL, np.array([0.0, 1.0]), np.ones(1))
    with pytest.raises(ConfigurationError, match="privacy"):
        SchemeConfig(PRIVACY_PRESERVING, np.ones(2), np.ones(1))
