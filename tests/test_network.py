import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridpriv import (
    Graph,
    NetworkModel,
    PlantState,
    RandomScenarioSpec,
    build_scenario,
    dc_power_flow,
    gen_scenario,
    swing_rhs,
)
from gridpriv.errors import ConfigurationError, InfeasibilityError, ScenarioError
from gridpriv.schemes import PRIMAL_DUAL
from gridpriv.sim import ClosedLoop
from tests.reference_dynamics import incidence, laplacian

# node 1 has degree 4, (0, 1) and (1, 0) are antiparallel, 1-2-4-3 is a cycle
MESHED = Graph(5, ((0, 1), (1, 0), (1, 2), (1, 3), (3, 4), (4, 2)))


def test_incidence_matrix(model3):
    expected = np.array([
        [1.0, 0.0],
        [-1.0, 1.0],
        [0.0, -1.0],
    ])
    np.testing.assert_array_equal(incidence(model3.graph), expected)


def test_laplacian_structure(model3):
    L = laplacian(model3)
    A = incidence(model3.graph)
    np.testing.assert_allclose(L, A @ np.diag(model3.susceptance) @ A.T)
    # weighted graph Laplacian: symmetric, zero row sums, PSD
    np.testing.assert_allclose(L, L.T)
    np.testing.assert_allclose(L @ np.ones(3), 0.0, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(L) > -1e-12)


def test_swing_rhs_hand_values(model3):
    # hand-evaluated: eta_dot = A^T omega, omega_dot = (inj - D w - A p)/M
    state = PlantState(eta=np.array([0.1, -0.2]), omega=np.array([0.3, -0.1, 0.2]))
    inj = np.array([1.0, -0.5, -0.5])
    eta_dot, omega_dot = swing_rhs(model3, state, inj)
    np.testing.assert_allclose(eta_dot, [0.3 - (-0.1), -0.1 - 0.2])
    p = np.array([0.5, -1.6])
    expect = (inj - model3.damping * state.omega
              - incidence(model3.graph) @ p) / model3.inertia
    np.testing.assert_allclose(omega_dot, expect)


def test_swing_rhs_zero_at_rest(model3):
    state = PlantState(eta=np.zeros(2), omega=np.zeros(3))
    eta_dot, omega_dot = swing_rhs(model3, state, np.zeros(3))
    np.testing.assert_array_equal(eta_dot, 0.0)
    np.testing.assert_array_equal(omega_dot, 0.0)


def test_dc_power_flow_balances(model3):
    inj = np.array([0.4, -0.1, -0.3])
    theta, eta = dc_power_flow(model3, inj)
    assert theta[0] == 0.0
    # flows reproduce the injection at every bus
    p = model3.susceptance * eta
    np.testing.assert_allclose(incidence(model3.graph) @ p, inj, atol=1e-12)
    np.testing.assert_allclose(incidence(model3.graph).T @ theta, eta)


def test_dc_power_flow_rejects_imbalance(model3):
    with pytest.raises(InfeasibilityError):
        dc_power_flow(model3, np.array([0.4, 0.0, 0.0]))


def test_dc_power_flow_hand_values():
    # two buses, one line with b = 4: eta = inj / b
    model = NetworkModel(2, ((0, 1),), np.array([4.0]), np.ones(2), np.ones(2))
    _, eta = dc_power_flow(model, np.array([0.8, -0.8]))
    np.testing.assert_allclose(eta, [0.2])


@pytest.mark.parametrize("bad", [
    dict(lines=((0, 0),)),
    dict(lines=((0, 3),)),
    dict(lines=((0, 1), (1, 0))),
    dict(susceptance=[-1.0]),
    dict(inertia=[1.0, -1.0, 1.0]),
])
def test_model_validation(bad):
    kw = dict(bus_count=3, lines=((0, 1), (1, 2)), susceptance=[1.0, 1.0],
              inertia=[1.0, 1.0, 1.0], damping=[1.0, 1.0, 1.0])
    if "lines" in bad:
        bad = dict(bad, susceptance=[1.0] * len(bad["lines"]))
    kw.update(bad)
    with pytest.raises(ConfigurationError):
        NetworkModel(**kw)


def test_disconnected_graph_rejected():
    with pytest.raises(ConfigurationError, match="not connected"):
        NetworkModel(4, ((0, 1), (2, 3)), np.ones(2), np.ones(4), np.ones(4))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
def test_random_tree_laplacian_nullspace(n, seed):
    rng = np.random.default_rng(seed)
    lines = tuple((int(rng.integers(0, i)), i) for i in range(1, n))
    model = NetworkModel(n, lines, rng.uniform(1.0, 10.0, n - 1),
                         rng.uniform(1.0, 5.0, n), rng.uniform(0.5, 2.0, n))
    L = laplacian(model)
    vals = np.sort(np.linalg.eigvalsh(L))
    # exactly one zero eigenvalue (graph connected), spanned by the ones vector
    assert vals[0] == pytest.approx(0.0, abs=1e-9)
    assert vals[1] > 1e-9
    np.testing.assert_allclose(L @ np.ones(n), 0.0, atol=1e-9)


def test_graph_incidence_is_built_once_from_the_endpoints():
    g = MESHED
    np.testing.assert_array_equal(g.tail, [0, 1, 1, 1, 3, 4])
    np.testing.assert_array_equal(g.head, [1, 0, 2, 3, 4, 2])
    H = incidence(g)
    assert H.shape == (5, 6)
    np.testing.assert_array_equal(H.sum(axis=0), 0.0)
    np.testing.assert_array_equal(np.abs(H).sum(axis=0), 2.0)
    np.testing.assert_array_equal(H[1], [-1, 1, 1, 1, 0, 0])


def test_graph_edge_diff_and_node_sum_match_incidence():
    """Both work along the last axis; a leading (sample) axis is one row per sample."""
    g, rng = MESHED, np.random.default_rng(0)
    for v in (rng.normal(size=5), rng.normal(size=(3, 5)), rng.normal(size=(2, 3, 5))):
        np.testing.assert_array_equal(g.edge_diff(v), v @ incidence(g))
    for f in (rng.normal(size=6), rng.normal(size=(3, 6)), rng.normal(size=(2, 3, 6))):
        np.testing.assert_allclose(g.node_sum(f), f @ incidence(g).T, rtol=0, atol=1e-15)
    rows = rng.normal(size=(4, 6))
    np.testing.assert_array_equal(g.node_sum(rows), [g.node_sum(f) for f in rows])
    assert g.node_sum(rows[:0]).shape == (0, 5)


def test_graph_potential_flow_is_min_norm_solution():
    g, rng = MESHED, np.random.default_rng(1)
    s = rng.normal(size=5)
    s -= s.mean()
    psi = g.edge_diff(g.potentials(1.0, s))
    oracle = np.linalg.lstsq(incidence(g), s, rcond=None)[0]
    np.testing.assert_allclose(psi, oracle, rtol=0, atol=1e-12)
    np.testing.assert_allclose(g.node_sum(psi), s, rtol=0, atol=1e-12)
    # weighted: L z = s with L = H diag(w) Hᵀ
    w = rng.uniform(1.0, 3.0, 6)
    z = g.potentials(w, s)
    np.testing.assert_allclose(incidence(g) @ (w * g.edge_diff(z)), s, rtol=0, atol=1e-12)
    assert abs(z.sum()) <= 1e-12


def test_network_lines_are_its_graph(model3):
    assert model3.graph.node_count == model3.bus_count
    assert model3.graph.edges == model3.lines


BAD_EDGES = {
    "self-loop": ((0, 1), (1, 1), (1, 2), (2, 3)),
    "out of range": ((0, 1), (1, 2), (2, 3), (3, 4)),
    "negative": ((0, 1), (1, 2), (-1, 3)),
    "disconnected": ((0, 1), (2, 3)),
}


@pytest.mark.parametrize("name", BAD_EDGES)
def test_bad_edges_rejected_on_both_paths(name):
    edges = BAD_EDGES[name]
    with pytest.raises(ConfigurationError):
        Graph(4, edges)
    with pytest.raises(ConfigurationError):
        NetworkModel(4, edges, np.ones(len(edges)), np.ones(4), np.ones(4))
    doc = gen_scenario(RandomScenarioSpec(bus_count=4, units_per_bus=(1, 1), t_end=5.0))
    net = dict(doc, network=dict(doc["network"], lines=[
        {"from": i, "to": j, "b": 1.0} for i, j in edges]))
    comm = dict(doc, comm={"edges": [list(e) for e in edges], "gamma_psi": 0.03})
    for bad, path in ((net, "$.network"), (comm, "$.comm")):
        with pytest.raises(ScenarioError) as err:
            build_scenario(bad)
        assert err.value.path == path


def test_primal_dual_consensus_runs_on_the_network_graph():
    doc = gen_scenario(RandomScenarioSpec(bus_count=4, t_end=5.0, scheme_kind=PRIMAL_DUAL))
    sc = build_scenario(doc)
    assert ClosedLoop(sc).graph is sc.model.graph
