import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridpriv import (
    Graph,
    NetworkModel,
    PlantState,
    RandomScenarioSpec,
    build_equilibrium,
    build_scenario,
    dc_power_flow,
    gen_scenario,
    solve_kkt,
    swing_rhs,
)
from gridpriv.devices import bus_injection
from gridpriv.equilibrium import consensus_flows
from gridpriv.errors import ConfigurationError, InfeasibilityError, ScenarioError
from gridpriv.schemes import PRIMAL_DUAL
from gridpriv.sim import ClosedLoop
from tests.conftest import huge_final_step_doc
from tests.reference_dynamics import dense_potentials, incidence, laplacian

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


def test_balance_checks_scale_with_the_injections():
    """The final rest state of a 1e8 pu load step sums to about 5.6e-09 and is
    accepted; an imbalance of 1e-6 of its total size is refused, by the power
    flow and by the consensus flows alike."""
    sc = build_scenario(huge_final_step_doc())
    devices, p_load = sc.devices, sc.final_load()
    kkt = solve_kkt(devices, p_load)
    eq = build_equilibrium(sc.model, devices, sc.comm, kkt, p_load)
    assert np.isfinite(eq.eta_star).all() and np.isfinite(eq.psi_star).all()
    injection = bus_injection(devices, kkt.p_M_star, kkt.d_c_star, p_load)
    assert abs(injection.sum()) > 1e-9
    injection[0] += 1e-6 * np.abs(injection).sum()
    with pytest.raises(InfeasibilityError, match="injections sum to"):
        dc_power_flow(sc.model, injection)
    s = eq.s_tilde_star.copy()
    s[0] += 1e-6 * np.abs(s).sum()
    with pytest.raises(InfeasibilityError, match="consensus equilibrium residual"):
        consensus_flows(sc.comm, s)


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


def _barbell(draw):
    """Two cycles joined by a path."""
    a, b, c = (draw(st.integers(3, 6)), draw(st.integers(1, 4)), draw(st.integers(3, 6)))
    start = a + b - 1  # the second cycle's first node ends the path
    return ([(i, (i + 1) % a) for i in range(a)]
            + [(a - 1 + i, a + i) for i in range(b)]
            + [(start + i, start + (i + 1) % c) for i in range(c)]), start + c


def _tree(n, rng):
    return [(int(rng.integers(0, i)), i) for i in range(1, n)]


def _tree_plus_chords(n, rng):
    edges = _tree(n, rng)
    present = {frozenset(e) for e in edges}
    for _ in range(3):
        i, j = (int(v) for v in rng.integers(0, n, 2))
        if i != j and frozenset((i, j)) not in present:
            edges.append((i, j))
            present.add(frozenset((i, j)))
    return edges


GRAPH_FAMILIES = {  # name: (smallest and largest node count, edges of n nodes)
    "one node": ((1, 1), lambda n, rng: []),
    "two nodes": ((2, 2), lambda n, rng: [(0, 1)]),
    "path": ((3, 40), lambda n, rng: [(i, i + 1) for i in range(n - 1)]),
    "star": ((3, 40), lambda n, rng: [(0, i) for i in range(1, n)]),
    "random tree": ((3, 40), _tree),
    "cycle": ((3, 20), lambda n, rng: [(i, (i + 1) % n) for i in range(n)]),
    "tree plus chords": ((4, 40), _tree_plus_chords),
    "complete": ((3, 12), lambda n, rng: [(i, j) for i in range(n) for j in range(i + 1, n)]),
}


@st.composite
def laplacian_systems(draw):
    """A graph of one family, its edges turned at random, with weights over
    1e-3..1e3 (or the scalar 1.0) and a zero-sum right-hand side."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(sorted(GRAPH_FAMILIES) + ["barbell"]))
    if family == "barbell":
        edges, n = _barbell(draw)
    else:
        (low, high), build = GRAPH_FAMILIES[family]
        n = draw(st.integers(low, high))
        edges = build(n, rng)
    flips = rng.random(len(edges)) < 0.5
    edges = [(j, i) if flip else (i, j) for (i, j), flip in zip(edges, flips)]
    graph = Graph(n, tuple(edges))
    weights = 1.0 if draw(st.booleans()) else 10.0 ** rng.uniform(-3.0, 3.0, len(edges))
    s = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0)
    return graph, weights, s - s.mean()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(laplacian_systems())
def test_potentials_solve_the_laplacian_system_on_every_family(system):
    """L z = s and sum(z) = 0 to rounding, at the scale of the terms that L z
    sums; the flows w Hᵀz agree with the dense solve's, whose z differs only by
    that solve's own rounding; a graph with no pendant node gets its bits."""
    g, w, s = system
    z = g.potentials(w, s)
    flow = w * g.edge_diff(z)
    terms = w * (np.abs(z[g.tail]) + np.abs(z[g.head]))
    n = g.node_count
    scale = (np.abs(s) + np.bincount(g.tail, terms, n) + np.bincount(g.head, terms, n)).max()
    assert np.abs(g.node_sum(flow) - s).max() <= 1e-12 * scale
    assert abs(z.sum()) <= 1e-12 * np.abs(z).sum()
    oracle = dense_potentials(g, w, s)
    assert np.abs(flow - w * g.edge_diff(oracle)).max(initial=0.0) <= 1e-12 * scale
    degree = np.bincount(g.tail, minlength=n) + np.bincount(g.head, minlength=n)
    if (degree != 1).all():
        np.testing.assert_array_equal(z, oracle)


def test_potentials_of_a_large_tree_form_no_square_array():
    """A 4000-node tree is peeled to one node: the elimination and the solve
    hold O(n) memory, far below the n² cells of a dense Laplacian."""
    n, rng = 4000, np.random.default_rng(0)
    g = Graph(n, tuple(_tree(n, rng)))
    s = rng.normal(size=n)
    s -= s.mean()
    tracemalloc.start()
    try:
        z = g.potentials(1.0, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 8 * n  # 2 MB; one n x n float64 array is 128 MB
    assert np.abs(g.node_sum(g.edge_diff(z)) - s).max() <= 1e-12 * np.abs(s).sum()


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
