"""Reference pieces of the dynamics that only the tests and tools read.

`incidence` forms a graph's incidence H densely, the oracle of
`Graph.edge_diff` and `Graph.node_sum`; `inputs` composes the closed loop's
held input the way `simulate` does, one step at a time, for checks of
`ClosedLoop.rhs` and `ClosedLoop.step`;
`classic_rk4_step` takes one step from the four classic RK4 stages, the
reference of `ClosedLoop.step`; `laplacian` forms the susceptance-weighted
Laplacian densely, for checks of the angle solve; `dense_potentials` is the
one dense solve that `Graph.potentials` made before it eliminated pendant
trees, its oracle.
"""

import numpy as np

from gridpriv.schemes import UNIT_CONSENSUS_KINDS


def incidence(graph):
    """Dense node-edge incidence H of a Graph: +1 at each edge's tail, -1 at its head."""
    H = np.zeros((graph.node_count, graph.edge_count))
    H[graph.tail, np.arange(graph.edge_count)] = 1.0
    H[graph.head, np.arange(graph.edge_count)] = -1.0
    return H


def inputs(sc, op, p_load, xi, n_f):
    """The input term b of ClosedLoop op of scenario sc (B p_load, plus
    n_f / tau0 on the command rows of the unit-level schemes) and the
    diagonal rho = tau0 / (tau0 + xi) on the command rows, None outside the
    unit-level schemes."""
    b = op.held_input(p_load)
    if sc.scheme.kind not in UNIT_CONSENSUS_KINDS:
        return b, None
    b[op.pc] += n_f / op.tau_c
    return b, op.tau_c / (op.tau_c + xi)


def classic_rk4_step(op, y, b, rho):
    """One classic RK4 step of op.dt from four op.rhs stages."""
    dt = op.dt
    k1 = op.rhs(y, b, rho)
    k2 = op.rhs(y + 0.5 * dt * k1, b, rho)
    k3 = op.rhs(y + 0.5 * dt * k2, b, rho)
    k4 = op.rhs(y + dt * k3, b, rho)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def laplacian(model):
    """Susceptance-weighted graph Laplacian of a NetworkModel."""
    A = incidence(model.graph)
    return A @ (model.susceptance[:, None] * A.T)


def dense_potentials(graph, weights, s):
    """Potentials z with L z = s and sum(z) = 0 from one dense solve of
    (L + 11ᵀ/n) z = s, which is positive definite; L is built in place on the
    1/n shift."""
    n, tail, head = graph.node_count, graph.tail, graph.head
    M = np.full((n, n), 1.0 / n)
    np.add.at(M, (tail, tail), weights)
    np.add.at(M, (head, head), weights)
    np.add.at(M, (tail, head), -weights)
    np.add.at(M, (head, tail), -weights)
    return np.linalg.solve(M, s)
