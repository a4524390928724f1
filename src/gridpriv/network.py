"""Graphs, the electrical network, swing dynamics and DC power flow.

`Graph` is the one graph type, for the network's lines and the controllers'
communication graph alike. It validates its edges once and owns the edge
difference Hᵀv and the node sum H f of its incidence H (both along the last
axis, on the edges' index arrays) and the weighted-Laplacian potential
solve. They are the one form of H: no library code forms it densely. The
potential solve eliminates pendant trees in rounds formed once per graph
and solves only the 2-core left densely, so on a tree it takes linear time
and memory.

The grid is a connected graph of buses and lossless lines. Line power is
linear in the phase-angle difference (small-angle approximation), and bus
frequency deviations follow second-order swing dynamics with per-bus
inertia and damping.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, InfeasibilityError, _checked_array

RESIDUAL_TOL = 1e-9  # a balance or residual is refused above RESIDUAL_TOL * (1 + sum |terms|)


@dataclass(frozen=True)
class Graph:
    """Connected graph of node_count nodes and directed (tail, head) edges.

    Direction is a bookkeeping convention: the incidence H has +1 at the
    tail and -1 at the head of each edge.
    """

    node_count: int
    edges: tuple  # (tail, head) node-index pairs
    tail: np.ndarray = field(init=False, repr=False, compare=False)
    head: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.node_count
        edges = tuple((int(i), int(j)) for i, j in self.edges)
        if n < 1:
            raise ConfigurationError("a graph needs at least one node")
        for i, j in edges:
            if i == j or not (0 <= i < n and 0 <= j < n):
                raise ConfigurationError(f"edge ({i},{j}) is a self-loop or leaves nodes [0, {n})")
        tail, head = np.array(edges, dtype=np.intp).reshape(-1, 2).T
        if n > 1 and not _connected(n, edges):
            raise ConfigurationError("graph is not connected")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "head", head)

    @property
    def edge_count(self):
        return len(self.edges)

    def edge_diff(self, v):
        """Hᵀ v along v's last axis: v at each edge's tail minus v at its head."""
        diff = v[..., self.tail]
        diff -= v[..., self.head]
        return diff

    def node_sum(self, f):
        """H f along f's last axis: per node, f over its out-edges minus f over
        its in-edges. A leading axis is flattened into one bincount per end."""
        n, lead = self.node_count, f.shape[:-1]
        first = np.arange(0, n * int(np.prod(lead)), n).reshape(*lead, 1)  # each row's node 0
        f, size = f.ravel(), first.size * n
        out = np.bincount((first + self.tail).ravel(), f, size)
        out -= np.bincount((first + self.head).ravel(), f, size)
        return out.reshape(*lead, n)

    def potentials(self, weights, s):
        """Potentials z with L z = s and sum(z) = 0, for the Laplacian L of
        edge weights `weights` (a scalar or one per edge) and a zero-sum s.

        Pendant trees are eliminated first (`_pendant_rounds`): a degree-1
        node hands its accumulated injection S to its one neighbour, an exact
        Schur-complement step that creates no fill. Only the k-node 2-core
        left over is solved densely, as `(L + 11ᵀ/k) z = S` (`_dense_potentials`);
        a tree leaves one node and no solve. The eliminated nodes follow
        outward, z = z_neighbour + S / w, and z is shifted to zero mean. A
        graph with no pendant node is the dense solve alone. With unit
        weights, Hᵀ z is the minimum-norm solution of H ψ = s.
        """
        rounds, core, core_edges = self._pendant_rounds
        if not rounds:
            return _dense_potentials(self.node_count, self.tail, self.head, weights, s)
        weights = np.full(self.tail.shape, weights, dtype=float)
        acc = np.array(s, dtype=float)
        for leaf, _, _, target, slot in rounds:
            acc[target] += np.bincount(slot, acc[leaf], target.size)
        z = np.zeros(self.node_count)
        if core.size > 1:
            core_tail, core_head, edges = core_edges
            z[core] = _dense_potentials(core.size, core_tail, core_head, weights[edges], acc[core])
        for leaf, edge, parent, _, _ in reversed(rounds):
            z[leaf] = z[parent] + acc[leaf] / weights[edge]
        z -= z.mean()
        return z

    @cached_property
    def _pendant_rounds(self):
        """The rounds that peel the pendant trees off the graph, and the 2-core left.

        Each round takes every node of degree 1 off at once, with its one
        edge and its neighbour (its parent). Where both ends of an edge have
        degree 1, the edge is a whole tree's last and only its tail goes, so
        the head stays as that tree's root. A node's one edge is the sum of
        its live edges' indices. Returns (rounds, core, core_edges): each
        round is (leaf, edge, parent, target, slot), target being the
        distinct parents and slot each leaf's parent's place in target; core
        the nodes never peeled; core_edges (tail, head, edge) of the edges
        between them, the ends numbered within core.
        """
        n, tail, head = self.node_count, self.tail, self.head
        degree = np.bincount(tail, minlength=n) + np.bincount(head, minlength=n)
        index = np.arange(tail.size, dtype=float)
        edge_sum = np.bincount(tail, index, n) + np.bincount(head, index, n)
        alive, rounds = np.ones(n, dtype=bool), []
        while (leaf := np.flatnonzero(degree == 1)).size:
            edge = edge_sum[leaf].astype(np.intp)
            parent = tail[edge] + head[edge] - leaf
            keep = (degree[parent] != 1) | (leaf == tail[edge])
            leaf, edge, parent = leaf[keep], edge[keep], parent[keep]
            count = np.bincount(parent, minlength=n)
            degree[leaf] = 0
            degree -= count
            edge_sum -= np.bincount(parent, edge, n)
            alive[leaf] = False
            target = np.flatnonzero(count)
            slot = (np.cumsum(count > 0) - 1)[parent]
            rounds.append((leaf, edge, parent, target, slot))
        core = np.flatnonzero(alive)
        edges = np.flatnonzero(alive[tail] & alive[head])
        number = np.cumsum(alive) - 1
        return rounds, core, (number[tail[edges]], number[head[edges]], edges)


def _dense_potentials(n, tail, head, weights, s):
    """The solve of (L + 11ᵀ/n) z = s, positive definite; L is built in place
    on the 1/n shift."""
    M = np.full((n, n), 1.0 / n)
    np.add.at(M, (tail, tail), weights)
    np.add.at(M, (head, head), weights)
    np.add.at(M, (tail, head), -weights)
    np.add.at(M, (head, tail), -weights)
    return np.linalg.solve(M, s)


def _connected(n, edges):
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen, stack = {0}, [0]
    while stack:
        new = set(adj[stack.pop()]) - seen
        seen |= new
        stack.extend(new)
    return len(seen) == n


@dataclass(frozen=True)
class NetworkModel:
    """Buses, transmission lines and swing-equation constants.

    lines are directed (i, j) pairs; direction is an arbitrary bookkeeping
    convention and does not affect the dynamics. `graph` is their Graph.
    susceptance (per line), inertia and damping (per bus) must be finite and
    > 0, and inertia, which the closed loop divides by, no smaller than
    errors.MIN_DIVISOR (about 5.6e-309); a ConfigurationError names the field
    that is not, or has a wrong shape.
    """

    bus_count: int
    lines: tuple  # tuple of (i, j) bus-index pairs
    susceptance: np.ndarray  # per line, pu, > 0
    inertia: np.ndarray  # per bus, > 0
    damping: np.ndarray  # per bus, > 0
    graph: Graph = field(init=False, repr=False)

    def __post_init__(self):
        graph = Graph(self.bus_count, self.lines)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "lines", graph.edges)
        for name, size in (("susceptance", graph.edge_count), ("inertia", self.bus_count),
                           ("damping", self.bus_count)):
            object.__setattr__(self, name, _checked_array(getattr(self, name), name, (size,), 0.0,
                                                          divisor=name == "inertia"))
        if len({frozenset(line) for line in self.lines}) < graph.edge_count:
            raise ConfigurationError("two lines join the same pair of buses")

    @property
    def line_count(self):
        return self.graph.edge_count


@dataclass
class PlantState:
    """Per-line angle differences and per-bus frequency deviations."""

    eta: np.ndarray  # rad, per line
    omega: np.ndarray  # rad/s, per bus


def swing_rhs(model, state, net_injection):
    """Time derivatives of the plant state.

    net_injection is the per-bus total of generation minus controllable and
    uncontrollable demand, supplied by the devices module.
    """
    eta = _checked_array(state.eta, "eta", (model.line_count,))
    omega = _checked_array(state.omega, "omega", (model.bus_count,))
    net_injection = _checked_array(net_injection, "net_injection", (model.bus_count,))
    eta_dot = model.graph.edge_diff(omega)
    p = model.susceptance * eta  # line flows
    omega_dot = (net_injection - model.damping * omega - model.graph.node_sum(p)) / model.inertia
    return eta_dot, omega_dot


def dc_power_flow(model, injection):
    """Bus angles and line angle differences balancing a given injection.

    Solves the susceptance-weighted Laplacian system with bus 0 as the
    angle reference. The injection must sum to zero within
    RESIDUAL_TOL * (1 + sum |injection|).
    """
    injection = _checked_array(injection, "injection", (model.bus_count,))
    total, tol = injection.sum(), RESIDUAL_TOL * (1.0 + np.abs(injection).sum())
    if abs(total) > tol:
        raise InfeasibilityError(f"injections sum to {total:.3e}, expected 0 within {tol:.3e}")
    z = model.graph.potentials(model.susceptance, injection)
    theta = z - z[0]
    return theta, model.graph.edge_diff(theta)
