"""Graphs, the electrical network, swing dynamics and DC power flow.

`Graph` is the one graph type, for the network's lines and the controllers'
communication graph alike. It validates its edges once and owns the edge
difference Hᵀv, the node sum H f (both along the last axis, on the edges'
index arrays), the weighted-Laplacian potential solve and the dense
incidence H, built on first use; only the per-stage reference and the tests
use H.

The grid is a connected graph of buses and lossless lines. Line power is
linear in the phase-angle difference (small-angle approximation), and bus
frequency deviations follow second-order swing dynamics with per-bus
inertia and damping.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, InfeasibilityError, _checked_array


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

    @cached_property
    def incidence(self):
        """Dense node-edge incidence H, built on first use."""
        H = np.zeros((self.node_count, self.edge_count))
        H[self.tail, np.arange(self.edge_count)] = 1.0
        H[self.head, np.arange(self.edge_count)] = -1.0
        return H

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
        edge weights `weights` and a zero-sum s.

        L + 11ᵀ/n is positive definite, so one dense solve gives z; L is built in place
        on the 1/n shift. With unit weights, Hᵀ z is the minimum-norm solution of H ψ = s.
        """
        n, tail, head = self.node_count, self.tail, self.head
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
    A = model.graph.incidence
    eta_dot = A.T @ omega
    p = model.susceptance * eta  # line flows
    omega_dot = (net_injection - model.damping * omega - A @ p) / model.inertia
    return eta_dot, omega_dot


def dc_power_flow(model, injection):
    """Bus angles and line angle differences balancing a given injection.

    Solves the susceptance-weighted Laplacian system with bus 0 as the
    angle reference. The injection must sum to zero within 1e-9.
    """
    injection = _checked_array(injection, "injection", (model.bus_count,))
    if abs(injection.sum()) > 1e-9:
        raise InfeasibilityError(f"injections sum to {injection.sum():.3e}, expected 0 within 1e-9")
    z = model.graph.potentials(model.susceptance, injection)
    theta = z - z[0]
    return theta, model.graph.edge_diff(theta)
