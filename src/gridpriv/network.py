"""Graphs, the electrical network, swing dynamics and DC power flow.

`Graph` is the one graph type, for the network's lines and the controllers'
communication graph alike. It validates its edges once and owns the edge
difference Hᵀv, the node sum H f, the weighted-Laplacian potential solve
and the dense incidence H, built on first use.

The grid is a connected graph of buses and lossless lines. Line power is
linear in the phase-angle difference (small-angle approximation), and bus
frequency deviations follow second-order swing dynamics with per-bus
inertia and damping.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, InfeasibilityError


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
        """Hᵀ v: v at each edge's tail minus v at its head, along v's first axis."""
        return v[self.tail] - v[self.head]

    def node_sum(self, f):
        """H f: per node, f over its out-edges minus f over its in-edges."""
        n = self.node_count
        return np.bincount(self.tail, f, n) - np.bincount(self.head, f, n)

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
        object.__setattr__(self, "susceptance", np.asarray(self.susceptance, dtype=float))
        object.__setattr__(self, "inertia", np.asarray(self.inertia, dtype=float))
        object.__setattr__(self, "damping", np.asarray(self.damping, dtype=float))
        n, e = self.bus_count, graph.edge_count
        if self.susceptance.shape != (e,):
            raise ConfigurationError("susceptance length must match line count")
        if self.inertia.shape != (n,) or self.damping.shape != (n,):
            raise ConfigurationError("inertia/damping length must match bus_count")
        if not all(np.all((v > 0) & (v < np.inf))
                   for v in (self.susceptance, self.inertia, self.damping)):
            raise ConfigurationError("susceptance, inertia and damping must be positive and finite")
        if len({frozenset(line) for line in self.lines}) < e:
            raise ConfigurationError("two lines join the same pair of buses")

    @property
    def line_count(self):
        return self.graph.edge_count

    def laplacian(self):
        """Susceptance-weighted graph Laplacian."""
        A = self.graph.incidence
        return A @ (self.susceptance[:, None] * A.T)


@dataclass
class PlantState:
    """Per-line angle differences and per-bus frequency deviations."""

    eta: np.ndarray  # rad, per line
    omega: np.ndarray  # rad/s, per bus

    def __post_init__(self):
        self.eta = np.asarray(self.eta, dtype=float)
        self.omega = np.asarray(self.omega, dtype=float)


def _check_dims(model, state):
    if state.eta.shape != (model.line_count,) or state.omega.shape != (model.bus_count,):
        raise ConfigurationError(
            f"state dims (eta {state.eta.shape}, omega {state.omega.shape}) do not match "
            f"model (|E|={model.line_count}, |N|={model.bus_count})"
        )


def swing_rhs(model, state, net_injection):
    """Time derivatives of the plant state.

    net_injection is the per-bus total of generation minus controllable and
    uncontrollable demand, supplied by the devices module.
    """
    _check_dims(model, state)
    net_injection = np.asarray(net_injection, dtype=float)
    if net_injection.shape != (model.bus_count,):
        raise ConfigurationError("net_injection length must match bus_count")
    A = model.graph.incidence
    eta_dot = A.T @ state.omega
    p = model.susceptance * state.eta  # line flows
    omega_dot = (net_injection - model.damping * state.omega - A @ p) / model.inertia
    return eta_dot, omega_dot


def dc_power_flow(model, injection):
    """Bus angles and line angle differences balancing a given injection.

    Solves the susceptance-weighted Laplacian system with bus 0 as the
    angle reference. The injection must sum to zero within 1e-9.
    """
    injection = np.asarray(injection, dtype=float)
    if injection.shape != (model.bus_count,):
        raise ConfigurationError("injection length must match bus_count")
    if abs(injection.sum()) > 1e-9:
        raise InfeasibilityError(f"injections sum to {injection.sum():.3e}, expected 0 within 1e-9")
    z = model.graph.potentials(model.susceptance, injection)
    theta = z - z[0]
    return theta, model.graph.edge_diff(theta)
