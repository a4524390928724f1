"""Electrical network graph, swing dynamics and DC power flow.

The grid is a connected graph of buses and lossless lines. Line power is
linear in the phase-angle difference (small-angle approximation), and bus
frequency deviations follow second-order swing dynamics with per-bus
inertia and damping.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, InfeasibilityError


@dataclass(frozen=True)
class NetworkModel:
    """Buses, transmission lines and swing-equation constants.

    lines are directed (i, j) pairs; direction is an arbitrary bookkeeping
    convention and does not affect the dynamics.
    """

    bus_count: int
    lines: tuple  # tuple of (i, j) bus-index pairs
    susceptance: np.ndarray  # per line, pu, > 0
    inertia: np.ndarray  # per bus, > 0
    damping: np.ndarray  # per bus, > 0
    incidence: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "lines", tuple((int(i), int(j)) for i, j in self.lines))
        object.__setattr__(self, "susceptance", np.asarray(self.susceptance, dtype=float))
        object.__setattr__(self, "inertia", np.asarray(self.inertia, dtype=float))
        object.__setattr__(self, "damping", np.asarray(self.damping, dtype=float))
        n, e = self.bus_count, len(self.lines)
        if n <= 0:
            raise ConfigurationError("bus_count must be positive")
        if self.susceptance.shape != (e,):
            raise ConfigurationError("susceptance length must match line count")
        if self.inertia.shape != (n,) or self.damping.shape != (n,):
            raise ConfigurationError("inertia/damping length must match bus_count")
        if np.any(self.susceptance <= 0) or np.any(self.inertia <= 0) or np.any(self.damping <= 0):
            raise ConfigurationError("susceptance, inertia and damping must be strictly positive")
        seen = set()
        for i, j in self.lines:
            if i == j:
                raise ConfigurationError(f"self-loop on bus {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ConfigurationError(f"line ({i},{j}) references unknown bus")
            key = frozenset((i, j))
            if key in seen:
                raise ConfigurationError(f"duplicate line between buses {i} and {j}")
            seen.add(key)
        object.__setattr__(self, "incidence", incidence_matrix(n, self.lines, "network"))

    @property
    def line_count(self):
        return len(self.lines)

    def laplacian(self):
        """Susceptance-weighted graph Laplacian."""
        A = self.incidence
        return A @ (self.susceptance[:, None] * A.T)


def incidence_matrix(n, edges, graph):
    """Node-edge incidence of a connected graph of n nodes: +1 at the tail, -1 at
    the head of each (i, j) edge. graph names it in the error."""
    if n > 1 and not _connected(n, edges):
        raise ConfigurationError(f"{graph} graph is not connected")
    A = np.zeros((n, len(edges)))
    tail, head = np.array(edges, dtype=int).reshape(-1, 2).T
    edge = np.arange(len(edges))
    A[tail, edge] = 1.0
    A[head, edge] = -1.0
    return A


def _laplacian_potentials(n, edges, weights, s):
    """Potentials z with L z = s and sum(z) = 0, for the weighted Laplacian L of a
    connected graph of n nodes and a zero-sum s.

    L + 11ᵀ/n is positive definite, so one dense solve gives z; L is built in place
    on the 1/n shift. With unit weights, Hᵀ z is the minimum-norm solution of H ψ = s.
    """
    M = np.full((n, n), 1.0 / n)
    tail, head = np.array(edges, dtype=int).reshape(-1, 2).T
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
    seen = {0}
    stack = [0]
    while stack:
        for k in adj[stack.pop()]:
            if k not in seen:
                seen.add(k)
                stack.append(k)
    return len(seen) == n


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


def line_flows(model, state):
    """Per-line power transfer, product of susceptance and angle difference."""
    _check_dims(model, state)
    return model.susceptance * state.eta


def swing_rhs(model, state, net_injection):
    """Time derivatives of the plant state.

    net_injection is the per-bus total of generation minus controllable and
    uncontrollable demand, supplied by the devices module.
    """
    _check_dims(model, state)
    net_injection = np.asarray(net_injection, dtype=float)
    if net_injection.shape != (model.bus_count,):
        raise ConfigurationError("net_injection length must match bus_count")
    A = model.incidence
    eta_dot = A.T @ state.omega
    p = line_flows(model, state)
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
    z = _laplacian_potentials(model.bus_count, model.lines, model.susceptance, injection)
    theta = z - z[0]
    eta_star = model.incidence.T @ theta
    return theta, eta_star
