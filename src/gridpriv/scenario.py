"""Scenario files: strict JSON schema, loading, saving and random generation.

A scenario file fully describes one closed-loop experiment: the electrical
network, the prosumption units, the communication graph, the controller
configuration, the integration settings and the load disturbances. An
attack knowledge file names what the eavesdropper observes. Unknown keys
are rejected so that typos fail loudly.
"""

import json
import numbers
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import schemes
from .adversary import CENTRAL_DIFF, FORWARD_DIFF, KnowledgeSet
from .devices import DeviceSet, design_optimal_gains
from .errors import ConfigurationError, InfeasibilityError, ScenarioError, _checked_array
from .network import Graph, NetworkModel
from .schemes import PrivacyParams, SchemeConfig, max_feasible_beta
from .sim import Disturbance, Scenario, atomic_open

KIND_ALIASES = {"generator": True, "load": False}
DISTURBANCE_TIME = 1.0  # s, when a generated scenario's load step acts (or at t_end / 2)


def _check_keys(obj, path, required, optional=()):
    if not isinstance(obj, dict):
        raise ScenarioError(path, "expected an object")
    for key in required:
        if key not in obj:
            raise ScenarioError(f"{path}.{key}", "missing required key")
    for key in obj:
        if key not in required and key not in optional:
            raise ScenarioError(f"{path}.{key}", "unknown key")


def _int(value, path, least=None):
    """An integer field: a JSON integer, or a float that states one exactly
    (an integral value no larger than 2^53 in magnitude)."""
    if isinstance(value, float) and value.is_integer() and abs(value) <= 2**53:
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ScenarioError(path, "expected an integer")
    if least is not None and value < least:
        raise ScenarioError(path, f"expected an integer >= {least}")
    return int(value)


def _float(value, path, key=None):
    """A number field: a JSON number a float can hold, not a bool, string, null or
    container. The error names path, path.key for a str key or path[key] for an int
    one; it is formatted only on failure."""
    # JSON's own types skip the abstract-class check, which costs about 1 us a number.
    if type(value) in (float, int) or (isinstance(value, numbers.Real)
                                       and not isinstance(value, bool)):
        try:
            return float(value)
        except OverflowError:  # an integer literal beyond the float range
            raise ScenarioError(_field(path, key),
                                "expected a number within the float range") from None
    raise ScenarioError(_field(path, key), "expected a number")


def _field(path, key):
    if key is None:
        return path
    return f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}"


def _floats(value, length, path):
    """A number for every entry, or a list of length numbers (errors at path[k])."""
    if not isinstance(value, list):
        return np.full(length, _float(value, path))
    if len(value) != length:
        raise ScenarioError(path, f"expected scalar or list of length {length}")
    return np.array([_float(v, path, k) for k, v in enumerate(value)])


@contextmanager
def _at(path):
    """Re-raise a ConfigurationError from the block as a ScenarioError at path."""
    try:
        yield
    except ConfigurationError as exc:
        raise ScenarioError(path, str(exc)) from exc


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError("$", f"invalid JSON in {path}: {exc}") from exc


def load_knowledge(path, n_units):
    """(KnowledgeSet, deriv) of an attack knowledge file; no path gives the defaults.

    Both keys are optional: channels is "all" or a list of unit indices in
    [0, n_units); deriv is "central" or "forward".
    """
    doc = load_json(path) if path else {}
    _check_keys(doc, "$", (), ("channels", "deriv"))
    channels = doc.get("channels", "all")
    if channels != "all":
        if not isinstance(channels, list):
            raise ScenarioError("$.channels", "expected 'all' or a list of unit indices")
        for k, c in enumerate(channels):
            if type(c) is not int or not 0 <= c < n_units:
                raise ScenarioError(f"$.channels[{k}]", f"expected a unit index in [0, {n_units})")
    deriv = doc.get("deriv", CENTRAL_DIFF)
    if deriv not in (CENTRAL_DIFF, FORWARD_DIFF):
        raise ScenarioError("$.deriv", f"expected {CENTRAL_DIFF!r} or {FORWARD_DIFF!r}")
    return KnowledgeSet(observed_channels=channels), deriv


def build_scenario(doc, seed=None, dt=None):
    """Validate a scenario document and construct the runnable Scenario."""
    _check_keys(doc, "$", ("network", "devices", "comm", "scheme", "sim"), ("disturbances",))

    net = doc["network"]
    _check_keys(net, "$.network", ("buses", "lines", "inertia", "damping"))
    n_bus = _int(net["buses"], "$.network.buses")
    lines, b = [], []
    for k, line in enumerate(net["lines"]):
        lpath = f"$.network.lines[{k}]"
        _check_keys(line, lpath, ("from", "to", "b"))
        lines.append((_int(line["from"], f"{lpath}.from"), _int(line["to"], f"{lpath}.to")))
        b.append(_float(line["b"], lpath, "b"))
    inertia = _floats(net["inertia"], n_bus, "$.network.inertia")
    damping = _floats(net["damping"], n_bus, "$.network.damping")
    with _at("$.network"):
        model = NetworkModel(n_bus, tuple(lines), np.array(b), inertia, damping)

    units = doc["devices"]
    if not isinstance(units, list) or not units:
        raise ScenarioError("$.devices", "expected a non-empty list")
    bus, is_gen, tau, q, p_l, split = [], [], [], [], [], []
    for k, unit in enumerate(units):
        upath = f"$.devices[{k}]"
        _check_keys(unit, upath, ("bus", "kind", "q", "p_l"), ("tau", "droop_split"))
        if unit["kind"] not in KIND_ALIASES:
            raise ScenarioError(f"{upath}.kind", "must be 'generator' or 'load'")
        gen = KIND_ALIASES[unit["kind"]]
        if gen and "tau" not in unit:
            raise ScenarioError(f"{upath}.tau", "required for generators")
        bus.append(_int(unit["bus"], f"{upath}.bus"))
        is_gen.append(gen)
        tau.append(_float(unit.get("tau", 1.0), upath, "tau"))
        q.append(_float(unit["q"], upath, "q"))
        p_l.append(_float(unit["p_l"], upath, "p_l"))
        split.append(_float(unit.get("droop_split", 0.5), upath, "droop_split"))
    with _at("$.devices"):
        devices = DeviceSet(np.array(bus), np.array(is_gen), np.array(tau), np.array(q),
                            np.array(p_l), bus_count=n_bus, droop_split=np.array(split))
    n_units = devices.n_units

    comm_doc = doc["comm"]
    _check_keys(comm_doc, "$.comm", ("edges", "gamma_psi"))
    edges = []
    for k, e in enumerate(comm_doc["edges"]):
        if not (isinstance(e, list) and len(e) == 2):
            raise ScenarioError(f"$.comm.edges[{k}]", "expected [from, to]")
        edges.append(tuple(_int(end, f"$.comm.edges[{k}][{j}]") for j, end in enumerate(e)))
    with _at("$.comm"):
        comm = Graph(n_units, tuple(edges))
    gamma_psi = _floats(comm_doc["gamma_psi"], comm.edge_count, "$.comm.gamma_psi")

    sch = doc["scheme"]
    _check_keys(sch, "$.scheme", ("kind", "gamma"), ("integral_gain", "privacy"))
    kind = sch["kind"]
    if kind not in schemes.SCHEME_KINDS:
        raise ScenarioError("$.scheme.kind", f"must be one of {list(schemes.SCHEME_KINDS)}")

    gamma = _floats(sch["gamma"], n_units, "$.scheme.gamma")
    with _at("$.scheme"):  # before xi_max's default and primal_dual's means are formed
        for name, value in (("gamma", gamma), ("gamma_psi", gamma_psi)):
            _checked_array(value, name, low=0.0, divisor=True)
    privacy = None
    if "privacy" in sch:
        pv = sch["privacy"]
        _check_keys(pv, "$.scheme.privacy", ("beta", "beta_hat"), ("xi_max", "safety"))
        beta = _floats(pv["beta"], n_units, "$.scheme.privacy.beta")
        beta_hat = _floats(pv["beta_hat"], n_units, "$.scheme.privacy.beta_hat")
        xi_max = _float(pv.get("xi_max", 10.0 * float(np.max(gamma))), "$.scheme.privacy.xi_max")
        safety = _float(pv.get("safety", 0.999), "$.scheme.privacy.safety")
        with _at("$.scheme.privacy"):
            privacy = PrivacyParams(beta=beta, beta_hat=beta_hat, xi_max=xi_max, safety=safety)
    elif kind == schemes.PRIVACY_PRESERVING:
        raise ScenarioError("$.scheme.privacy", "required for the privacy_preserving scheme")

    if kind == schemes.PRIMAL_DUAL:
        # bus-level controller: per-unit time constants aggregate to bus means,
        # the communication graph mirrors the electrical topology
        per_bus = devices.units_per_bus()
        if not per_bus.all():
            raise ScenarioError("$.devices", f"bus {int(np.flatnonzero(per_bus == 0)[0])} has "
                                "no units; the bus-level primal_dual scheme needs one per bus")
        gamma = devices.bus_sum(gamma) / per_bus
        gamma_psi = np.full(model.line_count, gamma_psi.mean() if model.line_count else 1.0)
    integral_gain = _float(sch.get("integral_gain", 1.0), "$.scheme.integral_gain")
    with _at("$.scheme"):
        scheme = SchemeConfig(kind=kind, gamma=gamma, gamma_psi=gamma_psi,
                              integral_gain=integral_gain, privacy=privacy)

    sim_doc = doc["sim"]
    _check_keys(sim_doc, "$.sim", ("t_end", "dt", "seed"), ("record_stride",))
    disturbances = []
    for k, d in enumerate(doc.get("disturbances", [])):
        dpath = f"$.disturbances[{k}]"
        _check_keys(d, dpath, ("t", "unit", "delta"))
        disturbances.append(Disturbance(_float(d["t"], dpath, "t"),
                                        _int(d["unit"], f"{dpath}.unit"),
                                        _float(d["delta"], dpath, "delta")))
    return Scenario(model=model, devices=devices, comm=comm, scheme=scheme,
                    disturbances=tuple(disturbances),
                    t_end=_float(sim_doc["t_end"], "$.sim.t_end"),
                    dt=_float(sim_doc["dt"] if dt is None else dt, "$.sim.dt"),
                    seed=_int(sim_doc["seed"] if seed is None else seed, "$.sim.seed", least=0),
                    record_stride=_int(sim_doc.get("record_stride", 1), "$.sim.record_stride"))


def load_scenario(path, seed=None, dt=None):
    return build_scenario(load_json(path), seed=seed, dt=dt)


def save_scenario(doc, path):
    """Canonical, byte-stable JSON of a scenario or a CLI report, written atomically."""
    with atomic_open(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass
class RandomScenarioSpec:
    """Knobs for synthetic scenario generation."""

    bus_count: int = 10
    units_per_bus: tuple = (3, 5)  # inclusive integer range
    q_range: tuple = (50.0, 250.0)
    comm_style: str = "tree"  # "tree" or "random"
    edge_prob: float = 0.1
    disturbance_magnitude: float = 0.2
    scheme_kind: str = schemes.PRIVACY_PRESERVING
    t_end: float = 60.0
    dt: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.bus_count < 1:
            raise ConfigurationError("bus_count (--buses) must be at least 1")
        if not 1 <= self.units_per_bus[0] <= self.units_per_bus[1]:
            raise ConfigurationError("units_per_bus (--units-min, --units-max) must satisfy "
                                     "1 <= min <= max")
        if self.q_range[0] <= 0 or self.q_range[1] < self.q_range[0]:
            raise ConfigurationError("q_range must be positive and ordered")
        if self.comm_style not in ("tree", "random"):
            raise ConfigurationError("comm_style must be 'tree' or 'random'")


def _random_tree_edges(n, rng):
    return [(int(rng.integers(0, i)), i) for i in range(1, n)]


def gen_scenario(spec):
    """Deterministic random scenario document for a given seed.

    Privacy bounds are chosen to pass the design condition: the gain-rate
    bound is half the unit damping and the noise bound sits at 80% of the
    feasibility boundary.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.bus_count
    lines = _random_tree_edges(n, rng)
    present = {frozenset(e) for e in lines}
    for _ in range(max(0, n // 3)):
        i, j = sorted(rng.integers(0, n, 2).tolist())
        if i != j and frozenset((i, j)) not in present:
            lines.append((i, j))
            present.add(frozenset((i, j)))
    network = {
        "buses": n,
        "lines": [{"from": i, "to": j, "b": round(float(rng.uniform(3.0, 10.0)), 6)}
                  for i, j in lines],
        "inertia": [round(float(v), 6) for v in rng.uniform(2.0, 5.0, n)],
        "damping": [round(float(v), 6) for v in rng.uniform(0.5, 1.5, n)],
    }

    units = []
    for bus in range(n):
        count = int(rng.integers(spec.units_per_bus[0], spec.units_per_bus[1] + 1))
        for k in range(count):
            gen = bool(rng.random() < 0.5) or (bus == 0 and k == 0)
            unit = {"bus": bus, "kind": "generator" if gen else "load",
                    "q": round(float(rng.uniform(*spec.q_range)), 6), "p_l": 0.0}
            if gen:
                unit["tau"] = round(float(rng.uniform(0.5, 2.0)), 6)
            units.append(unit)
    n_units = len(units)

    comm_edges = _random_tree_edges(n_units, rng)
    if spec.comm_style == "random":
        present = {frozenset(e) for e in comm_edges}
        for i in range(n_units):
            for j in range(i + 1, n_units):
                if frozenset((i, j)) not in present and rng.random() < spec.edge_prob:
                    comm_edges.append((i, j))
                    present.add(frozenset((i, j)))

    gamma = [round(float(v), 6) for v in rng.uniform(0.02, 0.05, n_units)]
    gamma_psi = [round(float(v), 6) for v in rng.uniform(0.02, 0.05, len(comm_edges))]

    q = np.array([u["q"] for u in units])
    is_gen = np.array([u["kind"] == "generator" for u in units])
    bus_of = np.array([u["bus"] for u in units])
    _, h = design_optimal_gains(q, is_gen)
    per_bus = np.bincount(bus_of, minlength=n)
    d_over_n = np.array(network["damping"])[bus_of] / per_bus[bus_of]
    beta_hat = 0.5 * h
    for attempt in range(100):
        boundary = max_feasible_beta(h, d_over_n, beta_hat)
        if np.all(boundary > 0):
            break
        beta_hat = beta_hat / 2.0
    else:
        raise InfeasibilityError("could not find feasible privacy bounds")
    beta = 0.8 * boundary

    disturbed = int(rng.integers(0, n_units))
    step_time = DISTURBANCE_TIME if spec.t_end >= DISTURBANCE_TIME else spec.t_end / 2
    doc = {
        "network": network,
        "devices": units,
        "comm": {"edges": [[i, j] for i, j in comm_edges], "gamma_psi": gamma_psi},
        "scheme": {
            "kind": spec.scheme_kind,
            "gamma": gamma,
            # only used when the document is rerun with the integral scheme;
            # the aggregate frequency-restoration rate is roughly
            # K * sum(1/q^2) / sum(D), so solve for a rate of 0.25/s
            "integral_gain": round(
                0.25 * float(np.sum(network["damping"])) / float(np.sum(1.0 / q**2)), 6),
            "privacy": {
                "beta": [round(float(v), 9) for v in beta],
                "beta_hat": [round(float(v), 9) for v in beta_hat],
                "xi_max": round(10.0 * max(gamma), 6),
                "safety": 0.999,
            },
        },
        "sim": {"t_end": spec.t_end, "dt": spec.dt, "seed": spec.seed, "record_stride": 1},
        "disturbances": [{"t": step_time, "unit": disturbed,
                          "delta": spec.disturbance_magnitude}],
    }
    build_scenario(doc)  # generated documents must always validate
    return doc
