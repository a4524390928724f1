import copy
import json
import warnings

import numpy as np
import pytest

from gridpriv import errors, simulate
from gridpriv.scenario import (
    RandomScenarioSpec,
    ScenarioError,
    build_scenario,
    gen_scenario,
    load_scenario,
    save_scenario,
)
from gridpriv.schemes import (
    EXTENDED_PRIMAL_DUAL,
    PRIMAL_DUAL,
    SCHEME_KINDS,
    design_condition_report,
)
from gridpriv.sim import Disturbance, Scenario


@pytest.fixture
def small_doc():
    return gen_scenario(RandomScenarioSpec(bus_count=3, units_per_bus=(2, 2),
                                           t_end=10.0, seed=4))


def test_gen_scenario_deterministic():
    spec = RandomScenarioSpec(bus_count=4, units_per_bus=(2, 3), seed=11)
    a = gen_scenario(spec)
    b = gen_scenario(spec)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    c = gen_scenario(RandomScenarioSpec(bus_count=4, units_per_bus=(2, 3), seed=12))
    assert json.dumps(a, sort_keys=True) != json.dumps(c, sort_keys=True)


def test_gen_scenario_validates_and_satisfies_design_condition(small_doc):
    sc = build_scenario(small_doc)
    feasible, _, _ = design_condition_report(sc.devices, sc.model,
                                             sc.scheme.privacy)
    assert feasible.all()


def test_save_load_round_trip(tmp_path, small_doc):
    path = tmp_path / "scenario.json"
    save_scenario(small_doc, path)
    sc = load_scenario(path)
    assert sc.devices.n_units == len(small_doc["devices"])
    # byte-stable serialization
    save_scenario(small_doc, tmp_path / "again.json")
    assert (tmp_path / "scenario.json").read_bytes() == (tmp_path / "again.json").read_bytes()


def test_failed_scenario_write_leaves_no_file(tmp_path, small_doc):
    doc = dict(small_doc, zz=object())  # not serialisable; sorted last, after the rest
    path = tmp_path / "scenario.json"
    with pytest.raises(TypeError):
        save_scenario(doc, path)
    assert not path.exists()
    assert not (tmp_path / "scenario.json.tmp").exists()


def test_seed_and_dt_overrides(tmp_path, small_doc):
    path = tmp_path / "scenario.json"
    save_scenario(small_doc, path)
    sc = load_scenario(path, seed=99, dt=0.02)
    assert sc.seed == 99 and sc.dt == 0.02


def test_unknown_key_rejected_with_path(small_doc):
    doc = copy.deepcopy(small_doc)
    doc["scheme"]["bogus"] = 1
    with pytest.raises(ScenarioError, match=r"\$\.scheme\.bogus"):
        build_scenario(doc)


def test_missing_key_rejected(small_doc):
    doc = copy.deepcopy(small_doc)
    del doc["network"]["damping"]
    with pytest.raises(ScenarioError, match=r"\$\.network\.damping"):
        build_scenario(doc)


def test_wrong_length_list_rejected(small_doc):
    """The error gives the list's own path, once, not the enclosing block's."""
    for block, key in (("network", "inertia"), ("network", "damping"),
                       ("scheme.privacy", "beta"), ("scheme.privacy", "beta_hat")):
        doc = copy.deepcopy(small_doc)
        parent = doc
        for part in block.split("."):
            parent = parent[part]
        parent[key] = [1.0, 2.0]
        with pytest.raises(ScenarioError, match="length") as info:
            build_scenario(doc)
        assert info.value.path == f"$.{block}.{key}"
        assert str(info.value).count("$.") == 1


def test_generator_requires_tau(small_doc):
    doc = copy.deepcopy(small_doc)
    gen_idx = next(i for i, u in enumerate(doc["devices"]) if u["kind"] == "generator")
    del doc["devices"][gen_idx]["tau"]
    with pytest.raises(ScenarioError, match="tau"):
        build_scenario(doc)


def test_privacy_required_for_privacy_scheme(small_doc):
    doc = copy.deepcopy(small_doc)
    del doc["scheme"]["privacy"]
    with pytest.raises(ScenarioError, match="privacy"):
        build_scenario(doc)


def test_bad_kind_rejected(small_doc):
    doc = copy.deepcopy(small_doc)
    doc["scheme"]["kind"] = "pid"
    with pytest.raises(ScenarioError, match="kind"):
        build_scenario(doc)


@pytest.mark.parametrize("t", [-0.5, 10.5])
def test_disturbance_outside_horizon_rejected(small_doc, t):
    doc = copy.deepcopy(small_doc)
    doc["disturbances"].append({"t": t, "unit": 0, "delta": 0.1})
    with pytest.raises(ScenarioError, match=r"\$\.disturbances\[1\]\.t"):
        build_scenario(doc)


def test_scenario_names_the_disturbance_unit_path(small_doc):
    sc = build_scenario(small_doc)
    bad = Disturbance(1.0, sc.devices.n_units, 0.1)
    with pytest.raises(ScenarioError, match=r"\$\.disturbances\[0\]\.unit"):
        Scenario(model=sc.model, devices=sc.devices, comm=sc.comm, scheme=sc.scheme,
                 disturbances=(bad,), t_end=10.0, dt=0.01)
    doc = copy.deepcopy(small_doc)
    doc["disturbances"].append({"t": 2.0, "unit": -1, "delta": 0.1})
    with pytest.raises(ScenarioError, match=r"\$\.disturbances\[1\]\.unit"):
        build_scenario(doc)


def test_disturbances_are_kept_in_time_order(small_doc):
    doc = copy.deepcopy(small_doc)
    doc["disturbances"] = [{"t": 5.0, "unit": 1, "delta": 0.1},
                           {"t": 1.0, "unit": 0, "delta": 0.2},
                           {"t": 5.0, "unit": 2, "delta": 0.3}]
    sc = build_scenario(doc)
    assert [(d.time, d.unit) for d in sc.disturbances] == [(1.0, 0), (5.0, 1), (5.0, 2)]
    doc["disturbances"][2]["unit"] = -1  # errors still name the file's index
    with pytest.raises(ScenarioError, match=r"\$\.disturbances\[2\]\.unit"):
        build_scenario(doc)


def test_scenario_error_is_shared():
    assert ScenarioError is errors.ScenarioError
    assert issubclass(ScenarioError, errors.ConfigurationError)


@pytest.mark.parametrize("t_end, dt, stride", [(10.05, 0.1, 1), (10.05, 0.01, 10),
                                                (10.0, 0.03, 1)])
def test_t_end_off_the_sample_grid_rejected(small_doc, t_end, dt, stride):
    doc = copy.deepcopy(small_doc)
    doc["sim"].update(t_end=t_end, dt=dt, record_stride=stride)
    with pytest.raises(ScenarioError, match=r"\$\.sim\.t_end"):
        build_scenario(doc)


def test_dt_override_checked_against_t_end(small_doc):
    with pytest.raises(ScenarioError, match=r"\$\.sim\.t_end"):
        build_scenario(small_doc, dt=0.3)
    assert build_scenario(small_doc, dt=0.025).dt == 0.025


# (keys from the document root to a positive-only leaf, scheme kind, path of the error)
NAN_FIELDS = {
    "xi_max": (("scheme", "privacy", "xi_max"), "privacy_preserving", "$.scheme.privacy"),
    "beta": (("scheme", "privacy", "beta", 0), "privacy_preserving", "$.scheme.privacy"),
    "beta_hat": (("scheme", "privacy", "beta_hat", 0), "privacy_preserving",
                 "$.scheme.privacy"),
    "gamma": (("scheme", "gamma", 0), "privacy_preserving", "$.scheme"),
    "gamma_psi": (("comm", "gamma_psi", 0), "privacy_preserving", "$.scheme"),
    "integral_gain": (("scheme", "integral_gain"), "integral", "$.scheme"),
    "q": (("devices", 0, "q"), "privacy_preserving", "$.devices"),
    "tau": (("devices", 0, "tau"), "privacy_preserving", "$.devices"),  # unit 0 is a generator
    "inertia": (("network", "inertia", 0), "privacy_preserving", "$.network"),
    "damping": (("network", "damping", 0), "privacy_preserving", "$.network"),
    "b": (("network", "lines", 0, "b"), "privacy_preserving", "$.network"),
}


@pytest.mark.parametrize("field", NAN_FIELDS)
def test_nan_in_a_positive_field_is_rejected_with_its_path(field):
    keys, kind, path = NAN_FIELDS[field]
    doc = gen_scenario(RandomScenarioSpec(bus_count=4, t_end=10.0, seed=21))
    doc["scheme"]["kind"] = kind
    leaf = doc
    for key in keys[:-1]:
        leaf = leaf[key]
    leaf[keys[-1]] = float("nan")
    with pytest.raises(ScenarioError) as exc:
        build_scenario(doc)
    assert exc.value.path == path


# (keys from the document root to a leaf that must be finite, path of the error,
# what the message names)
FINITE_FIELDS = {
    "p_l": (("devices", 0, "p_l"), "$.devices", "p_load"),
    "delta": (("disturbances", 0, "delta"), "$.disturbances[0].delta", "finite"),
    "droop_split": (("devices", 0, "droop_split"), "$.devices", "droop_split"),
}


@pytest.mark.parametrize("field, value", [
    ("p_l", float("nan")), ("p_l", float("inf")), ("p_l", -float("inf")),
    ("delta", float("nan")), ("delta", float("inf")), ("delta", -float("inf")),
    ("droop_split", float("nan")),
])
def test_non_finite_load_delta_or_droop_split_is_rejected_at_its_path(field, value):
    keys, path, named = FINITE_FIELDS[field]
    doc = gen_scenario(RandomScenarioSpec(bus_count=4, t_end=10.0, seed=21))
    leaf = doc
    for key in keys[:-1]:
        leaf = leaf[key]
    leaf[keys[-1]] = value
    with pytest.raises(ScenarioError, match=named) as exc:
        build_scenario(doc)
    assert exc.value.path == path


# (keys from the document root to an integer leaf, path of the error)
INT_FIELDS = {
    "buses": (("network", "buses"), "$.network.buses"),
    "line from": (("network", "lines", 0, "from"), "$.network.lines[0].from"),
    "line to": (("network", "lines", 2, "to"), "$.network.lines[2].to"),
    "unit bus": (("devices", 1, "bus"), "$.devices[1].bus"),
    "edge end": (("comm", "edges", 2, 1), "$.comm.edges[2][1]"),
    "seed": (("sim", "seed"), "$.sim.seed"),
    "record_stride": (("sim", "record_stride"), "$.sim.record_stride"),
    "disturbance unit": (("disturbances", 0, "unit"), "$.disturbances[0].unit"),
}


def _parent(doc, keys):
    for key in keys[:-1]:
        doc = doc[key]
    return doc


@pytest.mark.parametrize("value", [0.7, -1.5, float("nan"), float("inf"), -float("inf"),
                                   1e300, True, "2", None])
@pytest.mark.parametrize("field", INT_FIELDS)
def test_integer_field_rejects_a_non_integer_at_its_path(field, value):
    keys, path = INT_FIELDS[field]
    doc = gen_scenario(RandomScenarioSpec(bus_count=4, t_end=10.0, seed=21))
    _parent(doc, keys)[keys[-1]] = value
    with pytest.raises(ScenarioError, match="expected an integer") as exc:
        build_scenario(doc)
    assert exc.value.path == path


@pytest.mark.parametrize("field", INT_FIELDS)
def test_integer_field_takes_an_integral_float(field):
    keys, _ = INT_FIELDS[field]
    doc = gen_scenario(RandomScenarioSpec(bus_count=4, t_end=10.0, seed=21))
    want = build_scenario(doc)
    leaf = _parent(doc, keys)
    leaf[keys[-1]] = float(leaf[keys[-1]])
    got = build_scenario(doc)
    assert got.seed == want.seed and got.record_stride == want.record_stride
    assert got.model.graph.edges == want.model.graph.edges
    assert got.comm.edges == want.comm.edges
    np.testing.assert_array_equal(got.devices.bus, want.devices.bus)
    assert got.disturbances == want.disturbances


def test_negative_seed_is_rejected_at_its_path(small_doc):
    small_doc["sim"]["seed"] = -1
    with pytest.raises(ScenarioError, match=">= 0") as exc:
        build_scenario(small_doc)
    assert exc.value.path == "$.sim.seed"


@pytest.mark.parametrize("field", NAN_FIELDS)
def test_infinity_in_a_positive_field_is_rejected_with_its_path(field):
    """Each range check that rejects NaN rejects +inf at the same path."""
    keys, kind, path = NAN_FIELDS[field]
    doc = gen_scenario(RandomScenarioSpec(bus_count=4, t_end=10.0, seed=21))
    doc["scheme"]["kind"] = kind
    _parent(doc, keys)[keys[-1]] = float("inf")
    with pytest.raises(ScenarioError, match="finite") as exc:
        build_scenario(doc)
    assert exc.value.path == path


# (keys from the document root to a number leaf, path of the error)
NUMBER_FIELDS = {
    "q": (("devices", 0, "q"), "$.devices[0].q"),
    "tau": (("devices", 0, "tau"), "$.devices[0].tau"),
    "p_l": (("devices", 1, "p_l"), "$.devices[1].p_l"),
    "droop_split": (("devices", 2, "droop_split"), "$.devices[2].droop_split"),
    "b": (("network", "lines", 1, "b"), "$.network.lines[1].b"),
    "inertia entry": (("network", "inertia", 1), "$.network.inertia[1]"),
    "damping": (("network", "damping"), "$.network.damping"),
    "gamma entry": (("scheme", "gamma", 0), "$.scheme.gamma[0]"),
    "gamma_psi entry": (("comm", "gamma_psi", 2), "$.comm.gamma_psi[2]"),
    "integral_gain": (("scheme", "integral_gain"), "$.scheme.integral_gain"),
    "beta entry": (("scheme", "privacy", "beta", 3), "$.scheme.privacy.beta[3]"),
    "beta_hat": (("scheme", "privacy", "beta_hat"), "$.scheme.privacy.beta_hat"),
    "xi_max": (("scheme", "privacy", "xi_max"), "$.scheme.privacy.xi_max"),
    "safety": (("scheme", "privacy", "safety"), "$.scheme.privacy.safety"),
    "t_end": (("sim", "t_end"), "$.sim.t_end"),
    "dt": (("sim", "dt"), "$.sim.dt"),
    "disturbance t": (("disturbances", 0, "t"), "$.disturbances[0].t"),
    "delta": (("disturbances", 0, "delta"), "$.disturbances[0].delta"),
}


@pytest.mark.parametrize("value", ["0.5", True, None, {"a": 1}, 10**400])
@pytest.mark.parametrize("field", NUMBER_FIELDS)
def test_number_field_rejects_a_non_number_at_its_path(field, value):
    keys, path = NUMBER_FIELDS[field]
    doc = gen_scenario(RandomScenarioSpec(bus_count=4, t_end=10.0, seed=21))
    _parent(doc, keys)[keys[-1]] = value
    with pytest.raises(ScenarioError, match="expected a number") as exc:
        build_scenario(doc)
    assert exc.value.path == path


def test_zero_cost_is_rejected_before_it_divides(small_doc):
    small_doc["devices"][1]["q"] = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScenarioError, match="cost_q") as exc:
            build_scenario(small_doc)
    assert exc.value.path == "$.devices"


@pytest.mark.parametrize("key, value", [("t_end", float("inf")), ("t_end", 1e300),
                                        ("t_end", float("nan")), ("dt", float("inf"))])
def test_unbounded_horizon_or_step_is_rejected_at_its_path(small_doc, key, value):
    """1e300 s at dt = 0.01 would need 1e302 steps, more than an array can index."""
    small_doc["sim"][key] = value
    with pytest.raises(ScenarioError, match="finite") as exc:
        build_scenario(small_doc)
    assert exc.value.path == f"$.sim.{key}"


def test_gains_follow_cost_coefficients(small_doc):
    sc = build_scenario(small_doc)
    lhs = sc.devices.cost_q * (sc.devices.droop_m + sc.devices.damping_h)
    np.testing.assert_allclose(lhs, 1.0, rtol=1e-12)


def test_bus_level_gamma_aggregation(small_doc):
    """One document drives all four schemes; per-unit gamma collapses to
    bus means for the bus-level controller."""
    doc = copy.deepcopy(small_doc)
    doc["scheme"]["kind"] = PRIMAL_DUAL
    sc = build_scenario(doc)
    assert sc.scheme.gamma.shape == (sc.model.bus_count,)
    gamma_units = np.asarray(doc["scheme"]["gamma"])
    for bus in range(sc.model.bus_count):
        at_bus = gamma_units[sc.devices.bus == bus]
        assert sc.scheme.gamma[bus] == pytest.approx(at_bus.mean())
    assert sc.scheme.gamma_psi.shape == (sc.model.line_count,)


def test_one_bus_one_unit_primal_dual_document_runs():
    """No lines and no communication edges: the bus-level gamma_psi is empty,
    and no mean of an empty list is taken (a RuntimeWarning is an error here)."""
    doc = gen_scenario(RandomScenarioSpec(bus_count=1, units_per_bus=(1, 1),
                                          scheme_kind=PRIMAL_DUAL, t_end=1.0))
    sc = build_scenario(doc)
    assert sc.scheme.gamma_psi.shape == (0,)
    traj = simulate(sc)
    assert traj.psi.shape == (101, 0) and np.isfinite(traj.omega).all()


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_one_document_runs_under_every_scheme(small_doc, kind):
    doc = copy.deepcopy(small_doc)
    doc["scheme"]["kind"] = kind
    traj = simulate(build_scenario(doc))
    assert np.isfinite(traj.omega).all()


def test_random_comm_style_adds_edges():
    tree = gen_scenario(RandomScenarioSpec(bus_count=4, units_per_bus=(3, 3),
                                           comm_style="tree", seed=2))
    rnd = gen_scenario(RandomScenarioSpec(bus_count=4, units_per_bus=(3, 3),
                                          comm_style="random", edge_prob=0.3, seed=2))
    assert len(rnd["comm"]["edges"]) > len(tree["comm"]["edges"])


def test_invalid_json_reports_path(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ScenarioError, match="invalid JSON"):
        load_scenario(p)
