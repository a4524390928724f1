import json

import numpy as np
import pytest
from click.testing import CliRunner

from gridpriv import (
    KnowledgeSet,
    RandomScenarioSpec,
    Trajectory,
    build_scenario,
    gen_scenario,
    observer_attack,
    origin_detection,
    simulate,
)
from gridpriv.cli import main
from gridpriv.errors import ConfigurationError, ScenarioError
from gridpriv.schemes import (
    EXTENDED_PRIMAL_DUAL,
    INTEGRAL,
    PRIMAL_DUAL,
    PRIVACY_PRESERVING,
    SCHEME_KINDS,
    max_feasible_beta,
)
from gridpriv.sim import marginal_costs
from tests.conftest import read_csv


@pytest.fixture
def runner():
    return CliRunner()


def gen(runner, tmp_path, name="scenario.json", **opts):
    path = tmp_path / name
    args = ["gen-scenario", str(path), "--buses", "3", "--units-min", "2",
            "--units-max", "2", "--t-end", "8.0", "--seed", "4"]
    for key, val in opts.items():
        args += [f"--{key.replace('_', '-')}", str(val)]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return path


def test_gen_scenario_deterministic_bytes(runner, tmp_path):
    a = gen(runner, tmp_path, "a.json")
    b = gen(runner, tmp_path, "b.json")
    assert a.read_bytes() == b.read_bytes()
    c = gen(runner, tmp_path, "c.json", seed=5)
    assert a.read_bytes() != c.read_bytes()


def test_run_outputs(runner, tmp_path):
    scen = gen(runner, tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", str(scen), "--out", str(out)])
    assert result.exit_code == 0, result.output
    metrics = json.loads((out / "metrics.json").read_text())
    assert {"max_abs_omega_end", "settle_time", "p_c_spread_end", "lambda",
            "marginal_cost_spread_end", "scheme"} <= set(metrics)
    eq = json.loads((out / "equilibrium.json").read_text())
    assert eq["p_c_star"] == pytest.approx(-eq["lambda"])
    lines = (out / "trajectory.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t"
    for prefix in ("omega_0", "pc_0", "psi_0", "x_0", "xi_0", "nf_0"):
        assert prefix in header
    assert "s_tilde_0" not in header  # not on the wire under privacy_preserving
    assert "lyapunov" in header
    data = np.array([[float(v) for v in row.split(",")] for row in lines[1:]])
    assert np.isfinite(data).all()
    assert data.shape[1] == len(header)


def test_run_deterministic_csv_bytes(runner, tmp_path):
    scen = gen(runner, tmp_path)
    for name in ("r1", "r2"):
        result = runner.invoke(main, ["run", str(scen), "--out", str(tmp_path / name)])
        assert result.exit_code == 0, result.output
    assert (tmp_path / "r1" / "trajectory.csv").read_bytes() == \
        (tmp_path / "r2" / "trajectory.csv").read_bytes()


def test_run_missing_file_exits_2(runner, tmp_path):
    result = runner.invoke(main, ["run", str(tmp_path / "nope.json"),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 2


def test_run_invalid_scenario_exits_2(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"network": {}}')
    result = runner.invoke(main, ["run", str(bad), "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "error:" in result.output


def test_run_disturbance_after_t_end_exits_2(runner, tmp_path):
    scen = gen(runner, tmp_path)
    doc = json.loads(scen.read_text())
    doc["disturbances"][0]["t"] = 9.0
    scen.write_text(json.dumps(doc))
    result = runner.invoke(main, ["run", str(scen), "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "$.disturbances[0].t" in result.output


def test_run_nan_xi_max_exits_2(runner, tmp_path):
    scen = gen(runner, tmp_path)
    doc = json.loads(scen.read_text())
    doc["scheme"]["privacy"]["xi_max"] = float("nan")
    scen.write_text(json.dumps(doc))  # written as the JSON extension NaN
    result = runner.invoke(main, ["run", str(scen), "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert "$.scheme.privacy" in result.output


@pytest.mark.parametrize("field, error", [
    ("p_l", "$.devices: p_load"), ("delta", "$.disturbances[0].delta: must be finite"),
    ("droop_split", "$.devices: droop_split"),
])
def test_run_nan_load_delta_or_droop_split_exits_2(runner, tmp_path, field, error):
    scen = gen(runner, tmp_path)
    doc = json.loads(scen.read_text())
    leaf = doc["disturbances"][0] if field == "delta" else doc["devices"][0]
    leaf[field] = float("nan")
    scen.write_text(json.dumps(doc))  # written as the JSON extension NaN
    result = runner.invoke(main, ["run", str(scen), "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert error in result.output


@pytest.mark.parametrize("keys, value, path", [
    (("devices", 0, "bus"), 0.7, "$.devices[0].bus"),
    (("devices", 0, "bus"), float("nan"), "$.devices[0].bus"),
    (("sim", "seed"), 1e300, "$.sim.seed"),
    (("network", "buses"), float("inf"), "$.network.buses"),
])
def test_run_non_integer_integer_field_exits_2(runner, tmp_path, keys, value, path):
    scen = gen(runner, tmp_path)
    doc = json.loads(scen.read_text())
    leaf = doc
    for key in keys[:-1]:
        leaf = leaf[key]
    leaf[keys[-1]] = value
    scen.write_text(json.dumps(doc))  # NaN and inf as the JSON extensions
    result = runner.invoke(main, ["run", str(scen), "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert f"{path}: expected an integer" in result.output


@pytest.mark.parametrize("keys, value, error", [
    (("devices", 0, "q"), "60", "$.devices[0].q: expected a number"),
    (("network", "inertia"), [2.0, "3", 4.0], "$.network.inertia[1]: expected a number"),
    (("scheme", "gamma"), {"a": 1}, "$.scheme.gamma: expected a number"),
    (("network", "lines", 0, "b"), float("inf"), "$.network: susceptance"),
    (("scheme", "privacy", "xi_max"), float("inf"), "$.scheme.privacy: xi_max"),
    (("sim", "t_end"), 1e300, "$.sim.t_end: must be finite"),
    (("devices", 0, "q"), 0, "$.devices: cost_q"),
])
def test_run_bad_number_field_exits_2(runner, tmp_path, keys, value, error):
    """These ran, raised or diverged before the number reader and the finite checks."""
    scen = gen(runner, tmp_path)
    doc = json.loads(scen.read_text())
    leaf = doc
    for key in keys[:-1]:
        leaf = leaf[key]
    leaf[keys[-1]] = value
    scen.write_text(json.dumps(doc))  # inf as the JSON extension Infinity
    result = runner.invoke(main, ["run", str(scen), "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert f"error: {error}" in result.output


def test_run_off_grid_t_end_exits_2(runner, tmp_path):
    """A step at t=10.04 under t_end=10.05, dt=0.1 would never be applied."""
    scen = gen(runner, tmp_path)
    doc = json.loads(scen.read_text())
    doc["sim"].update(t_end=10.05, dt=0.1)
    doc["disturbances"][0]["t"] = 10.04
    scen.write_text(json.dumps(doc))
    result = runner.invoke(main, ["run", str(scen), "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "$.sim.t_end" in result.output
    doc["sim"]["t_end"] = 11.0
    scen.write_text(json.dumps(doc))
    result = runner.invoke(main, ["run", str(scen), "--dt", "0.3",
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "$.sim.t_end" in result.output


def test_disturbance_after_the_last_step_exits_2(runner, tmp_path):
    """t_end 1.5e-9 past the last step at dt = 0.01 is on the grid within its
    tolerance, but a load step at t_end would act after the last step: the run
    would never apply it, yet report lambda for it."""
    doc = gen_scenario(RandomScenarioSpec(bus_count=3, t_end=2.0, seed=1))
    t_end = 2.0 + 1.5e-9
    doc["sim"]["t_end"] = t_end
    doc["disturbances"].append({"t": t_end, "unit": 0, "delta": 0.5})
    with pytest.raises(ScenarioError,
                       match=r"^\$\.disturbances\[1\]\.t: .* after the last step"):
        build_scenario(doc)
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps(doc))
    result = runner.invoke(main, ["run", str(scen), "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "$.disturbances[1].t" in result.output
    assert not (tmp_path / "out").exists()


def test_run_divergence_exits_3(runner, tmp_path):
    scen = gen(runner, tmp_path, t_end=500.0)
    with np.errstate(all="ignore"):
        result = runner.invoke(main, ["run", str(scen), "--dt", "1.0",
                                      "--out", str(tmp_path / "out")])
    assert result.exit_code == 3


def test_attack_command(runner, tmp_path):
    scen = gen(runner, tmp_path)
    doc = json.loads(scen.read_text())
    epd = tmp_path / "epd.json"
    doc_epd = json.loads(scen.read_text())
    doc_epd["scheme"]["kind"] = "extended_primal_dual"
    epd.write_text(json.dumps(doc_epd))

    for label, path in (("pp", scen), ("epd", epd)):
        result = runner.invoke(main, ["run", str(path), "--out",
                                      str(tmp_path / f"out_{label}")])
        assert result.exit_code == 0, result.output

    report_path = tmp_path / "report.json"
    result = runner.invoke(main, [
        "attack", str(tmp_path / "out_pp" / "trajectory.csv"),
        "--scenario", str(scen),
        "--baseline", str(tmp_path / "out_epd" / "trajectory.csv"),
        "--out", str(report_path),
    ])
    assert result.exit_code == 0, result.output
    report = json.loads(report_path.read_text())
    assert report["rmse_transient"] > 0
    assert report["rmse_ratio_vs_baseline"] > 1.0
    assert report["origin_ranking"][0] in range(len(doc["devices"]))


def test_attack_on_compare_dt_traces_gives_the_in_memory_ratio(runner, tmp_path):
    """attack loads the scenario's own dt, but s_tilde is rebuilt on the times of
    the traces compare --dt wrote, so the ratio is that of the in-memory runs."""
    scen = gen(runner, tmp_path)
    out = tmp_path / "cmp"
    kinds = (EXTENDED_PRIMAL_DUAL, PRIVACY_PRESERVING)
    result = runner.invoke(main, ["compare", str(scen), "--out", str(out), "--dt", "0.005",
                                  "--schemes", ",".join(kinds)])
    assert result.exit_code == 0, result.output
    report_path = tmp_path / "report.json"
    result = runner.invoke(main, [
        "attack", str(out / PRIVACY_PRESERVING / "trajectory.csv"), "--scenario", str(scen),
        "--baseline", str(out / EXTENDED_PRIMAL_DUAL / "trajectory.csv"),
        "--out", str(report_path)])
    assert result.exit_code == 0, result.output
    doc = json.loads(scen.read_text())
    sc = build_scenario(doc)  # what attack attacks with
    rmse = {}
    for kind in kinds:
        doc["scheme"]["kind"] = kind
        traj = simulate(build_scenario(doc, dt=0.005))
        rmse[kind] = observer_attack(traj, sc.comm, sc.scheme, KnowledgeSet()).rmse_transient
    ratio = json.loads(report_path.read_text())["rmse_ratio_vs_baseline"]
    assert ratio == rmse[PRIVACY_PRESERVING] / rmse[EXTENDED_PRIMAL_DUAL]


@pytest.mark.parametrize("baseline", ["primal_dual", "other scenario"])
def test_attack_mismatched_baseline_exits_2(runner, tmp_path, baseline):
    """The baseline trace is checked like the attacked one: a bus-level trace has
    a pc column per bus, another scenario's trace another unit count."""
    scen = gen(runner, tmp_path)
    if baseline == "primal_dual":
        doc = json.loads(scen.read_text())
        doc["scheme"]["kind"] = "primal_dual"
        base_scen = tmp_path / "base.json"
        base_scen.write_text(json.dumps(doc))
    else:
        base_scen = gen(runner, tmp_path, name="base.json", units_min=3, units_max=3)
    for label, path in (("main", scen), ("base", base_scen)):
        result = runner.invoke(main, ["run", str(path), "--out", str(tmp_path / label)])
        assert result.exit_code == 0, result.output
    base_trace = tmp_path / "base" / "trajectory.csv"
    result = runner.invoke(main, [
        "attack", str(tmp_path / "main" / "trajectory.csv"), "--scenario", str(scen),
        "--baseline", str(base_trace), "--out", str(tmp_path / "report.json"),
    ])
    assert result.exit_code == 2, result.output
    assert f"error: {base_trace}: trajectory columns do not match" in result.output
    assert not (tmp_path / "report.json").exists()


def test_attack_ignores_the_scenario_files_scheme_kind(runner, tmp_path):
    """Under a primal_dual or integral scenario file, compare's unit-level traces are
    attacked as under the privacy file, and its primal_dual trace exits 2 at its path."""
    scen = gen(runner, tmp_path, scheme=PRIMAL_DUAL)
    out = tmp_path / "cmp"
    result = runner.invoke(main, ["compare", str(scen), "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads(scen.read_text())
    paths = [scen]
    for kind in (INTEGRAL, PRIVACY_PRESERVING):
        doc["scheme"]["kind"] = kind
        paths.append(tmp_path / f"{kind}.json")
        paths[-1].write_text(json.dumps(doc))
    reports = []
    for path in paths:
        report_path = tmp_path / f"{path.stem}_report.json"
        result = runner.invoke(main, [
            "attack", str(out / PRIVACY_PRESERVING / "trajectory.csv"), "--scenario", str(path),
            "--baseline", str(out / EXTENDED_PRIMAL_DUAL / "trajectory.csv"),
            "--out", str(report_path)])
        assert result.exit_code == 0, result.output
        reports.append(json.loads(report_path.read_text()))
        del reports[-1]["scenario"]
    assert reports[0] == reports[1] == reports[2]
    trace = out / PRIMAL_DUAL / "trajectory.csv"
    result = runner.invoke(main, ["attack", str(trace), "--scenario", str(scen),
                                  "--out", str(tmp_path / "report.json")])
    assert result.exit_code == 2, result.output
    assert f"error: {trace}: trajectory columns do not match" in result.output


def run_and_attack(runner, tmp_path, scen):
    """The `attack` result on the `run` trace of scen, and its report path."""
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", str(scen), "--out", str(out)])
    assert result.exit_code == 0, result.output
    report_path = tmp_path / "report.json"
    result = runner.invoke(main, ["attack", str(out / "trajectory.csv"), "--scenario",
                                  str(scen), "--out", str(report_path)])
    return result, report_path


@pytest.mark.parametrize("t, ranked", [(9.0, True), (9.98, False)])
def test_attack_late_disturbance(runner, tmp_path, t, ranked):
    """Origin detection looks at what the trace holds after a late step, and
    reports no ranking when fewer than three samples follow it."""
    scen = gen(runner, tmp_path, buses=4, units_min=3, units_max=5, t_end=10, seed=3)
    doc = json.loads(scen.read_text())
    doc["disturbances"][0]["t"] = t
    scen.write_text(json.dumps(doc))
    result, report_path = run_and_attack(runner, tmp_path, scen)
    assert result.exit_code == 0, result.output
    report = json.loads(report_path.read_text())
    if ranked:
        assert report["origin_ranking"][0] == doc["disturbances"][0]["unit"]
        assert report["warnings"] == []
    else:
        assert report["origin_ranking"] is None
        assert any("fewer than 3 samples" in w for w in report["warnings"])


def late_first_disturbances(runner, tmp_path):
    """A scenario file listing a step at bus 2 (t=5) before one at bus 1 (t=1)."""
    scen = gen(runner, tmp_path)
    doc = json.loads(scen.read_text())
    assert [doc["devices"][u]["bus"] for u in (2, 4)] == [1, 2]
    doc["disturbances"] = [{"t": 5.0, "unit": 4, "delta": 0.2},
                           {"t": 1.0, "unit": 2, "delta": 0.2}]
    scen.write_text(json.dumps(doc))
    return scen


def test_attack_detects_origin_at_the_earliest_disturbance(runner, tmp_path):
    scen = late_first_disturbances(runner, tmp_path)
    result, report_path = run_and_attack(runner, tmp_path, scen)
    assert result.exit_code == 0, result.output
    report = json.loads(report_path.read_text())
    traj = Trajectory.from_csv(tmp_path / "out" / "trajectory.csv")
    assert report["origin_ranking"] == origin_detection(traj, 1.0)[0]
    assert report["origin_ranking"][0] == 2
    assert report["disturbed_units"] == [2, 4]


def test_compare_watches_the_bus_of_the_earliest_disturbance(runner, tmp_path):
    scen = late_first_disturbances(runner, tmp_path)
    out = tmp_path / "cmp"
    result = runner.invoke(main, ["compare", str(scen), "--out", str(out),
                                  "--schemes", "integral"])
    assert result.exit_code == 0, result.output
    header, _ = read_csv(out / "fig_frequency.csv")
    assert header == ["t", "freq_hz_bus1_integral"]


@pytest.mark.parametrize("rows, code", [(1, 2), (2, 0)])
def test_attack_needs_two_samples(runner, tmp_path, rows, code):
    """One sample gives no dt and no command difference: exit 2, naming the file."""
    scen = gen(runner, tmp_path)
    out = tmp_path / "cmp"
    result = runner.invoke(main, ["compare", str(scen), "--out", str(out),
                                  "--schemes", PRIVACY_PRESERVING])
    assert result.exit_code == 0, result.output
    trace = out / PRIVACY_PRESERVING / "trajectory.csv"
    trace.write_text("".join(trace.read_text().splitlines(keepends=True)[:1 + rows]))
    result = runner.invoke(main, ["attack", str(trace), "--scenario", str(scen),
                                  "--out", str(tmp_path / "report.json")])
    assert result.exit_code == code, result.output
    if code:
        assert f"error: {trace}: trajectory has fewer than two samples" in result.output
        assert not (tmp_path / "report.json").exists()


@pytest.mark.filterwarnings("error")
def test_attack_header_only_trace_exits_2_without_a_warning(runner, tmp_path):
    """A trace with no rows is malformed: exit 2 naming the file, and no numpy
    warning, which warnings-as-errors would turn into a traceback."""
    scen = gen(runner, tmp_path)
    result = runner.invoke(main, ["run", str(scen), "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    trace = tmp_path / "out" / "trajectory.csv"
    trace.write_text(trace.read_text().splitlines(keepends=True)[0])
    result = runner.invoke(main, ["attack", str(trace), "--scenario", str(scen),
                                  "--out", str(tmp_path / "report.json")])
    assert result.exit_code == 2, result.output
    assert f"error: malformed trace {trace}: no samples after the header" in result.output
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("damage", ["truncated last row", "non-numeric cell"])
def test_attack_malformed_trace_exits_2(runner, tmp_path, damage):
    scen = gen(runner, tmp_path)
    result = runner.invoke(main, ["run", str(scen), "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    trace = tmp_path / "out" / "trajectory.csv"
    lines = trace.read_text().splitlines()
    if damage == "truncated last row":
        lines[-1] = lines[-1][:len(lines[-1]) // 2].rsplit(",", 1)[0]
    else:
        cells = lines[5].split(",")
        cells[1] = "abc"
        lines[5] = ",".join(cells)
    trace.write_text("\n".join(lines) + "\n")
    result = runner.invoke(main, ["attack", str(trace), "--scenario", str(scen),
                                  "--out", str(tmp_path / "report.json")])
    assert result.exit_code == 2
    assert "error:" in result.output and str(trace) in result.output
    assert not (tmp_path / "report.json").exists()


def test_attack_knowledge_file(runner, tmp_path):
    scen = gen(runner, tmp_path)
    result = runner.invoke(main, ["run", str(scen), "--out", str(tmp_path / "out")])
    assert result.exit_code == 0
    kpath = tmp_path / "knowledge.json"
    kpath.write_text(json.dumps({"channels": [0, 1], "deriv": "forward"}))
    result = runner.invoke(main, [
        "attack", str(tmp_path / "out" / "trajectory.csv"),
        "--scenario", str(scen), "--knowledge", str(kpath),
        "--out", str(tmp_path / "report.json"),
    ])
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "report.json").read_text())
    assert any("partial knowledge" in w for w in report["warnings"])


@pytest.mark.parametrize("text, path", [
    ('{"channels": [99]}', "$.channels[0]"),
    ('{"channels": [-1]}', "$.channels[0]"),
    ('{"channels": [0, 1.5]}', "$.channels[1]"),
    ('{"channels": "foo"}', "$.channels"),
    ('{"chanels": [0]}', "$.chanels"),
    ('{"deriv": "exact"}', "$.deriv"),
    ('{"channels": [0', "invalid JSON"),
])
def test_attack_bad_knowledge_file_exits_2(runner, tmp_path, text, path):
    scen = gen(runner, tmp_path)
    result = runner.invoke(main, ["run", str(scen), "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    kpath = tmp_path / "knowledge.json"
    kpath.write_text(text)
    result = runner.invoke(main, [
        "attack", str(tmp_path / "out" / "trajectory.csv"),
        "--scenario", str(scen), "--knowledge", str(kpath),
        "--out", str(tmp_path / "report.json"),
    ])
    assert result.exit_code == 2, result.output
    assert "error:" in result.output and path in result.output
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("args, option", [
    (["--buses", "0"], "--buses"),
    (["--buses", "-2"], "--buses"),
    (["--units-min", "4", "--units-max", "2"], "--units-min"),
    (["--units-min", "0", "--units-max", "0"], "--units-min"),
])
def test_gen_scenario_impossible_sizes_exit_2(runner, tmp_path, args, option):
    out = tmp_path / "scenario.json"
    result = runner.invoke(main, ["gen-scenario", str(out)] + args)
    assert result.exit_code == 2, result.output
    assert "error:" in result.output and option in result.output
    assert not out.exists()


def test_compare_command(runner, tmp_path):
    scen = gen(runner, tmp_path)
    out = tmp_path / "cmp"
    result = runner.invoke(main, [
        "compare", str(scen), "--out", str(out),
        "--schemes", "integral,extended_primal_dual,privacy_preserving",
    ])
    assert result.exit_code == 0, result.output
    metrics = json.loads((out / "metrics.json").read_text())
    assert set(metrics) >= {"integral", "extended_primal_dual",
                            "privacy_preserving", "settle_time_ordering"}
    for kind in ("integral", "extended_primal_dual", "privacy_preserving"):
        assert (out / kind / "trajectory.csv").exists()
        assert (out / f"fig_marginal_costs_{kind}.csv").exists()
        assert not (out / f"fig_communicated_{kind}.csv").exists()
    assert (out / "fig_frequency.csv").exists()
    assert (out / "fig_inferred_demand.csv").exists()


@pytest.mark.parametrize("kinds", [SCHEME_KINDS, ("integral", "primal_dual")])
def test_compare_files_match_in_memory_runs(runner, tmp_path, kinds):
    """Every file compare writes, read back, equals the same figures computed
    from in-memory trajectories of the same scenario."""
    scen = gen(runner, tmp_path)
    out = tmp_path / "cmp"
    result = runner.invoke(main, ["compare", str(scen), "--out", str(out),
                                  "--schemes", ",".join(kinds)])
    assert result.exit_code == 0, result.output
    doc = json.loads(scen.read_text())
    runs = {}
    for kind in kinds:
        doc["scheme"]["kind"] = kind
        sc = build_scenario(doc)
        runs[kind] = (sc, simulate(sc))
    sc0, traj0 = runs[kinds[0]]
    times = traj0.times
    bus = int(sc0.devices.bus[sc0.disturbances[0].unit])

    header, data = read_csv(out / "fig_frequency.csv")
    assert header == ["t"] + [f"freq_hz_bus{bus}_{k}" for k in kinds]
    np.testing.assert_array_equal(data, np.column_stack(
        [times] + [runs[k][1].omega[:, bus] / (2.0 * np.pi) for k in kinds]))
    for kind, (sc, traj) in runs.items():
        back = Trajectory.from_csv(out / kind / "trajectory.csv", scenario=sc)
        for name in ("times", "omega", "p_c", "psi", "x", "s_tilde", "xi", "n_f"):
            np.testing.assert_array_equal(getattr(back, name), getattr(traj, name))
        header, data = read_csv(out / f"fig_marginal_costs_{kind}.csv")
        mc = marginal_costs(traj, sc.devices)
        assert header == ["t"] + [f"mc_{u}" for u in range(mc.shape[1])]
        np.testing.assert_array_equal(data, np.column_stack([times, mc]))

    observed = [k for k in (EXTENDED_PRIMAL_DUAL, PRIVACY_PRESERVING) if k in kinds]
    if not observed:
        assert not (out / "fig_inferred_demand.csv").exists()
        return
    s_hat = {k: observer_attack(runs[k][1], runs[k][0].comm, runs[k][0].scheme,
                                KnowledgeSet()).s_hat[:, :3] for k in observed}
    header, data = read_csv(out / "fig_inferred_demand.csv")
    assert header == (["t"] + [f"true_{u}" for u in range(3)]
                      + [f"inferred_{k}_{u}" for k in observed for u in range(3)])
    np.testing.assert_array_equal(data, np.column_stack(
        [times, runs[observed[0]][1].s_tilde[:, :3]] + [s_hat[k] for k in observed]))


def test_compare_bus_without_units_exits_2(runner, tmp_path):
    """The bus-level scheme averages gamma over a bus's units; a bus with none
    is an input error, not a nan time constant."""
    scen = gen(runner, tmp_path)
    doc = json.loads(scen.read_text())
    for unit in doc["devices"]:
        if unit["bus"] == 2:
            unit["bus"] = 1
    scen.write_text(json.dumps(doc))
    result = runner.invoke(main, ["compare", str(scen), "--out", str(tmp_path / "cmp")])
    assert result.exit_code == 2, result.output
    assert "$.devices" in result.output and "bus 2" in result.output


@pytest.mark.parametrize("damage, path", [("no scheme", "$.scheme"),
                                          ("scheme not an object", "$.scheme"),
                                          ("document not an object", "$")])
def test_compare_malformed_document_exits_2(runner, tmp_path, damage, path):
    """compare hands a document it cannot vary to build_scenario, which names the path."""
    scen = gen(runner, tmp_path)
    doc = json.loads(scen.read_text())
    if damage == "no scheme":
        del doc["scheme"]
    elif damage == "scheme not an object":
        doc["scheme"] = "x"
    else:
        doc = [1, 2]
    scen.write_text(json.dumps(doc))
    result = runner.invoke(main, ["compare", str(scen), "--out", str(tmp_path / "cmp")])
    assert result.exit_code == 2, result.output
    assert f"error: {path}: " in result.output


def test_compare_rejects_unknown_scheme(runner, tmp_path):
    scen = gen(runner, tmp_path)
    result = runner.invoke(main, ["compare", str(scen), "--schemes", "pid",
                                  "--out", str(tmp_path / "cmp")])
    assert result.exit_code == 2


def test_check_design_command(runner, tmp_path):
    scen = gen(runner, tmp_path)
    out = tmp_path / "design.json"
    result = runner.invoke(main, ["check-design", str(scen), "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert doc["all_feasible"] is True
    assert all(u["feasible"] for u in doc["units"])
    assert all(max(u["eigenvalues"]) <= 1e-12 for u in doc["units"])


def test_check_design_requires_privacy_params(runner, tmp_path):
    scen = gen(runner, tmp_path)
    doc = json.loads(scen.read_text())
    doc["scheme"]["kind"] = "integral"
    del doc["scheme"]["privacy"]
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(doc))
    result = runner.invoke(main, ["check-design", str(plain)])
    assert result.exit_code == 2


def test_design_condition_gate(runner, tmp_path):
    """A beta 1 % above unit 0's per-unit bound: simulate refuses the run, the
    CLI exits 2, and check-design marks unit 0 infeasible."""
    doc = gen_scenario(RandomScenarioSpec(bus_count=4, seed=21, t_end=2.0))
    sc = build_scenario(doc)
    bus = sc.devices.bus[0]
    d_over_n = sc.model.damping[bus] / sc.devices.units_per_bus()[bus]
    privacy = doc["scheme"]["privacy"]
    privacy["beta"][0] = 1.01 * float(max_feasible_beta(
        sc.devices.damping_h[0], d_over_n, privacy["beta_hat"][0]))
    with pytest.raises(ConfigurationError, match=r"design condition violated for units \[0\]"):
        simulate(build_scenario(doc))
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps(doc))
    result = runner.invoke(main, ["run", str(scen), "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert "design condition violated for units [0]" in result.output
    out = tmp_path / "design.json"
    result = runner.invoke(main, ["check-design", str(scen), "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads(out.read_text())
    assert report["all_feasible"] is False
    assert [u["unit"] for u in report["units"] if not u["feasible"]] == [0]


def test_run_negative_zero_xi_max_exits_0(runner, tmp_path):
    """-0.0 passes xi_max's >= 0 check and runs as xi_max = 0."""
    scen = gen(runner, tmp_path)
    doc = json.loads(scen.read_text())
    doc["scheme"]["privacy"]["xi_max"] = -0.0
    scen.write_text(json.dumps(doc))
    result = runner.invoke(main, ["run", str(scen), "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output


def _duplicate_line(doc):
    line = doc["network"]["lines"][0]
    doc["network"]["lines"].append({"from": line["to"], "to": line["from"], "b": 1.0})


@pytest.mark.parametrize("damage, error", [
    (lambda doc: doc.update(devices=[]), "$.devices: expected a non-empty list"),
    (lambda doc: doc["devices"][0].update(kind="battery"), "$.devices[0].kind: must be"),
    (lambda doc: doc["comm"]["edges"][0].append(2), "$.comm.edges[0]: expected [from, to]"),
    (lambda doc: doc["sim"].update(record_stride=0), "$.sim.record_stride: must be >= 1"),
    (lambda doc: doc["scheme"]["privacy"].update(safety=1.0),
     "$.scheme.privacy: safety must lie in (0, 1)"),
    (lambda doc: doc["scheme"]["privacy"].update(safety=0),
     "$.scheme.privacy: safety must lie in (0, 1)"),
    (_duplicate_line, "$.network: two lines join the same pair of buses"),
], ids=["no units", "unknown kind", "edge not a pair", "zero record_stride", "safety 1",
        "safety 0", "repeated line"])
def test_run_refuses_a_bad_document_at_its_path(runner, tmp_path, damage, error):
    scen = gen(runner, tmp_path)
    doc = json.loads(scen.read_text())
    damage(doc)
    scen.write_text(json.dumps(doc))
    result = runner.invoke(main, ["run", str(scen), "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert f"error: {error}" in result.output


def test_attack_trace_with_a_column_fewer_than_its_header_exits_2(runner, tmp_path):
    scen = gen(runner, tmp_path)
    result = runner.invoke(main, ["run", str(scen), "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    trace = tmp_path / "out" / "trajectory.csv"
    header, *rows = trace.read_text().splitlines()
    trace.write_text("\n".join([header] + [row.rsplit(",", 1)[0] for row in rows]) + "\n")
    width = len(header.split(","))
    result = runner.invoke(main, ["attack", str(trace), "--scenario", str(scen),
                                  "--out", str(tmp_path / "report.json")])
    assert result.exit_code == 2, result.output
    assert (f"error: malformed trace {trace}: {width - 1} columns under {width} names"
            in result.output)
    assert not (tmp_path / "report.json").exists()


def test_run_refuses_a_step_grid_too_large_to_allocate(runner, tmp_path):
    """t_end = 1e13 s at dt = 0.01 s is 1e15 steps, a grid of 8e15 bytes (7 PiB):
    the allocation fails before any page is touched, and the run exits 2 at
    $.sim.t_end, naming the size."""
    scen = gen(runner, tmp_path)
    doc = json.loads(scen.read_text())
    doc["sim"]["t_end"] = 1e13
    for kind in (INTEGRAL, PRIVACY_PRESERVING):  # simulate's grid, and load_steps' first
        doc["scheme"]["kind"] = kind
        scen.write_text(json.dumps(doc))
        result = runner.invoke(main, ["run", str(scen), "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert ("error: $.sim.t_end: 1000000000000001 steps of dt=0.01: their grid of 8e+15 "
                "bytes cannot be allocated") in result.output
