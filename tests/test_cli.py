import json

import numpy as np
import pytest
from click.testing import CliRunner

from gridpriv.cli import main


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
    for prefix in ("omega_0", "pc_0", "psi_0", "x_0", "s_tilde_0", "xi_0", "nf_0"):
        assert prefix in header
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
        assert (out / f"fig_communicated_{kind}.csv").exists()
    assert (out / "fig_frequency.csv").exists()
    assert (out / "fig_inferred_demand.csv").exists()


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
