"""The library names that the benchmark harness in perfbench/ imports and
wraps. Removing or renaming one of them breaks the benchmark before it
measures anything; this test breaks first."""

import importlib
import sys
from pathlib import Path

from click.testing import CliRunner

from gridpriv.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("spans", "stages", "workloads", "run")


def test_benchmark_imports_and_patch_targets_resolve(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        mods = {name: importlib.import_module(name) for name in MODULES}
        Tracer = mods["spans"].Tracer
        with Tracer().patched(mods["workloads"].CliCompare(0, tmp_path, Tracer()).patch_targets()):
            pass
    finally:
        for name in MODULES:  # generic module names; do not leave them importable
            sys.modules.pop(name, None)


def test_traced_compare_and_attack_size_every_trace_file(monkeypatch, tmp_path):
    """The cli-compare trace hooks take the file from the last positional
    argument of to_csv and from_csv, so attack passes its scenario by keyword."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        mods = {name: importlib.import_module(name) for name in MODULES}
        tracer = mods["spans"].Tracer()
        runner, scen, out = CliRunner(), tmp_path / "scenario.json", tmp_path / "cmp"
        with tracer.patched(mods["workloads"].CliCompare(0, tmp_path, tracer).patch_targets()):
            for args in (["gen-scenario", str(scen), "--buses", "3", "--t-end", "2"],
                         ["compare", str(scen), "--out", str(out)],
                         ["attack", str(out / "privacy_preserving" / "trajectory.csv"),
                          "--scenario", str(scen), "--baseline",
                          str(out / "extended_primal_dual" / "trajectory.csv"),
                          "--out", str(tmp_path / "attack.json")]):
                result = runner.invoke(main, args)
                assert result.exit_code == 0, result.output
    finally:
        for name in MODULES:
            sys.modules.pop(name, None)
    for name, count in (("sim.Trajectory.to_csv", 4), ("sim.Trajectory.from_csv", 2)):
        spans = tracer.named(name)
        assert len(spans) == count and all(s["bytes"] > 0 for s in spans)
