"""The library names that the benchmark harness in perfbench/ imports and
wraps. Removing or renaming one of them breaks the benchmark before it
measures anything; this test breaks first."""

import importlib
import sys
from pathlib import Path

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
