"""Record the cli-compare workload's rmse_ratio_vs_baseline per scenario.

The ratio is computed from in-memory trajectories, which the CLI's CSV
round trip reproduces. Run from the repository root, at the commit whose
behaviour the benchmark should hold later commits to:

    python3 perfbench/record_reference.py

records the CLI_SCENARIOS scenarios that benchmark seeds map to into
perfbench/reference.json, keyed by scenario seed.
"""

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from run import git_state  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import CLI_SCENARIOS, REFERENCE, CliCompare  # noqa: E402


def main():
    table = {}
    work_dir = Path(".perfbench_out") / "record"
    for seed in range(CLI_SCENARIOS):
        wl = CliCompare(seed, work_dir, Tracer(enabled=False))
        wl.setup()
        table[str(wl.scenario_seed)] = wl.reference_ratio()
        print(wl.scenario_seed, table[str(wl.scenario_seed)], flush=True)
    doc = {"recorded_at_commit": git_state()["sha"], "t_end": CliCompare.T_END,
           "rmse_ratio_vs_baseline": table}
    REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
    shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
