"""Time the CSV trace writer and reader on one seeded block and print one JSON line.

The block has 9001 rows and 191 float64 columns, the shape of the privacy
trace of the 10-bus, 4-units-per-bus reference scenario at 90 s: a time
column, then columns of normal draws, each at its own scale between 1e-6
and 1e2. It is written with `sim.write_csv`, then read back with
`Trajectory.from_csv` and, from the same file in the same round, with
`np.loadtxt`, the reader `from_csv` replaces. Run from the repository root:

    PYTHONPATH=src python tools/csv_cells.py

Prints {"cells", "bytes", "write_ns_per_cell", "read_ns_per_cell",
"loadtxt_read_ns_per_cell", "read_over_loadtxt", "bit_exact",
"loadtxt_bit_exact"}, each time the best of three rounds. Exits 1 when
either read differs from the block in any bit; the times are only reported.
"""

import json
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

from gridpriv.sim import Trajectory, write_csv

ROWS, COLS, REPEATS, SEED = 9001, 191, 3, 0


def loadtxt_cells(path):
    """The cells under a trace's header, read by np.loadtxt."""
    with open(path) as fh:
        fh.readline()
        return np.loadtxt(fh, delimiter=",", ndmin=2)


def main():
    rng = np.random.default_rng(SEED)
    times = np.arange(ROWS) * 0.01
    block = rng.standard_normal((ROWS, COLS - 1)) * 10.0 ** rng.uniform(-6, 2, COLS - 1)
    write_s, read_s, loadtxt_s = [], [], []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        for _ in range(REPEATS):
            t0 = perf_counter()
            write_csv(path, [("t", times), ("omega", block)])
            t1 = perf_counter()
            back = Trajectory.from_csv(path)
            t2 = perf_counter()
            loaded = loadtxt_cells(path)
            t3 = perf_counter()
            write_s.append(t1 - t0)
            read_s.append(t2 - t1)
            loadtxt_s.append(t3 - t2)
        size = path.stat().st_size
    want = np.column_stack([times, block]).view(np.uint64)
    got = np.column_stack([back.times, back.omega]).view(np.uint64)
    cells = want.size
    report = {"cells": cells, "bytes": size,
              "write_ns_per_cell": round(min(write_s) / cells * 1e9, 1),
              "read_ns_per_cell": round(min(read_s) / cells * 1e9, 1),
              "loadtxt_read_ns_per_cell": round(min(loadtxt_s) / cells * 1e9, 1),
              "read_over_loadtxt": round(min(read_s) / min(loadtxt_s), 3),
              "bit_exact": bool(np.array_equal(got, want)),
              "loadtxt_bit_exact": bool(np.array_equal(loaded.view(np.uint64), want))}
    json.dump(report, sys.stdout)
    print()
    return 0 if report["bit_exact"] and report["loadtxt_bit_exact"] else 1


if __name__ == "__main__":
    sys.exit(main())
