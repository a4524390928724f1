"""Time the CSV trace writer and reader on one seeded block and print one JSON line.

The block has 9001 rows and 191 float64 columns, the shape of the privacy
trace of the 10-bus, 4-units-per-bus reference scenario at 90 s: a time
column, then columns of normal draws, each at its own scale between 1e-6
and 1e2. It is written with `sim.write_csv` and read back with
`Trajectory.from_csv`. Run from the repository root:

    PYTHONPATH=src python tools/csv_cells.py

Prints {"cells", "bytes", "write_ns_per_cell", "read_ns_per_cell",
"bit_exact"}, each time the best of three runs.
"""

import json
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

from gridpriv.sim import Trajectory, write_csv

ROWS, COLS, REPEATS, SEED = 9001, 191, 3, 0


def main():
    rng = np.random.default_rng(SEED)
    times = np.arange(ROWS) * 0.01
    block = rng.standard_normal((ROWS, COLS - 1)) * 10.0 ** rng.uniform(-6, 2, COLS - 1)
    write_s, read_s = [], []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        for _ in range(REPEATS):
            t0 = perf_counter()
            write_csv(path, [("t", times), ("omega", block)])
            t1 = perf_counter()
            back = Trajectory.from_csv(path)
            t2 = perf_counter()
            write_s.append(t1 - t0)
            read_s.append(t2 - t1)
        size = path.stat().st_size
    want = np.column_stack([times, block])
    got = np.column_stack([back.times, back.omega])
    cells = want.size
    json.dump({"cells": cells, "bytes": size,
               "write_ns_per_cell": round(min(write_s) / cells * 1e9, 1),
               "read_ns_per_cell": round(min(read_s) / cells * 1e9, 1),
               "bit_exact": bool(np.array_equal(got.view(np.uint64), want.view(np.uint64)))},
              sys.stdout)
    print()


if __name__ == "__main__":
    main()
