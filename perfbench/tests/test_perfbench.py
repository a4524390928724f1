"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from gridpriv import Trajectory  # noqa: E402
from run import run_op, tail  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, CliCompare, PrivacyEnsemble  # noqa: E402


class ShortTrace(CliCompare):
    """The real op, then one row cut off the integral scheme's trace."""

    def op(self, i):
        r = super().op(i)
        path = r["trace"]["integral"]
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:-1]))
        return r


def test_trace_one_row_short_is_a_failed_op(tmp_path):
    tracer = Tracer(enabled=False)
    wl = ShortTrace(0, tmp_path, tracer)
    wl.setup()
    r = run_op(wl, tracer, 1, traced=False)
    assert len(r["errors"]) == 1, r["errors"]
    steps = int(round(CliCompare.T_END / CliCompare.DT))
    assert f"integral: trajectory.csv has {steps} rows, expected {steps + 1}" in r["errors"][0]
    assert not (tmp_path / "op1").exists()


def test_an_op_that_raises_is_a_failed_op(tmp_path):
    class Broken(PrivacyEnsemble):
        def pair_doc(self, i):
            raise ValueError("bad document")

    tracer = Tracer(enabled=False)
    wl = Broken(0, tmp_path, tracer)
    wl.setup()
    r = run_op(wl, tracer, 1, traced=False)
    assert r["errors"] == ["ValueError: bad document"]
    assert r["op_s"] >= 0.0


def test_spans_nest_and_self_time_stays_within_parent():
    tr = Tracer()
    tr.op = 3
    with tr.span("root"):
        time.sleep(0.002)
        with tr.span("a"):
            time.sleep(0.002)
            with tr.span("a.inner"):
                time.sleep(0.001)
        with tr.span("b"):
            time.sleep(0.001)
    by_name = {s["name"]: s for s in tr.spans}
    assert by_name["root"]["parent"] is None
    assert by_name["a"]["parent"] == by_name["b"]["parent"] == by_name["root"]["id"]
    assert by_name["a.inner"]["parent"] == by_name["a"]["id"]
    for s in tr.spans:
        assert s["op"] == 3
        assert s["start"] <= s["end"]
        if s["parent"] is not None:
            parent = tr.spans[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
        duration = s["end"] - s["start"]
        assert 0.0 <= tr.self_time(s) <= duration
    root = by_name["root"]
    children = sum(by_name[n]["end"] - by_name[n]["start"] for n in ("a", "b"))
    assert tr.self_time(root) == pytest.approx(root["end"] - root["start"] - children)
    assert tr.self_time(root) >= 0.002


def test_patched_callables_are_traced_then_restored(tmp_path):
    import gridpriv.cli as cli

    originals = cli.simulate, Trajectory.__dict__["from_csv"]
    tr = Tracer()
    with tr.patched([(cli, "simulate", "sim.simulate"),
                     (Trajectory, "from_csv", "sim.Trajectory.from_csv")]):
        path = tmp_path / "t.csv"
        path.write_text("t,omega_0,pc_0\n0.0,0.0,1.0\n0.5,0.0,1.0\n")
        traj = Trajectory.from_csv(path)
    assert traj.p_c.shape == (2, 1)
    assert [s["name"] for s in tr.spans] == ["sim.Trajectory.from_csv"]
    assert (cli.simulate, Trajectory.__dict__["from_csv"]) == originals


def test_seed_changes_the_generated_scenarios(tmp_path):
    def docs(name, seed):
        wl = WORKLOADS[name](seed, tmp_path / f"{name}-{seed}", Tracer(enabled=False))
        wl.setup()
        return wl.pair_doc(1) if name == "privacy-ensemble" else wl.doc

    for name in WORKLOADS:
        assert docs(name, 0) == docs(name, 0)
        assert docs(name, 0) != docs(name, 1)


def test_tail_needs_ten_samples_beyond_it():
    assert tail(list(range(20))) is None
    t = tail([float(k) for k in range(100)])
    assert (t["percentile"], t["beyond"], t["value"]) == (90, 10, 89.0)
