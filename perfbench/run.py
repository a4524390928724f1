"""gridpriv benchmark: one workload, one process, one closed-loop client.

Run from the repository root:

    python3 perfbench/run.py --workload cli-compare --seed 0 --seconds 15 --trace 0

The program is imported from ./src. The run sets up (import, scenario
generation, one checked warm-up op), then runs ops back to back for
--seconds, at least one op (two when traced), and checks each op's outputs
untimed. With --trace 0 it reports the end-to-end metrics; with --trace 1
it records spans around calls into gridpriv's modules on every other op,
times the per-stage dynamics in isolation, and reports the per-layer
metrics. The last stdout line is {"correct", "attempted", "failed",
"metrics"} with the metrics that BENCHMARK.json declares; the line before
it is the full report, with provenance. Spans and reports are written
under .perfbench_out/.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter, process_time

ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
# A cli-compare op can outlast --seconds; the traced run still needs one
# traced and one untraced op for its overhead ratio.
MIN_OPS = {0: 1, 1: 2}
MAX_BLAS_THREADS = 2


def limit_blas_threads():
    """Cap BLAS threads before numpy loads; returns the cap."""
    cap = min(MAX_BLAS_THREADS, os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= cap):
            os.environ[var] = str(cap)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def calibrate():
    """Seconds for a fixed pure-Python loop, a probe of machine speed.
    Reported next to the metrics, never used to rescale them."""
    samples = []
    for _ in range(3):
        t0 = perf_counter()
        acc = 0
        for k in range(1_000_000):
            acc += k * k % 7
        samples.append(perf_counter() - t0)
    return median(samples)


def blas_info(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"),
            "threads_env": os.environ["OPENBLAS_NUM_THREADS"]}
    try:
        import ctypes
        libs = Path(np.__file__).parent.parent / "numpy.libs"
        lib = ctypes.CDLL(str(next(libs.glob("libscipy_openblas*"))))
        info["threads"] = int(lib.scipy_openblas_get_num_threads64_())
    except (OSError, StopIteration, AttributeError):
        info["threads"] = None
    return info


def git_state():
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None, "note": "not a git checkout"}
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              timeout=30, check=True).stdout.strip()
    try:
        return {"sha": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None, "note": "git failed"}


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def seed_arg(text):
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return seed


def tail(samples):
    """Highest percentile with at least ten samples beyond it (nearest
    rank), or None when there are too few samples for one above p50."""
    n = len(samples)
    pct = int(100 * (n - 10) / n) if n > 20 else 0
    if pct <= 50:
        return None
    s = sorted(samples)
    rank = -(-pct * n // 100)  # ceil
    return {"percentile": pct, "value": s[rank - 1], "samples": n, "beyond": n - rank}


def run_op(wl, tracer, i, traced):
    """Run, check and clean up one op; errors mark it failed."""
    tracer.op, r, errors = i, None, []
    t0 = perf_counter()
    try:
        tracer.enabled = traced
        with tracer.patched(wl.patch_targets() if traced else []):
            with tracer.span("op", index=i):
                r = wl.op(i)
        tracer.enabled = False
        errors = wl.check(r)
    except Exception as exc:  # an op that raises is a failed op; the run goes on
        errors = [f"{type(exc).__name__}: {exc}"]
    finally:
        tracer.enabled = False
    if r is None:
        r = {"op_s": perf_counter() - t0, "attack_s": None}
    try:
        wl.cleanup(r)
    except OSError as exc:
        errors.append(f"cleanup: {exc}")
    r.update(index=i, traced=traced, errors=errors)
    return r


def layer_metrics(tracer, measured, stage_s, proc):
    from stages import rhs_share

    traced_ops = [r["index"] for r in measured if r["traced"]]
    by_op = {op: [s for s in tracer.spans if s["op"] == op] for op in traced_ops}

    def dur(s):
        return s["end"] - s["start"]

    def per_op(names, value=dur):
        return median(sum(value(s) for s in spans if s["name"] in names)
                      for spans in by_op.values())

    def per_call(name, ops=None):
        return median(dur(s) for s in tracer.named(name, ops))

    m = {"scenario.gen_s": (per_call("scenario.gen_scenario"), "s"),
         "scenario.build_s": (per_call("scenario.build_scenario"), "s"),
         "equilibrium.build_s": (stage_s["equilibrium.build_equilibrium"], "s"),
         "equilibrium.lyapunov_us": (stage_s["equilibrium.lyapunov_value"] * 1e6, "us"),
         "equilibrium.lyapunov_calls": (per_op({"sim.simulate"}, lambda s: s["samples"] if s[
             "scheme"] in ("extended_primal_dual", "privacy_preserving") else 0), "count"),
         "network.swing_rhs_us": (stage_s["network.swing_rhs"] * 1e6, "us"),
         "devices.outputs_us": (stage_s["devices.device_outputs"] * 1e6, "us"),
         "devices.rhs_us": (stage_s["devices.device_rhs"] * 1e6, "us"),
         "schemes.scheme_rhs_us": (stage_s["schemes.scheme_rhs"] * 1e6, "us"),
         "schemes.refresh_privacy_us": (stage_s["schemes.refresh_privacy_signals"] * 1e6, "us"),
         "sim.simulate_s": (per_op({"sim.simulate"}), "s"),
         "sim.steps": (per_op({"sim.simulate"}, lambda s: s["steps"]), "count"),
         "sim.rhs_evals": (per_op({"sim.simulate"}, lambda s: 4 * s["steps"] + 1), "count"),
         "sim.samples": (per_op({"sim.simulate"}, lambda s: s["samples"]), "count"),
         "adversary.observer_s": (per_call("adversary.observer_attack", traced_ops), "s"),
         "adversary.rmse_ratio": (median(r["rmse_ratio"] for r in measured if "rmse_ratio" in r),
                                  "ratio")}
    sims = [s for op in traced_ops for s in by_op[op] if s["name"] == "sim.simulate"]
    for kind in sorted({s["scheme"] for s in sims}):
        m[f"sim.step_us.{kind}"] = (median(dur(s) / s["steps"] for s in sims
                                           if s["scheme"] == kind) * 1e6, "us")
    m["sim.rhs_share"] = (rhs_share(stage_s, m["sim.step_us.privacy_preserving"][0] / 1e6),
                          "ratio")
    if tracer.named("sim.steady_state_metrics"):
        m["sim.metrics_s"] = (per_op({"sim.steady_state_metrics", "sim.marginal_costs"}), "s")
    for name, key in (("sim.Trajectory.to_csv", "write"), ("sim.Trajectory.from_csv", "read")):
        if tracer.named(name):
            secs, size = per_op({name}), per_op({name}, lambda s: s["bytes"]) / 1e6
            m[f"sim.trace_{key}_s"] = (secs, "s")
            m[f"sim.trace_{key}_mb"] = (size, "MB")
            m[f"sim.trace_{key}_mb_per_s"] = (size / secs, "MB/s")
    for name in ("cli.compare", "cli.attack"):
        if tracer.named(name):
            self_s = median(tracer.self_time(s) for s in tracer.named(name, traced_ops))
            m[f"{name}_self_s"] = (self_s, "s")
    figures = [r["figures_mb"] for r in measured if r["traced"] and "figures_mb" in r]
    if figures:
        m["cli.figures_mb"] = (median(figures), "MB")
    traced = [r["op_s"] for r in measured if r["traced"]]
    plain = [r["op_s"] for r in measured if not r["traced"]]
    m["trace.overhead_ratio"] = (median(traced) / median(plain), "ratio")
    m.update(proc)
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=seed_arg, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    declared_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "gridpriv" / "__init__.py").is_file() or not declared_path.is_file():
        print("error: run from the repository root (needs src/gridpriv and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    declared = json.loads(declared_path.read_text())
    blas_cap = limit_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    calib_start = calibrate()

    t0 = perf_counter()
    import numpy as np
    import gridpriv
    import gridpriv.cli  # noqa: F401  (the CLI workload's entry point)
    import_s = perf_counter() - t0

    from spans import Tracer
    from stages import stage_timings
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work_dir = OUT / f"work-{args.workload}"
    shutil.rmtree(work_dir, ignore_errors=True)
    tracer = Tracer(enabled=bool(args.trace))
    wl = WORKLOADS[args.workload](args.seed, work_dir, tracer)

    setup_reps = []
    for _ in range(SETUP_REPEATS):
        t = perf_counter()
        with tracer.span("setup"):
            wl.setup()
        setup_reps.append(perf_counter() - t)
    t = perf_counter()
    with tracer.span("proc.warmup"):
        warm = run_op(wl, tracer, 0, traced=False)
    tracer.enabled = bool(args.trace)
    warmup_s = perf_counter() - t
    setup_s = import_s + median(setup_reps) + warmup_s
    # One op in a fresh process, as a CLI user runs it. Later ops run in a
    # heap the earlier ones fragmented, and their peak varies with that
    # history by up to 27% on cli-compare; it is reported, not gated.
    warm_rss_mb = peak_rss_mb()

    measured = []
    cpu0, wall0 = process_time(), perf_counter()
    deadline = wall0 + args.seconds
    i = 1
    while perf_counter() < deadline or i <= MIN_OPS[args.trace]:
        measured.append(run_op(wl, tracer, i, traced=bool(args.trace) and i % 2 == 1))
        i += 1
    cpu_per_wall = (process_time() - cpu0) / (perf_counter() - wall0)
    run_errors = wl.finish([warm, *measured])

    stage_s = None
    if args.trace:
        tracer.enabled, tracer.op = True, "stages"
        sc, traj = wl.probe()
        stage_s = stage_timings(sc, traj, tracer)
        tracer.enabled = False
    calib_end = calibrate()
    shutil.rmtree(work_dir, ignore_errors=True)

    ops = [warm, *measured]
    failed = sum(bool(r["errors"]) for r in ops)
    if run_errors:
        failed = len(ops)
    op_s = [r["op_s"] for r in measured]
    attack_s = [r["attack_s"] for r in measured if r["attack_s"] is not None]
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_s.p50": (median(op_s), "s"),
        "attack_s": (median(attack_s) if attack_s else 0.0, "s"),  # 0.0: every op raised
        "peak_rss_mb": (warm_rss_mb, "MB"),
        "peak_rss_run_mb": (peak_rss_mb(), "MB"),
        "failed_ratio": (failed / len(ops), "ratio"),
    }
    proc = {"proc.import_s": (import_s, "s"), "proc.warmup_s": (warmup_s, "s"),
            "proc.cpu_per_wall": (cpu_per_wall, "ratio"),
            "env.calib_s.start": (calib_start, "s"), "env.calib_s.end": (calib_end, "s"),
            "ops.attempted": (len(ops), "count"), "ops.failed": (failed, "count")}
    if args.trace:
        metrics.update(layer_metrics(tracer, measured, stage_s, proc))
    else:
        metrics.update(proc)
    op_tail = tail(op_s)

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "provenance": {**git_state(), "python": platform.python_version(),
                       "numpy": np.__version__, "gridpriv": gridpriv.__version__,
                       "blas": blas_info(np), "blas_cap": blas_cap,
                       "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                       "cpu": cpu_model()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "op_s.tail": op_tail,
        "op_s.samples": op_s,
        "errors": [e for r in ops for e in r["errors"]][:20] + run_errors,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"report-{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        tracer.write(OUT / f"spans-{stem}.json")
    print(json.dumps(report))

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {d["name"]: {"value": metrics[d["name"]][0], "unit": d["unit"]}
                    for d in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
