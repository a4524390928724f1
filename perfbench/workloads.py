"""The three benchmark workloads. Each is a closed loop with one client.

A workload generates its scenario documents from the benchmark seed,
runs one op at a time, and checks every op's outputs untimed. `--seed 0`
reproduces the default scenarios named in README.md.
"""

import copy
import json
import shutil
from pathlib import Path
from time import perf_counter

import numpy as np
from click.testing import CliRunner

import gridpriv.cli as cli
from gridpriv import (
    KnowledgeSet,
    RandomScenarioSpec,
    Trajectory,
    build_scenario,
    gen_scenario,
    observer_attack,
    simulate,
)
from gridpriv.adversary import CENTRAL_DIFF, EXACT_DERIV
from gridpriv.scenario import save_scenario
from gridpriv.schemes import (
    EXTENDED_PRIMAL_DUAL,
    PRIVACY_PRESERVING,
    SCHEME_KINDS,
    design_condition_report,
)
from gridpriv.sim import SETTLE_THRESHOLD, steady_state_metrics

HERE = Path(__file__).resolve().parent
# rmse_ratio_vs_baseline of each cli-compare scenario, recorded per scenario
# seed by record_reference.py.
REFERENCE = HERE / "reference.json"
# cli-compare draws its scenario from this many seeds, so that every run is
# checked against a recorded value.
CLI_SCENARIOS = 128
RATIO_RTOL = 1e-6  # far above the 1e-13-level drift of reordered float sums
CONSENSUS_KINDS = [k for k in SCHEME_KINDS if k != "integral"]


def final_lambda(doc):
    """Dispatch multiplier after all load steps, from the document alone."""
    p_load = sum(u["p_l"] for u in doc["devices"]) + sum(d["delta"] for d in doc["disturbances"])
    return -p_load / sum(1.0 / u["q"] for u in doc["devices"])


def line_count(path, chunk=1 << 20):
    """Newlines in a file, read in small chunks so that the check does not
    grow the heap the next op runs in."""
    with open(path, "rb") as fh:
        return sum(block.count(b"\n") for block in iter(lambda: fh.read(chunk), b""))


def variant(doc, kind):
    out = copy.deepcopy(doc)
    out["scheme"]["kind"] = kind
    return out


def attack_rmse(traj, sc, deriv=CENTRAL_DIFF):
    return observer_attack(traj, sc.comm, sc.scheme, KnowledgeSet(), deriv=deriv).rmse_transient


def lyapunov_violations(sc, traj):
    """Per-step increases of V above acceptance criterion 5's slack."""
    v = traj.lyapunov
    slack = np.full(len(v) - 1, 1e-7 * (1.0 + v[0]))
    if sc.scheme.kind == PRIVACY_PRESERVING:
        priv = sc.scheme.privacy
        d_pc = traj.p_c - traj.equilibrium.p_c_star
        slack = slack + (0.5 * priv.safety * sc.dt * (d_pc**2 @ priv.beta_hat))[:-1]
    return int(np.sum(np.diff(v) > slack))


class Workload:
    """setup() is repeated to time set-up; op() runs and times one op;
    check() and cleanup() run untimed after it; finish() checks the run."""

    name = ""

    def __init__(self, seed, work_dir, tracer):
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.tr = tracer
        self.last = {}

    def patch_targets(self):
        return []

    def cleanup(self, result):
        pass

    def finish(self, results):
        return []


class CliCompare(Workload):
    """`gridpriv compare` over all four schemes, then `gridpriv attack`,
    through the click entry point on the reference 10 x 4 network. The op
    is the pair of commands, the workflow a user waits on."""

    name = "cli-compare"
    T_END = 90.0
    DT = 0.01

    def setup(self):
        self.scenario_seed = 7 + self.seed % CLI_SCENARIOS
        with self.tr.span("scenario.gen_scenario"):
            self.doc = gen_scenario(RandomScenarioSpec(
                bus_count=10, units_per_bus=(4, 4), t_end=self.T_END, dt=self.DT,
                seed=self.scenario_seed))
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.scenario_path = self.work_dir / "scenario.json"
        save_scenario(self.doc, self.scenario_path)
        self.lam = final_lambda(self.doc)
        self.rows = int(round(self.T_END / self.DT)) + 1
        recorded = json.loads(REFERENCE.read_text())
        self.reference = (recorded["rmse_ratio_vs_baseline"].get(str(self.scenario_seed))
                          if recorded.get("t_end") == self.T_END else None)

    def op(self, i):
        out = self.work_dir / f"op{i}"
        runner = CliRunner()
        t0 = perf_counter()
        with self.tr.span("cli.compare"):
            compare = runner.invoke(cli.main, [
                "compare", str(self.scenario_path), "--out", str(out)])
        t1 = perf_counter()
        trace = {k: out / k / "trajectory.csv" for k in SCHEME_KINDS}
        with self.tr.span("cli.attack"):
            attack = runner.invoke(cli.main, [
                "attack", str(trace[PRIVACY_PRESERVING]), "--scenario", str(self.scenario_path),
                "--baseline", str(trace[EXTENDED_PRIMAL_DUAL]), "--out", str(out / "attack.json")])
        t2 = perf_counter()
        return {"op_s": t2 - t0, "attack_s": t2 - t1, "out": out, "trace": trace,
                "exit": (compare.exit_code, attack.exit_code)}

    def check(self, r):
        if r["exit"] != (0, 0):
            return [f"exit codes (compare, attack) = {r['exit']}"]
        errors = []
        metrics = json.loads((r["out"] / "metrics.json").read_text())
        for kind in SCHEME_KINDS:
            m = metrics[kind]
            if not m["max_abs_omega_end"] < SETTLE_THRESHOLD:
                errors.append(f"{kind}: frequency not restored ({m['max_abs_omega_end']:.3g})")
            spread = m["marginal_cost_spread_end"] / abs(self.lam)
            if kind in CONSENSUS_KINDS and not spread < 1e-3:
                errors.append(f"{kind}: marginal cost spread {spread:.3g} |lambda|")
            if kind not in CONSENSUS_KINDS and not spread > 1e-2:
                errors.append(f"{kind}: marginal costs equalised ({spread:.3g} |lambda|)")
            if not abs(m["lambda"] - self.lam) <= 1e-9 * abs(self.lam):
                errors.append(f"{kind}: lambda {m['lambda']} != {self.lam}")
            rows = line_count(r["trace"][kind]) - 1
            if rows != self.rows:
                errors.append(f"{kind}: trajectory.csv has {rows} rows, expected {self.rows}")
        ratio = json.loads((r["out"] / "attack.json").read_text())["rmse_ratio_vs_baseline"]
        r["rmse_ratio"] = ratio
        r["figures_mb"] = sum(p.stat().st_size for p in r["out"].glob("fig_*.csv")) / 1e6
        if self.reference is None:
            return errors + [f"no rmse_ratio_vs_baseline recorded at t_end {self.T_END} "
                             f"for scenario seed {self.scenario_seed}"]
        if not abs(ratio - self.reference) <= RATIO_RTOL * self.reference:
            errors.append(f"rmse_ratio_vs_baseline {ratio!r} != recorded {self.reference!r}")
        return errors

    def reference_ratio(self):
        """The same ratio from in-memory trajectories, which the CLI's CSV
        round trip reproduces within RATIO_RTOL; record_reference.py records it."""
        sc_p = build_scenario(variant(self.doc, PRIVACY_PRESERVING))
        sc_e = build_scenario(variant(self.doc, EXTENDED_PRIMAL_DUAL))
        return attack_rmse(simulate(sc_p), sc_p) / attack_rmse(simulate(sc_e), sc_p)

    def cleanup(self, r):
        shutil.rmtree(r["out"], ignore_errors=True)

    def patch_targets(self):
        def sim_counts(rec, traj, args):
            sc = args[0]
            rec.update(scheme=sc.scheme.kind, steps=int(round(sc.t_end / sc.dt)),
                       samples=len(traj.times))
            self.probe_traj[sc.scheme.kind] = (sc, traj)

        def file_bytes(rec, _result, args):
            rec["bytes"] = Path(args[-1]).stat().st_size

        self.probe_traj = {}
        return [(cli, "simulate", "sim.simulate", sim_counts),
                (cli, "build_scenario", "scenario.build_scenario"),
                (cli, "load_scenario", "scenario.load_scenario"),
                (cli, "solve_kkt", "equilibrium.solve_kkt"),
                (cli, "steady_state_metrics", "sim.steady_state_metrics"),
                (cli, "marginal_costs", "sim.marginal_costs"),
                (cli, "observer_attack", "adversary.observer_attack"),
                (Trajectory, "to_csv", "sim.Trajectory.to_csv", file_bytes),
                (Trajectory, "from_csv", "sim.Trajectory.from_csv", file_bytes)]

    def probe(self):
        return self.probe_traj[PRIVACY_PRESERVING]


class InProcess(Workload):
    """Shared op body of the workloads that call the library directly."""

    def simulate(self, sc):
        with self.tr.span("sim.simulate", scheme=sc.scheme.kind,
                          steps=int(round(sc.t_end / sc.dt))) as rec:
            traj = simulate(sc)
        rec["samples"] = len(traj.times)
        return traj

    def observe(self, traj, sc, deriv=CENTRAL_DIFF):
        with self.tr.span("adversary.observer_attack"):
            return attack_rmse(traj, sc, deriv)

    def release(self):
        """Drop the previous op's trajectories; the last op's feed the probe."""
        self.last.pop("keep", None)

    def probe(self):
        return self.last["keep"][PRIVACY_PRESERVING]


class PrivacyEnsemble(InProcess):
    """One op is one seeded plain/privacy pair of 4-bus systems, attacked."""

    name = "privacy-ensemble"
    PAIRS = 20

    def setup(self):
        self.base = 100 + self.PAIRS * self.seed

    def pair_doc(self, i):
        with self.tr.span("scenario.gen_scenario"):
            return gen_scenario(RandomScenarioSpec(
                bus_count=4, units_per_bus=(2, 3), t_end=15.0, seed=self.base + i % self.PAIRS))

    def op(self, i):
        self.release()
        t0 = perf_counter()
        doc = self.pair_doc(i)
        keep = {}
        for kind in (EXTENDED_PRIMAL_DUAL, PRIVACY_PRESERVING):
            with self.tr.span("scenario.build_scenario"):
                sc = build_scenario(variant(doc, kind))
            keep[kind] = (sc, self.simulate(sc))
        t1 = perf_counter()
        (sc_e, traj_e), (sc_p, traj_p) = keep[EXTENDED_PRIMAL_DUAL], keep[PRIVACY_PRESERVING]
        ratio = self.observe(traj_p, sc_p) / self.observe(traj_e, sc_e)
        exact = self.observe(traj_e, sc_e, EXACT_DERIV)
        t2 = perf_counter()
        self.last = {"op_s": t2 - t0, "attack_s": t2 - t1, "pair": i % self.PAIRS,
                     "rmse_ratio": ratio, "exact_rmse": exact, "keep": keep}
        return self.last

    def check(self, r):
        errors = []
        if not r["exact_rmse"] < 1e-9:
            errors.append(f"exact-derivative rmse {r['exact_rmse']:.3g}")
        for kind, (sc, traj) in r["keep"].items():
            bad = lyapunov_violations(sc, traj)
            if bad:
                errors.append(f"{kind}: {bad} Lyapunov increases above slack")
        if not np.isfinite(r["rmse_ratio"]):
            errors.append("rmse ratio not finite")
        return errors

    def finish(self, results):
        by_pair = {r["pair"]: r["rmse_ratio"] for r in results if "rmse_ratio" in r}
        median = float(np.median(list(by_pair.values())))
        if median >= 5.0:
            return []
        return [f"median rmse ratio {median:.3g} over {len(by_pair)} pairs is below 5"]


class LargeNetwork(InProcess):
    """Both unit-level schemes on a 200-bus, ~800-unit network, attacked."""

    name = "large-network"
    T_END = 10.0

    def setup(self):
        with self.tr.span("scenario.gen_scenario"):
            self.doc = gen_scenario(RandomScenarioSpec(
                bus_count=200, units_per_bus=(3, 5), t_end=self.T_END, seed=7 + self.seed))
        self.scenarios = {}
        for kind in (EXTENDED_PRIMAL_DUAL, PRIVACY_PRESERVING):
            with self.tr.span("scenario.build_scenario"):
                self.scenarios[kind] = build_scenario(variant(self.doc, kind))

    def op(self, i):
        self.release()
        t0 = perf_counter()
        keep = {kind: (sc, self.simulate(sc)) for kind, sc in self.scenarios.items()}
        t1 = perf_counter()
        (sc_e, traj_e), (sc_p, traj_p) = keep[EXTENDED_PRIMAL_DUAL], keep[PRIVACY_PRESERVING]
        ratio = self.observe(traj_p, sc_p) / self.observe(traj_e, sc_e)
        t2 = perf_counter()
        self.last = {"op_s": t2 - t0, "attack_s": t2 - t1, "rmse_ratio": ratio, "keep": keep}
        return self.last

    def check(self, r):
        errors = []
        sc_p = self.scenarios[PRIVACY_PRESERVING]
        if not design_condition_report(sc_p.devices, sc_p.model, sc_p.scheme.privacy)[0].all():
            errors.append("design condition violated")
        for kind, (sc, traj) in r["keep"].items():
            states = (traj.omega, traj.eta, traj.x, traj.p_c, traj.psi)
            if not all(np.isfinite(a).all() for a in states):
                errors.append(f"{kind}: non-finite trajectory")
            elif not steady_state_metrics(
                    traj, 0.1 * self.T_END)["max_abs_omega_end"] < SETTLE_THRESHOLD:
                errors.append(f"{kind}: frequency not restored in the final window")
        sc_e, traj_e = r["keep"][EXTENDED_PRIMAL_DUAL]
        exact = attack_rmse(traj_e, sc_e, EXACT_DERIV)
        if not exact < 1e-9:
            errors.append(f"exact-derivative rmse {exact:.3g}")
        return errors


WORKLOADS = {w.name: w for w in (CliCompare, PrivacyEnsemble, LargeNetwork)}
