"""Command-line front end: run scenarios, generate them, attack traces.

Exit codes: 0 success, 2 input/configuration error, 3 numerical failure.
Set GRIDPRIV_LOG to control log verbosity.
"""

import functools
import json
import logging
import os
import sys
from pathlib import Path

import click
import numpy as np

from . import schemes, sim
from .adversary import CENTRAL_DIFF, _reconstruct, observer_attack
from .equilibrium import solve_kkt
from .errors import ConfigurationError, DivergenceError, GridPrivError
from .scenario import (
    RandomScenarioSpec,
    build_scenario,
    gen_scenario,
    load_knowledge,
    load_scenario,
    load_json,
    save_scenario,
)
from .sim import Trajectory, marginal_costs, simulate, steady_state_metrics

log = logging.getLogger("gridpriv")


def _handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except DivergenceError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        except (GridPrivError, FileNotFoundError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
    return wrapper


@click.group()
def main():
    logging.basicConfig(level=os.environ.get("GRIDPRIV_LOG", "WARNING").upper())


def _run_one(scenario, out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    traj = simulate(scenario)
    traj.to_csv(out_dir / "trajectory.csv")

    kkt = solve_kkt(scenario.devices, scenario.final_load())
    window = max(scenario.dt * scenario.record_stride, 0.1 * scenario.t_end)
    metrics = steady_state_metrics(traj, window, devices=scenario.devices)
    metrics["lambda"] = kkt.lam
    metrics["scheme"] = scenario.scheme.kind
    save_scenario(metrics, out_dir / "metrics.json")
    save_scenario({
        "lambda": kkt.lam,
        "p_c_star": -kkt.lam,
        "p_M_star": kkt.p_M_star.tolist(),
        "d_c_star": kkt.d_c_star.tolist(),
        "total_cost": kkt.total_cost,
    }, out_dir / "equilibrium.json")
    return traj, metrics


@main.command("run")
@click.argument("scenario_path", type=click.Path(exists=True))
@click.option("--out", "out_dir", default="out", type=click.Path(), help="output directory")
@click.option("--seed", type=int, default=None, help="override the scenario seed")
@click.option("--dt", type=float, default=None, help="override the time step")
@_handle_errors
def run_cmd(scenario_path, out_dir, seed, dt):
    """Simulate one scenario; write trajectory.csv, metrics.json, equilibrium.json."""
    scenario = load_scenario(scenario_path, seed=seed, dt=dt)
    _, metrics = _run_one(scenario, out_dir)
    click.echo(json.dumps(metrics, sort_keys=True))


@main.command("gen-scenario")
@click.argument("out_path", type=click.Path())
@click.option("--buses", default=10, type=int)
@click.option("--units-min", default=3, type=int)
@click.option("--units-max", default=5, type=int)
@click.option("--q-min", default=50.0, type=float)
@click.option("--q-max", default=250.0, type=float)
@click.option("--comm-style", default="tree", type=click.Choice(["tree", "random"]))
@click.option("--edge-prob", default=0.1, type=float)
@click.option("--magnitude", default=0.2, type=float, help="disturbance size, pu")
@click.option("--scheme", "scheme_kind", default=schemes.PRIVACY_PRESERVING,
              type=click.Choice(list(schemes.SCHEME_KINDS)))
@click.option("--t-end", default=60.0, type=float)
@click.option("--seed", default=0, type=int)
@_handle_errors
def gen_scenario_cmd(out_path, buses, units_min, units_max, q_min, q_max, comm_style,
                     edge_prob, magnitude, scheme_kind, t_end, seed):
    """Emit a random, valid scenario file (deterministic per seed)."""
    spec = RandomScenarioSpec(
        bus_count=buses, units_per_bus=(units_min, units_max), q_range=(q_min, q_max),
        comm_style=comm_style, edge_prob=edge_prob, disturbance_magnitude=magnitude,
        scheme_kind=scheme_kind, t_end=t_end, seed=seed,
    )
    save_scenario(gen_scenario(spec), out_path)
    click.echo(out_path)


@main.command("attack")
@click.argument("trajectory_path", type=click.Path(exists=True))
@click.option("--scenario", "scenario_path", required=True, type=click.Path(exists=True),
              help="scenario file supplying the dynamics the adversary knows")
@click.option("--knowledge", "knowledge_path", default=None, type=click.Path(exists=True),
              help="JSON: {channels: 'all'|[unit indices], deriv: 'central'|'forward'}")
@click.option("--baseline", "baseline_path", default=None, type=click.Path(exists=True),
              help="paired trace for the rmse ratio")
@click.option("--out", "out_path", default="attack_report.json", type=click.Path())
@_handle_errors
def attack_cmd(trajectory_path, scenario_path, knowledge_path, baseline_path, out_path):
    """Run the observer attack and origin detection on a recorded trace."""
    doc = load_json(scenario_path)
    build_scenario(doc)  # the file as written must be valid; its scheme kind has no say
    scenario = _build_as(doc, schemes.EXTENDED_PRIMAL_DUAL)
    knowledge, deriv = load_knowledge(knowledge_path, scenario.devices.n_units)

    def attack(path, disturbance_time):
        """Read, check and attack one trace; a mismatch names the file."""
        # scenario by keyword: perfbench's trace hook takes the file from the last positional
        traj = Trajectory.from_csv(path, scenario=scenario)
        try:
            return observer_attack(traj, scenario.comm, scenario.scheme, knowledge,
                                   deriv=deriv, disturbance_time=disturbance_time)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{path}: {exc}") from exc

    dist_time = scenario.disturbances[0].time if scenario.disturbances else None
    doc = attack(trajectory_path, dist_time).to_dict()  # drops the trace before the baseline's
    doc["scenario"] = str(scenario_path)
    if dist_time is not None:
        doc["disturbed_units"] = [d.unit for d in scenario.disturbances]
    if baseline_path:
        base_rmse = attack(baseline_path, None).rmse_transient
        doc["baseline_rmse_transient"] = base_rmse
        doc["rmse_ratio_vs_baseline"] = (
            doc["rmse_transient"] / base_rmse if base_rmse > 0 else None)
    save_scenario(doc, out_path)
    click.echo(json.dumps({"rmse_transient": doc["rmse_transient"],
                           "rmse_steady": doc["rmse_steady"]}, sort_keys=True))


@main.command("compare")
@click.argument("scenario_path", type=click.Path(exists=True))
@click.option("--schemes", "scheme_list", default=",".join(schemes.SCHEME_KINDS),
              help="comma-separated scheme kinds")
@click.option("--out", "out_dir", default="compare_out", type=click.Path())
@click.option("--seed", type=int, default=None)
@click.option("--dt", type=float, default=None)
@_handle_errors
def compare_cmd(scenario_path, scheme_list, out_dir, seed, dt):
    """Run one scenario under several schemes and emit side-by-side outputs."""
    doc = load_json(scenario_path)
    kinds = [k.strip() for k in scheme_list.split(",") if k.strip()]
    unknown = [k for k in kinds if k not in schemes.SCHEME_KINDS]
    if unknown or not kinds:
        raise ConfigurationError(f"--schemes takes kinds from {list(schemes.SCHEME_KINDS)}, "
                                 f"got {scheme_list!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    all_metrics, freq, inferred = {}, {}, {}
    for kind in kinds:
        scenario = _build_as(doc, kind, seed=seed, dt=dt)
        dist = scenario.disturbances
        watch_bus = int(scenario.devices.bus[dist[0].unit]) if dist else 0
        times, freq[kind], inferred[kind], metrics = _compare_one(scenario, out_dir, watch_bus)
        all_metrics[kind] = metrics
        log.info("scheme %s: peak=%.3g settle=%s spread=%.3g", kind, metrics["peak_abs_omega"],
                 metrics["settle_time"], metrics["p_c_spread_end"])

    settle = {k: m["settle_time"] for k, m in all_metrics.items()  # runs that left the band
              if m["peak_abs_omega"] >= m["settle_threshold"] and m["settle_time"] is not None}
    all_metrics["settle_time_ordering"] = sorted(settle, key=settle.get)
    save_scenario(all_metrics, out_dir / "metrics.json")
    sim.write_csv(out_dir / "fig_frequency.csv", [("t", times)] + [
        (f"freq_hz_bus{watch_bus}_{kind}", freq[kind]) for kind in kinds])
    observed = [k for k in schemes.UNIT_CONSENSUS_KINDS if k in kinds]
    if observed:
        sim.write_csv(out_dir / "fig_inferred_demand.csv",
                      [("t", times), ("true", inferred[observed[0]][0])]
                      + [(f"inferred_{kind}", inferred[kind][1]) for kind in observed])
    click.echo(str(out_dir / "metrics.json"))


def _build_as(doc, kind, seed=None, dt=None):
    """The scenario of document doc under scheme kind, sharing doc's parts; a doc or
    scheme that is not an object goes to build_scenario as it is, which names its path."""
    if isinstance(doc, dict) and isinstance(doc.get("scheme"), dict):
        doc = {**doc, "scheme": {**doc["scheme"], "kind": kind}}
    return build_scenario(doc, seed=seed, dt=dt)


def _compare_one(scenario, out_dir, watch_bus):
    """Run one scheme of `compare` and write its files. Only what the shared figures
    need is returned, so that one trajectory is alive at a time. The marginal costs
    and the observer's estimate are formed a block of samples at a time."""
    kind, devices = scenario.scheme.kind, scenario.devices
    traj, metrics = _run_one(scenario, out_dir / kind)
    sim.write_csv(out_dir / f"fig_marginal_costs_{kind}.csv",
                  [("t", traj.times), ("mc", lambda rows: marginal_costs(traj, devices, rows))])
    inferred = None
    if kind in schemes.UNIT_CONSENSUS_KINDS:  # the first units' s_tilde and central estimate
        true, est = np.empty((2, len(traj.times), min(3, devices.n_units)))
        every = np.ones(devices.n_units, dtype=bool)
        for rows, s_hat in _reconstruct(traj, every, scenario.comm, scenario.scheme,
                                        CENTRAL_DIFF):
            est[rows] = s_hat[:, :3]
            true[rows] = traj.s_tilde_at(rows)[:, :3]
        inferred = (true, est)
    return traj.times, traj.omega[:, watch_bus] / (2.0 * np.pi), inferred, metrics


@main.command("check-design")
@click.argument("scenario_path", type=click.Path(exists=True))
@click.option("--out", "out_path", default=None, type=click.Path())
@_handle_errors
def check_design_cmd(scenario_path, out_path):
    """Evaluate the privacy design condition for every unit of a scenario."""
    scenario = load_scenario(scenario_path)
    feasible, eigenvalues, d_over_n = schemes.design_condition_report(
        scenario.devices, scenario.model, scenario.scheme.privacy
    )
    doc = {
        "all_feasible": bool(feasible.all()),
        "units": [
            {"unit": int(u), "feasible": bool(feasible[u]),
             "eigenvalues": [float(e) for e in eigenvalues[u]],
             "d_over_n": float(d_over_n[u])}
            for u in range(len(feasible))
        ],
    }
    if out_path:
        save_scenario(doc, out_path)
    click.echo(json.dumps({"all_feasible": doc["all_feasible"]}))


if __name__ == "__main__":
    main()
