"""Per-stage dynamics timed in isolation, at a workload's dimensions.

The inputs are one recorded state of the workload's privacy_preserving
trajectory, taken one second after its load step, so every function sees
the sizes and values it sees inside `simulate`. Nothing inside `simulate`
is patched.
"""

from time import perf_counter

import numpy as np

from gridpriv import (
    DeviceState,
    PlantState,
    SchemeState,
    build_equilibrium,
    device_outputs,
    device_rhs,
    lyapunov_value,
    refresh_privacy_signals,
    scheme_rhs,
    solve_kkt,
    swing_rhs,
)

# Calls per RK4 step inside simulate: four right-hand-side evaluations,
# one privacy refresh.
CALLS_PER_STEP = {"network.swing_rhs": 4, "devices.device_outputs": 4,
                  "devices.device_rhs": 4, "schemes.scheme_rhs": 4,
                  "schemes.refresh_privacy_signals": 1}


def per_call_s(fn, budget_s=0.05, repeats=5):
    """Median over repeats of the mean time of one call, each repeat
    running about budget_s."""
    fn()
    t0 = perf_counter()
    fn()
    calls = max(1, int(budget_s / max(perf_counter() - t0, 1e-7)))
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        samples.append((perf_counter() - t0) / calls)
    return float(np.median(samples)), calls * repeats


def stage_timings(sc, traj, tracer):
    """Per-call seconds of each stage, recorded as spans named after the
    module and function."""
    model, devices, cfg, comm = sc.model, sc.devices, sc.scheme, sc.comm
    k = int(np.argmin(np.abs(traj.times - (sc.disturbances[0].time + 1.0))))
    eta, omega, x, p_c, psi = traj.eta[k], traj.omega[k], traj.x[k], traj.p_c[k], traj.psi[k]
    xi, n_f = traj.xi[k], traj.n_f[k]
    p_load = devices.p_load.copy()
    for d in sc.disturbances:
        if d.time <= traj.times[k]:
            p_load[d.unit] += d.delta
    p_load_final = devices.p_load.copy()
    for d in sc.disturbances:
        p_load_final[d.unit] += d.delta
    _, _, s_tilde, net = device_outputs(devices, DeviceState(x), p_c, omega, p_load)
    eq = build_equilibrium(model, devices, comm, solve_kkt(devices, p_load_final), p_load_final)
    rng = np.random.default_rng(0)
    stages = {
        "network.swing_rhs": lambda: swing_rhs(model, PlantState(eta, omega), net),
        "devices.device_outputs": lambda: device_outputs(
            devices, DeviceState(x), p_c, omega, p_load),
        "devices.device_rhs": lambda: device_rhs(devices, DeviceState(x), p_c, omega),
        "schemes.scheme_rhs": lambda: scheme_rhs(cfg, comm, SchemeState(p_c, psi, xi, n_f),
                                                 devices, s_tilde, omega),
        "schemes.refresh_privacy_signals": lambda: refresh_privacy_signals(
            cfg.privacy, xi, devices.bus, omega, sc.dt, rng),
        "equilibrium.lyapunov_value": lambda: lyapunov_value(
            model, devices, comm, cfg, eq, eta, omega, x, p_c, psi, xi),
        "equilibrium.build_equilibrium": lambda: build_equilibrium(
            model, devices, comm, solve_kkt(devices)),
    }
    out = {}
    for name, fn in stages.items():
        budget = 0.3 if name == "equilibrium.build_equilibrium" else 0.05
        with tracer.span(f"stage.{name}") as rec:
            out[name], rec["calls"] = per_call_s(fn, budget, repeats=3 if budget > 0.1 else 5)
        rec["per_call_s"] = out[name]
    return out


def rhs_share(stage_s, step_s):
    """Computed, not measured: the share of an RK4 step spent in the
    per-stage functions, from isolated per-call times."""
    return sum(n * stage_s[name] for name, n in CALLS_PER_STEP.items()) / step_s
