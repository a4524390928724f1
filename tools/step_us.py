"""Time one closed-loop integration step per scheme and network size, and
check `ClosedLoop.step` against the four classic RK4 stages; print one JSON line.

The scenarios are `gen_scenario` documents of seed 7: 4 buses with 2-3 units
each and 10 buses with 4 units each over 5 s, and 200 buses with 3-5 units
each over 2 s, all at dt = 10 ms, each run under the four schemes. A step's
time is the best of five `simulate` runs divided by the run's step count, so
it includes the run's fixed costs (rest state, output and Lyapunov columns).
Run from the repository root:

    PYTHONPATH=src python tools/step_us.py

Prints {"step_us": {"<buses>.<scheme>": microseconds}, "step_rel_err"}, where
step_rel_err is the largest departure of one `ClosedLoop.step` increment from
the classic stages' increment (y + dt/2 k1, y + dt/2 k2, y + dt k3, then
(dt/6)(k1 + 2 k2 + 2 k3 + k4)) relative to the largest entry of its state
block, over the four schemes on the 4-bus scenario at random states, loads
and privacy signals, at dt 0.01 and 0.1. Exits 1 when it exceeds 1e-12; the
times are only reported.
"""

import dataclasses
import json
import sys
from time import perf_counter

import numpy as np

from gridpriv import RandomScenarioSpec, build_scenario, gen_scenario, simulate
from gridpriv.schemes import SCHEME_KINDS
from gridpriv.sim import ClosedLoop

SIZES = ((4, (2, 3), 5.0), (10, (4, 4), 5.0), (200, (3, 5), 2.0))  # buses, units per bus, t_end
REPEATS, SEED, TOLERANCE = 5, 7, 1e-12


def scenarios(buses, units_per_bus, t_end):
    """The seeded document of one size, built under each scheme."""
    doc = gen_scenario(RandomScenarioSpec(bus_count=buses, units_per_bus=units_per_bus,
                                          t_end=t_end, seed=SEED))
    for kind in SCHEME_KINDS:
        doc["scheme"]["kind"] = kind
        yield kind, build_scenario(doc)


def step_us(sc):
    """Microseconds per step: the best of REPEATS runs over the step count."""
    best = min(_timed(simulate, sc) for _ in range(REPEATS))
    return round(best / round(sc.t_end / sc.dt) * 1e6, 1)


def _timed(fn, *args):
    t0 = perf_counter()
    fn(*args)
    return perf_counter() - t0


def classic_step(op, y, b, rho):
    """One classic RK4 step of op.dt from four op.rhs stages."""
    dt = op.dt
    k1 = op.rhs(y, b, rho)
    k2 = op.rhs(y + 0.5 * dt * k1, b, rho)
    k3 = op.rhs(y + 0.5 * dt * k2, b, rho)
    k4 = op.rhs(y + dt * k3, b, rho)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step_rel_err(sc, rng):
    """Largest blockwise relative departure of op.step's increment from the classic one."""
    n_units = sc.devices.n_units
    worst = 0.0
    for dt in (0.01, 0.1):
        op = ClosedLoop(dataclasses.replace(sc, dt=dt))
        for _ in range(5):
            y = rng.normal(size=op.size)
            xi = rng.uniform(0.0, 0.1, n_units) * (rng.random(n_units) < 0.5)
            b, rho = op.inputs(rng.normal(scale=0.2, size=n_units), xi,
                               rng.normal(scale=0.01, size=n_units))
            got = op.step(y, b, rho)[1] - y
            want = classic_step(op, y, b, rho) - y
            for g, w in zip(op.blocks(got), op.blocks(want)):
                if w.size:  # an all-zero block of the classic increment raises
                    worst = max(worst, float(np.abs(g - w).max()) / float(np.abs(w).max()))
    return worst


def main():
    rng = np.random.default_rng(0)
    err = max(step_rel_err(sc, rng) for _, sc in scenarios(*SIZES[0]))
    times = {f"{size[0]}.{kind}": step_us(sc) for size in SIZES
             for kind, sc in scenarios(*size)}
    json.dump({"step_us": times, "step_rel_err": err}, sys.stdout)
    print()
    return 0 if err <= TOLERANCE else 1


if __name__ == "__main__":
    sys.exit(main())
