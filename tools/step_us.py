"""Time one closed-loop integration step per scheme and network size, and
check `ClosedLoop.step` against the four classic RK4 stages; print one JSON line.

The scenarios are `gen_scenario` documents of seed 7: 4 buses with 2-3 units
each and 10 buses with 4 units each over 5 s, and 200 buses with 3-5 units
each over 2 s, all at dt = 10 ms, each run under the four schemes. A step's
time is the best of five `simulate` runs divided by the run's step count, so
it includes the run's fixed costs (rest state, output and Lyapunov columns).
A rest state's time is the best of five `sim._rest_state` calls at the
initial load, under the documents' own scheme (privacy_preserving), at the
three sizes and at 1000 buses with 3-5 units each. Run from the repository
root:

    PYTHONPATH=src python tools/step_us.py

Prints {"step_us": {"<buses>.<scheme>": microseconds}, "rest_ms": {"<buses>":
milliseconds}, "step_rel_err"}, where
step_rel_err is the largest departure of one `ClosedLoop.step` increment from
the classic stages' increment (y + dt/2 k1, y + dt/2 k2, y + dt k3, then
(dt/6)(k1 + 2 k2 + 2 k3 + k4)) relative to the largest entry of its state
block, over the four schemes on the 4-bus scenario at random states, loads
and privacy signals, at dt 0.01 and 0.1; `tests/reference_dynamics.py`
composes each input (`inputs`) and takes the classic step
(`classic_rk4_step`). Exits 1 when it exceeds 1e-12; the times are only
reported.
"""

import dataclasses
import json
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from gridpriv import RandomScenarioSpec, build_scenario, gen_scenario, simulate
from gridpriv.schemes import SCHEME_KINDS
from gridpriv.sim import ClosedLoop, _rest_state

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # the repository root
from tests.reference_dynamics import classic_rk4_step, inputs  # noqa: E402

SIZES = ((4, (2, 3), 5.0), (10, (4, 4), 5.0), (200, (3, 5), 2.0))  # buses, units per bus, t_end
REST_SIZES = SIZES + ((1000, (3, 5), 1.0),)
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


def rest_ms(buses, units_per_bus, t_end):
    """Milliseconds of one rest-state solve at the initial load: the best of REPEATS."""
    sc = build_scenario(gen_scenario(RandomScenarioSpec(
        bus_count=buses, units_per_bus=units_per_bus, t_end=t_end, seed=SEED)))
    op = ClosedLoop(sc)
    best = min(_timed(_rest_state, sc, op, sc.devices.p_load) for _ in range(REPEATS))
    return round(best * 1e3, 3)


def _timed(fn, *args):
    t0 = perf_counter()
    fn(*args)
    return perf_counter() - t0


def step_rel_err(sc, rng):
    """Largest blockwise relative departure of op.step's increment from the classic one."""
    n_units = sc.devices.n_units
    worst = 0.0
    for dt in (0.01, 0.1):
        op = ClosedLoop(dataclasses.replace(sc, dt=dt))
        for _ in range(5):
            y = rng.normal(size=op.size)
            xi = rng.uniform(0.0, 0.1, n_units) * (rng.random(n_units) < 0.5)
            b, rho = inputs(sc, op, rng.normal(scale=0.2, size=n_units), xi,
                            rng.normal(scale=0.01, size=n_units))
            got = op.step(y, b, rho)[1] - y
            want = classic_rk4_step(op, y, b, rho) - y
            for g, w in zip(op.blocks(got), op.blocks(want)):
                if w.size:  # an all-zero block of the classic increment raises
                    worst = max(worst, float(np.abs(g - w).max()) / float(np.abs(w).max()))
    return worst


def main():
    rng = np.random.default_rng(0)
    err = max(step_rel_err(sc, rng) for _, sc in scenarios(*SIZES[0]))
    times = {f"{size[0]}.{kind}": step_us(sc) for size in SIZES
             for kind, sc in scenarios(*size)}
    rest = {str(size[0]): rest_ms(*size) for size in REST_SIZES}
    json.dump({"step_us": times, "rest_ms": rest, "step_rel_err": err}, sys.stdout)
    print()
    return 0 if err <= TOLERANCE else 1


if __name__ == "__main__":
    sys.exit(main())
