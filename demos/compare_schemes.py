"""Run one random scenario under all four controllers and print a summary.

Usage: python demos/compare_schemes.py [seed]
"""

import copy
import sys

import numpy as np

from gridpriv import RandomScenarioSpec, build_scenario, gen_scenario, simulate, solve_kkt
from gridpriv.schemes import SCHEME_KINDS
from gridpriv.sim import marginal_costs, steady_state_metrics

seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7
doc = gen_scenario(RandomScenarioSpec(bus_count=6, units_per_bus=(2, 4),
                                      t_end=60.0, seed=seed))
print(f"{len(doc['devices'])} units on 6 buses, 0.2 pu load step at t=1s")

for kind in SCHEME_KINDS:
    variant = copy.deepcopy(doc)
    variant["scheme"]["kind"] = kind
    sc = build_scenario(variant)
    traj = simulate(sc)

    lam = solve_kkt(sc.devices, sc.final_load()).lam

    m = steady_state_metrics(traj, window=6.0, devices=sc.devices)
    mc = marginal_costs(traj, sc.devices)[-1]
    print(f"\n{kind}")
    print(f"  final max |omega|      {m['max_abs_omega_end']:.2e} rad/s")
    print(f"  peak |omega|           {m['peak_abs_omega']:.2e} rad/s")
    print(f"  settle time (0.01 Hz)  {m['settle_time']}")
    print(f"  command mean vs -lambda  {m['p_c_mean_end']:.4f} / {-lam:.4f}")
    print(f"  marginal cost spread   {mc.max() - mc.min():.2e}"
          f"  (optimum equalizes all at |lambda| = {abs(lam):.4f})")
