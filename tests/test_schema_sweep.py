"""Every number a scenario document holds, set in turn to a bad value, is
either refused with a GridPrivError or runs to a trace of finite values.

The sweep takes the numeric leaves of two generated 4-bus documents (the
first two entries of each list) and runs each mutated document under all
four schemes through build_scenario and a 0.05 s simulate, with warnings
raised as errors. No case may end in another exception, a warning or a
DivergenceError. A bool, string or null must be refused at the leaf's own
JSON path. The least subnormal, 5e-324, is swept: a field the closed loop
divides by refuses it. Large magnitudes such as 1e300 are left out: which of
them a run should accept is not settled.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from gridpriv import RandomScenarioSpec, build_scenario, gen_scenario, simulate
from gridpriv.errors import DivergenceError, GridPrivError
from gridpriv.schemes import SCHEME_KINDS

NUMBERS = (math.nan, math.inf, -math.inf, -1, 0, -0.0, 0.5, 5e-324)
NON_NUMBERS = (True, "1", None)


def _document(seed):
    doc = gen_scenario(RandomScenarioSpec(bus_count=4, t_end=5.0, seed=seed))
    doc["sim"]["t_end"] = 0.05
    doc["disturbances"][0]["t"] = 0.02
    return doc


def _leaves(node, path="$"):
    """(parent, key, JSON path) of each number below node, the first two entries of
    each list only."""
    items = (enumerate(node[:2]) if isinstance(node, list) else node.items())
    for key, value in items:
        where = f"{path}[{key}]" if isinstance(node, list) else f"{path}.{key}"
        if isinstance(value, (list, dict)):
            yield from _leaves(value, where)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield node, key, where


def _failure(doc, path, value):
    """None if the case behaves, else what went wrong."""
    not_a_number = isinstance(value, (bool, str)) or value is None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = simulate(build_scenario(doc))
            derived = {"s_tilde": traj.s_tilde, "pc_dot": traj.pc_dot, "lyapunov": traj.lyapunov,
                       "xi": traj.xi, "n_f": traj.n_f}
    except DivergenceError as exc:
        return f"diverged: {exc}"
    except GridPrivError as exc:
        if not_a_number and getattr(exc, "path", None) != path:
            return f"refused away from its path: {exc}"
        return None
    except Exception as exc:  # noqa: BLE001 -- any other exception is the finding
        return f"raised {type(exc).__name__}: {exc}"
    if not_a_number:
        return "ran"
    for name, block in {**{f.name: getattr(traj, f.name) for f in dataclasses.fields(traj)},
                        **derived}.items():
        if isinstance(block, np.ndarray) and not np.all(np.isfinite(block)):
            return f"recorded a non-finite {name}"
    return None


@pytest.mark.parametrize("kind", SCHEME_KINDS)
@pytest.mark.parametrize("seed", [21, 22])
def test_every_bad_number_is_refused_or_runs_finite(seed, kind):
    doc = _document(seed)
    doc["scheme"]["kind"] = kind
    failures, cases = [], 0
    for parent, key, path in list(_leaves(doc)):
        original = parent[key]
        for value in NUMBERS + NON_NUMBERS:
            parent[key] = value
            failure = _failure(doc, path, value)
            cases += 1
            if failure:
                failures.append(f"{path} = {value!r}: {failure}")
        parent[key] = original
    assert cases > 300
    assert not failures, "\n".join(failures)

