"""Shared fixtures: a small hand-checkable system used across the suite."""

import numpy as np
import pytest

from gridpriv import (
    DeviceSet,
    Graph,
    NetworkModel,
    PrivacyParams,
    RandomScenarioSpec,
    Scenario,
    SchemeConfig,
    gen_scenario,
)
from gridpriv.schemes import (
    EXTENDED_PRIMAL_DUAL,
    INTEGRAL,
    PRIMAL_DUAL,
    PRIVACY_PRESERVING,
)
from gridpriv.sim import Disturbance


@pytest.fixture
def model3():
    """3 buses in a path, hand-checkable constants."""
    return NetworkModel(
        bus_count=3,
        lines=((0, 1), (1, 2)),
        susceptance=np.array([5.0, 8.0]),
        inertia=np.array([2.0, 3.0, 4.0]),
        damping=np.array([1.0, 0.8, 1.2]),
    )


@pytest.fixture
def devices4():
    """Two generators and two loads on the 3-bus network.

    Baseline uncontrollable demand [0.1, 0.05, 0, 0.15] gives
    lambda = -0.3 / 0.0475 = -120/19 in closed form.
    """
    q = np.array([100.0, 200.0, 50.0, 80.0])
    is_gen = np.array([True, False, True, False])
    return DeviceSet(
        bus=np.array([0, 0, 1, 2]),
        is_generator=is_gen,
        tau=np.array([1.0, 1.0, 0.5, 1.0]),
        cost_q=q,
        p_load=np.array([0.1, 0.05, 0.0, 0.15]),
        bus_count=3,
    )


@pytest.fixture
def comm4():
    return Graph(4, ((0, 1), (1, 2), (2, 3)))


def make_scheme(kind, n_units, n_edges, beta=None, beta_hat=None,
                xi_max=0.5, integral_gain=400.0, n_controllers=None):
    gamma = np.full(n_controllers if n_controllers is not None else n_units, 0.04)
    gamma_psi = np.full(n_edges, 0.03)
    privacy = None
    if kind == PRIVACY_PRESERVING:
        privacy = PrivacyParams(
            beta=np.full(n_units, 0.004) if beta is None else beta,
            beta_hat=np.full(n_units, 0.002) if beta_hat is None else beta_hat,
            xi_max=xi_max,
        )
    return SchemeConfig(kind=kind, gamma=gamma, gamma_psi=gamma_psi,
                        integral_gain=integral_gain, privacy=privacy)


def make_scenario(model, devices, comm, kind, seed=0, t_end=30.0, dt=0.01,
                  disturbances=((1.0, 0, 0.2),), **scheme_kw):
    if kind == PRIMAL_DUAL:
        # bus-level controller over the electrical topology
        n_ctrl, n_edges = model.bus_count, model.line_count
    else:
        n_ctrl = devices.n_units
        n_edges = comm.edge_count if comm is not None else 0
    cfg = make_scheme(kind, devices.n_units, n_edges,
                      n_controllers=n_ctrl, **scheme_kw)
    return Scenario(
        model=model, devices=devices, comm=comm, scheme=cfg,
        disturbances=tuple(Disturbance(t, u, d) for t, u, d in disturbances),
        t_end=t_end, dt=dt, seed=seed,
    )


@pytest.fixture
def scenario_factory(model3, devices4, comm4):
    def factory(kind, **kw):
        return make_scenario(model3, devices4, comm4, kind, **kw)
    return factory


def padded(rows):
    """Rows of unequal length as a zero-padded 2-D array, and the mask of its entries."""
    lengths = np.array([len(r) for r in rows])
    mask = np.arange(lengths.max()) < lengths[:, None]
    out = np.zeros(mask.shape, dtype=np.asarray(rows[0]).dtype)
    out[mask] = np.concatenate(rows)
    return out, mask


def read_csv(path):
    """Header and float64 data of a CSV file, independently of from_csv."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        return header, np.loadtxt(fh, delimiter=",", ndmin=2)


ALL_KINDS = (INTEGRAL, PRIMAL_DUAL, EXTENDED_PRIMAL_DUAL, PRIVACY_PRESERVING)


def huge_final_step_doc():
    """A 10-bus extended_primal_dual document whose load step of 1e8 pu at
    0.02 s leaves a final rest state whose injections sum to 5.588e-09, a
    rounding error at that scale."""
    doc = gen_scenario(RandomScenarioSpec(bus_count=10, seed=7, scheme_kind=EXTENDED_PRIMAL_DUAL))
    doc["sim"]["t_end"] = 0.05
    doc["disturbances"][0].update(t=0.02, delta=1e8)
    return doc
