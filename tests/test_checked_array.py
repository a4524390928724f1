"""Every array argument is read by one checked converter, and its refusal
names the field: a wrong shape, or an entry outside the field's range."""

import re

import numpy as np
import pytest

from gridpriv import (
    DeviceSet,
    DeviceState,
    NetworkModel,
    PlantState,
    PrivacyParams,
    SchemeConfig,
    dc_power_flow,
    design_optimal_gains,
    device_outputs,
    device_rhs,
    swing_rhs,
)
from gridpriv.errors import ConfigurationError, _checked_array
from gridpriv.schemes import (
    EXTENDED_PRIMAL_DUAL,
    INTEGRAL,
    PRIMAL_DUAL,
    SchemeState,
    scheme_rhs,
)
from tests.conftest import make_scheme

NETWORK = dict(bus_count=3, lines=((0, 1), (1, 2)), susceptance=[5.0, 8.0],
               inertia=[2.0, 3.0, 4.0], damping=[1.0, 0.8, 1.2])
UNITS = dict(bus=[0, 2], is_generator=[True, False], tau=[1.0, 0.0], droop_m=[0.005, 0.0],
             damping_h=[0.005, 0.01], cost_q=[100.0, 100.0], p_load=[0.1, 0.0], bus_count=3)
NAN, INF = float("nan"), float("inf")


def _scheme_rhs(kind, p_c=4, psi=3, xi=4):
    """scheme_rhs on the 3-bus, 4-unit fixtures with state widths p_c, psi and xi."""
    def call(model, devices, comm):
        graph = model.graph if kind == PRIMAL_DUAL else comm
        cfg = make_scheme(kind, 4, graph.edge_count, n_controllers=graph.node_count)
        state = SchemeState(np.zeros(p_c), np.zeros(psi), np.zeros(xi), np.zeros(4))
        return scheme_rhs(cfg, graph, state, devices, np.zeros(4), np.zeros(3), np.zeros(3))
    return call


# case: (call on the model3, devices4 and comm4 fixtures, the whole refusal)
CASES = {
    "susceptance shape": (lambda *_: NetworkModel(**{**NETWORK, "susceptance": [5.0]}),
                          "susceptance has shape (1,), expected (2,)"),
    "inertia range": (lambda *_: NetworkModel(**{**NETWORK, "inertia": [2.0, 0.0, 4.0]}),
                      "inertia must be finite and > 0"),
    "damping range": (lambda *_: NetworkModel(**{**NETWORK, "damping": [1.0, NAN, 1.0]}),
                      "damping must be finite and > 0"),
    "tau shape": (lambda *_: DeviceSet(**{**UNITS, "tau": [1.0]}),
                  "tau has shape (1,), expected (2,)"),
    "droop_m shape": (lambda *_: DeviceSet(**{**UNITS, "droop_m": [[0.005, 0.0]]}),
                      "droop_m has shape (1, 2), expected (2,)"),
    "damping_h range": (lambda *_: DeviceSet(**{**UNITS, "damping_h": [0.005, -0.01]}),
                        "damping_h must be finite and > 0"),
    "cost_q range": (lambda *_: DeviceSet(**{**UNITS, "cost_q": [100.0, INF]}),
                     "cost_q must be finite and > 0"),
    "p_load finite": (lambda *_: DeviceSet(**{**UNITS, "p_load": [NAN, 0.0]}),
                      "p_load must be finite"),
    "generator tau": (lambda *_: DeviceSet(**{**UNITS, "tau": [-0.0, 0.0]}),
                      "generator tau must be finite and > 0"),
    "generator droop_m": (lambda *_: DeviceSet(**{**UNITS, "droop_m": [INF, 0.0]}),
                          "generator droop_m must be finite and > 0"),
    "design cost_q": (lambda *_: design_optimal_gains([100.0, 0.0], [True, False]),
                      "cost_q must be finite and > 0"),
    "beta": (lambda *_: PrivacyParams(beta=[-0.1], beta_hat=[0.0], xi_max=1.0),
             "beta must be finite and >= 0"),
    "beta_hat": (lambda *_: PrivacyParams(beta=[0.1], beta_hat=[INF], xi_max=1.0),
                 "beta_hat must be finite and >= 0"),
    "gamma": (lambda *_: SchemeConfig(EXTENDED_PRIMAL_DUAL, [0.04, -0.0], [0.03]),
              "gamma must be finite and > 0"),
    "gamma_psi": (lambda *_: SchemeConfig(EXTENDED_PRIMAL_DUAL, [0.04, 0.04], [NAN]),
                  "gamma_psi must be finite and > 0"),
    "swing_rhs eta": (lambda m, d, c: swing_rhs(m, PlantState(np.zeros(3), np.zeros(3)),
                                                np.zeros(3)),
                      "eta has shape (3,), expected (2,)"),
    "swing_rhs omega": (lambda m, d, c: swing_rhs(m, PlantState(np.zeros(2), np.zeros(4)),
                                                  np.zeros(3)),
                        "omega has shape (4,), expected (3,)"),
    "swing_rhs net_injection": (lambda m, d, c: swing_rhs(
        m, PlantState(np.zeros(2), np.zeros(3)), np.zeros(2)),
        "net_injection has shape (2,), expected (3,)"),
    "dc_power_flow injection": (lambda m, d, c: dc_power_flow(m, np.zeros(4)),
                                "injection has shape (4,), expected (3,)"),
    "device_outputs u": (lambda m, d, c: device_outputs(d, DeviceState(np.zeros(2)),
                                                        np.zeros(3), np.zeros(3)),
                         "u has shape (3,), expected (4,)"),
    "device_outputs omega": (lambda m, d, c: device_outputs(d, DeviceState(np.zeros(2)),
                                                            np.zeros(4), 0.0),
                             "omega has shape (), expected (3,)"),
    "device_outputs x": (lambda m, d, c: device_outputs(d, DeviceState(np.zeros(4)),
                                                        np.zeros(4), np.zeros(3)),
                         "x has shape (4,), expected (2,)"),
    "device_rhs u": (lambda m, d, c: device_rhs(d, DeviceState(np.zeros(2)), np.zeros(2),
                                                np.zeros(3)),
                     "u has shape (2,), expected (4,)"),
    "device_rhs omega": (lambda m, d, c: device_rhs(d, DeviceState(np.zeros(2)), np.zeros(4),
                                                    np.zeros(2)),
                         "omega has shape (2,), expected (3,)"),
    "scheme_rhs integral p_c": (_scheme_rhs(INTEGRAL, p_c=3),
                                "p_c has shape (3,), expected (4,)"),
    "scheme_rhs primal_dual p_c": (_scheme_rhs(PRIMAL_DUAL, p_c=4, psi=2),
                                   "p_c has shape (4,), expected (3,)"),
    "scheme_rhs psi": (_scheme_rhs(EXTENDED_PRIMAL_DUAL, psi=2),
                       "psi has shape (2,), expected (3,)"),
    "scheme_rhs unit p_c": (_scheme_rhs(EXTENDED_PRIMAL_DUAL, p_c=3),
                            "p_c has shape (3,), expected (4,)"),
    "scheme_rhs xi": (_scheme_rhs(EXTENDED_PRIMAL_DUAL, xi=5),
                      "xi has shape (5,), expected (4,)"),
}


@pytest.mark.parametrize("case", CASES)
def test_refusal_names_the_field(case, model3, devices4, comm4):
    call, message = CASES[case]
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        call(model3, devices4, comm4)


def test_checked_array_reads_float64_and_keeps_the_bound():
    out = _checked_array([1, 2], "v", (2,), 1.0, closed=True)
    assert out.dtype == np.float64 and out.tolist() == [1.0, 2.0]
    with pytest.raises(ConfigurationError, match=r"^v must be finite and > 1$"):
        _checked_array([1, 2], "v", (2,), 1.0)
    assert _checked_array([-np.inf], "v").tolist() == [-np.inf]  # no bound, no range check
