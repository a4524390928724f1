"""Every array argument is read by one checked converter, and its refusal
names the field: a wrong shape, or an entry outside the field's range. The
last cases reach the API's other refusals: no unit or node, a communication
graph of another width, an incomplete equilibrium, gamma + xi, xi or dt."""

import re

import numpy as np
import pytest

from gridpriv import (
    DeviceSet,
    DeviceState,
    Graph,
    NetworkModel,
    PlantState,
    PrivacyParams,
    SchemeConfig,
    Scenario,
    build_equilibrium,
    dc_power_flow,
    design_optimal_gains,
    device_outputs,
    device_rhs,
    lyapunov_value,
    refresh_privacy_signals,
    solve_kkt,
    swing_rhs,
)
from gridpriv.errors import ConfigurationError, _checked_array
from gridpriv.schemes import (
    EXTENDED_PRIMAL_DUAL,
    INTEGRAL,
    PRIMAL_DUAL,
    PRIVACY_PRESERVING,
    SchemeState,
    scheme_rhs,
)
from gridpriv.sim import ClosedLoop
from tests.conftest import make_scheme

NETWORK = dict(bus_count=3, lines=((0, 1), (1, 2)), susceptance=[5.0, 8.0],
               inertia=[2.0, 3.0, 4.0], damping=[1.0, 0.8, 1.2])
UNITS = dict(bus=[0, 2], is_generator=[True, False], tau=[1.0, 0.0], cost_q=[100.0, 100.0],
             p_load=[0.1, 0.0], bus_count=3)
NAN, INF = float("nan"), float("inf")


def _scheme_rhs(kind, p_c=4, psi=3, xi=4, n_f=4, s_tilde=4, omega=3, zeta=3):
    """scheme_rhs on the 3-bus, 4-unit fixtures with state widths p_c, psi, xi
    and n_f, and argument widths s_tilde, omega and zeta."""
    def call(model, devices, comm):
        graph = model.graph if kind == PRIMAL_DUAL else comm
        cfg = make_scheme(kind, 4, graph.edge_count, n_controllers=graph.node_count)
        state = SchemeState(np.zeros(p_c), np.zeros(psi), np.zeros(xi), np.zeros(n_f))
        return scheme_rhs(cfg, graph, state, devices, np.zeros(s_tilde), np.zeros(omega),
                          np.zeros(zeta))
    return call


def _lyapunov(kind, complete=True):
    """lyapunov_value at the rest state of the fixtures under kind, given no xi,
    relative to build_equilibrium's result or, unless complete, solve_kkt's."""
    def call(model, devices, comm):
        cfg = make_scheme(kind, 4, comm.edge_count)
        eq = solve_kkt(devices)
        if complete:
            eq = build_equilibrium(model, devices, comm, eq)
        return lyapunov_value(model, devices, comm, cfg, eq, np.zeros(2), np.zeros(3),
                              np.zeros(2), np.zeros(4), np.zeros(3))
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
    # 1/q overflows: both gains of the generator are inf
    "damping_h range": (lambda *_: DeviceSet(**{**UNITS, "cost_q": [1e-320, 100.0]}),
                        "damping_h must be finite and > 0"),
    "cost_q range": (lambda *_: DeviceSet(**{**UNITS, "cost_q": [100.0, INF]}),
                     "cost_q must be finite and > 0"),
    "p_load finite": (lambda *_: DeviceSet(**{**UNITS, "p_load": [NAN, 0.0]}),
                      "p_load must be finite"),
    "generator tau": (lambda *_: DeviceSet(**{**UNITS, "tau": [-0.0, 0.0]}),
                      "generator tau must be finite and > 0"),
    # h = 1e-10 / 1e-310 is finite, m = (1 - 1e-10) / 1e-310 overflows
    "generator droop_m": (lambda *_: DeviceSet(**{**UNITS, "cost_q": [1e-310, 100.0],
                                                  "droop_split": 1e-10}),
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
    "device_outputs p_load": (lambda m, d, c: device_outputs(d, DeviceState(np.zeros(2)),
                                                             np.zeros(4), np.zeros(3),
                                                             np.zeros(1)),
                              "p_load has shape (1,), expected (4,)"),
    "device_rhs u": (lambda m, d, c: device_rhs(d, DeviceState(np.zeros(2)), np.zeros(2),
                                                np.zeros(3)),
                     "u has shape (2,), expected (4,)"),
    "device_rhs omega": (lambda m, d, c: device_rhs(d, DeviceState(np.zeros(2)), np.zeros(4),
                                                    np.zeros(2)),
                         "omega has shape (2,), expected (3,)"),
    "device_rhs x short": (lambda m, d, c: device_rhs(d, DeviceState(np.zeros(1)), np.zeros(4),
                                                      np.zeros(3)),
                           "x has shape (1,), expected (2,)"),
    "device_rhs x long": (lambda m, d, c: device_rhs(d, DeviceState(np.zeros(3)), np.zeros(4),
                                                     np.zeros(3)),
                          "x has shape (3,), expected (2,)"),
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
    "scheme_rhs n_f_held short": (_scheme_rhs(EXTENDED_PRIMAL_DUAL, n_f=1),
                                  "n_f_held has shape (1,), expected (4,)"),
    "scheme_rhs n_f_held long": (_scheme_rhs(EXTENDED_PRIMAL_DUAL, n_f=5),
                                 "n_f_held has shape (5,), expected (4,)"),
    "scheme_rhs s_tilde": (_scheme_rhs(EXTENDED_PRIMAL_DUAL, s_tilde=1),
                           "s_tilde has shape (1,), expected (4,)"),
    "scheme_rhs integral omega": (_scheme_rhs(INTEGRAL, omega=4),
                                  "omega has shape (4,), expected (3,)"),
    "scheme_rhs zeta": (_scheme_rhs(PRIMAL_DUAL, p_c=3, psi=2, zeta=4),
                        "zeta has shape (4,), expected (3,)"),
    "no units": (lambda *_: DeviceSet(**{**UNITS, "bus": [], "is_generator": []}),
                 "at least one unit is required"),
    "is_generator shape": (lambda *_: DeviceSet(**{**UNITS, "is_generator": [True]}),
                           "is_generator has shape (1,), expected (2,)"),
    "graph nodes": (lambda *_: Graph(0, ()), "a graph needs at least one node"),
    "build_equilibrium comm": (lambda m, d, c: build_equilibrium(m, d, m.graph, solve_kkt(d)),
                               "communication graph must have one node per unit"),
    "lyapunov_value dispatch only": (_lyapunov(EXTENDED_PRIMAL_DUAL, complete=False),
                                     "equilibrium is incomplete"),
    "lyapunov_value privacy xi": (_lyapunov(PRIVACY_PRESERVING),
                                  "privacy scheme Lyapunov value requires xi"),
    # the bus graph as the unit-level scheme's communication graph
    "scheme_rhs comm": (lambda m, d, c: _scheme_rhs(EXTENDED_PRIMAL_DUAL, psi=2)(m, d, m.graph),
                        "unit-level scheme needs a communication node per unit"),
    "scheme_rhs gamma + xi": (lambda m, d, c: scheme_rhs(
        make_scheme(EXTENDED_PRIMAL_DUAL, 4, 3), c,
        SchemeState(np.zeros(4), np.zeros(3), np.full(4, -0.04), np.zeros(4)), d,
        np.zeros(4), np.zeros(3)),
        "gamma + xi must stay strictly positive"),
    "refresh_privacy_signals dt": (lambda m, d, c: refresh_privacy_signals(
        make_scheme(PRIVACY_PRESERVING, 4, 3).privacy, np.zeros(4), d.bus, np.zeros(3), 0.0,
        np.random.default_rng(0)),
        "dt must be positive"),
    "ClosedLoop comm": (lambda m, d, c: ClosedLoop(Scenario(
        m, d, None, make_scheme(EXTENDED_PRIMAL_DUAL, 4, 3), t_end=1.0)),
        "unit-level scheme needs a communication node per unit"),
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
