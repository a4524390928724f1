import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gridpriv import DeviceSet, DeviceState, design_optimal_gains
from gridpriv.devices import device_outputs, device_rhs
from gridpriv.errors import ConfigurationError


def test_device_outputs_hand_values(devices4):
    # unit gains: generators q(m+h)=1 with split 0.5, loads qh=1
    u = np.array([0.5, 0.5, 0.5, 0.5])
    omega = np.array([0.1, -0.2, 0.0])
    x = np.array([0.2, 0.3])  # internal states of the two generators
    p_M, d_c, s_tilde, net = device_outputs(devices4, DeviceState(x), u, omega)
    # generator 0 at bus 0: h = 0.5/100, drive = 0.4
    assert p_M[0] == pytest.approx(0.2 + 0.005 * 0.4)
    # generator 1 (unit 2) at bus 1: h = 0.5/50, drive = 0.7
    assert p_M[1] == pytest.approx(0.3 + 0.01 * 0.7)
    # load at bus 0 (unit 1): h = 1/200, d_c = -h*drive
    assert d_c[0] == pytest.approx(-0.005 * 0.4)
    # load at bus 2 (unit 3): h = 1/80, drive = 0.5
    assert d_c[1] == pytest.approx(-0.0125 * 0.5)
    np.testing.assert_allclose(
        s_tilde,
        [-p_M[0] + 0.1, d_c[0] + 0.05, -p_M[1] + 0.0, d_c[1] + 0.15],
    )
    np.testing.assert_allclose(net, [p_M[0] - d_c[0] - 0.15, p_M[1], -d_c[1] - 0.15])


def test_net_injection_is_negative_bus_sum_of_prosumption(devices4):
    rng = np.random.default_rng(3)
    u = rng.normal(size=4)
    omega = rng.normal(size=3)
    x = rng.normal(size=2)
    _, _, s_tilde, net = device_outputs(devices4, DeviceState(x), u, omega)
    np.testing.assert_allclose(net, -devices4.bus_sum(s_tilde), atol=1e-14)


def test_device_rhs_fixed_point(devices4):
    u = np.full(4, 0.7)
    omega = np.full(3, 0.05)
    gi = devices4.gen_index
    x_eq = devices4.droop_m[gi] * (u[gi] - omega[devices4.bus[gi]])
    np.testing.assert_allclose(device_rhs(devices4, DeviceState(x_eq), u, omega), 0.0,
                               atol=1e-15)


def test_device_rhs_time_constant(devices4):
    # pure relaxation from x toward m*drive at rate 1/tau
    x = np.array([1.0, -2.0])
    rhs = device_rhs(devices4, DeviceState(x), np.zeros(4), np.zeros(3))
    np.testing.assert_allclose(rhs, -x / devices4.tau[devices4.gen_index])


def test_design_optimal_gains_identity():
    q = np.array([60.0, 120.0, 200.0])
    is_gen = np.array([True, False, True])
    m, h = design_optimal_gains(q, is_gen, droop_split=0.3)
    np.testing.assert_allclose(q[is_gen] * (m[is_gen] + h[is_gen]), 1.0)
    np.testing.assert_allclose(q[~is_gen] * h[~is_gen], 1.0)
    np.testing.assert_array_equal(m[~is_gen], 0.0)
    # split controls the droop share, not the total gain
    np.testing.assert_allclose(h[is_gen] * q[is_gen], 0.3)


@pytest.mark.parametrize("split", [0.0, 1.0, -0.2, 1.5, [0.5, 0.5, 0.5]])
def test_design_gains_split_bounds(split):
    """A split outside (0, 1), or of neither one entry nor one a unit, is
    refused by name, by design_optimal_gains and so by DeviceSet."""
    with pytest.raises(ConfigurationError):
        design_optimal_gains(np.array([100.0]), np.array([True]), split)
    with pytest.raises(ConfigurationError, match="^droop_split "):
        DeviceSet([0, 0], [True, False], [1.0, 1.0], [100.0, 100.0], [0.0, 0.0], 1,
                  droop_split=split)


@settings(max_examples=50, deadline=None)
@given(arrays(float, st.integers(1, 8),
              elements=st.floats(50.0, 250.0)),
       st.floats(0.05, 0.95))
def test_design_gains_identity_property(q, split):
    is_gen = np.arange(len(q)) % 2 == 0
    m, h = design_optimal_gains(q, is_gen, split)
    np.testing.assert_allclose(q * (m + h), 1.0, rtol=1e-12)


@settings(max_examples=50, deadline=None)
@given(arrays(float, st.integers(1, 8), elements=st.floats(1e-3, 1e6)),
       arrays(float, st.integers(1, 8), elements=st.floats(1e-3, 0.999)))
def test_device_set_forms_the_optimal_gains(q, split):
    """A DeviceSet's gains are design_optimal_gains' output, bit for bit, and put
    the closed loop's rest state at the dispatch optimum: q (m + h) = 1."""
    split = np.resize(split, len(q))
    is_gen = np.arange(len(q)) % 2 == 0
    devices = DeviceSet(np.zeros(len(q), dtype=int), is_gen, np.ones(len(q)), q,
                        np.zeros(len(q)), bus_count=1, droop_split=split)
    m, h = design_optimal_gains(q, is_gen, split)
    np.testing.assert_array_equal(devices.droop_m, m)
    np.testing.assert_array_equal(devices.damping_h, h)
    np.testing.assert_allclose(q * (devices.droop_m + devices.damping_h), 1.0,
                               rtol=0.0, atol=1e-12)


def test_device_set_validation():
    base = dict(bus=[0], is_generator=[True], tau=[1.0], cost_q=[100.0], p_load=[0.0],
                bus_count=1)
    DeviceSet(**base)
    with pytest.raises(ConfigurationError):
        DeviceSet(**{**base, "cost_q": [-1.0]})
    with pytest.raises(ConfigurationError):
        DeviceSet(**{**base, "bus": [2]})
    with pytest.raises(ConfigurationError):
        DeviceSet(**{**base, "tau": [0.0]})
    # a load's tau is ignored, so zero is fine there
    DeviceSet(**{**base, "is_generator": [False], "tau": [0.0]})


def test_bus_sum(devices4):
    per_unit = np.array([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(devices4.bus_sum(per_unit), [3.0, 3.0, 4.0])
    np.testing.assert_array_equal(devices4.units_per_bus(), [2, 1, 1])
