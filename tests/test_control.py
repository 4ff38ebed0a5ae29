import numpy as np
import pytest

from fintstab.control import (NetworkAdaptiveHook, NetworkControlSpec,
                              ScalarAdaptiveHook, StaticScalarGains,
                              full_node_control, gain_rates, pinning_control,
                              static_scalar_control, MODE_ABOVE_ONE,
                              MODE_AT_ORIGIN, MODE_IN_UNIT_BALL)
from fintstab.delays import DelayProfile, RateFunction
from fintstab.integrate import IntegratorConfig, delayed_linear_rhs, integrate


def test_static_control_values():
    # the law returns a list of floats: read it through np.asarray
    g = StaticScalarGains(1.0, 2.0, 2.1, 3.5)
    assert np.asarray(static_scalar_control(np.array([2.0]), g))[0] == pytest.approx(-9.1)
    assert (np.asarray(static_scalar_control(np.zeros(4), g)) == 0.0).all()
    g2 = StaticScalarGains(0.0, 0.0, 1.0, 0.0)
    assert np.asarray(static_scalar_control(np.array([-1.0]), g2))[0] == 1.0


def test_static_gains_validation():
    with pytest.raises(ValueError):
        StaticScalarGains(0.0, 0.0, -0.1, 1.0)
    with pytest.raises(ValueError):
        StaticScalarGains(0.0, 0.0, 1.0, -1.0)


PROFILE = DelayProfile.proportional(0.5)
RATE = RateFunction.power(0.1)


def _scalar_rates(d1=0.1, d2=0.1, d3=0.1, norm="two"):
    return ScalarAdaptiveHook(d1, d2, d3, RATE, PROFILE, norm=norm).rates


def _network_rates(d1=0.05, d2=0.05, d3=0.02):
    return NetworkAdaptiveHook(d1, d2, d3, RATE, PROFILE).rates


def test_hooks_map_d1_to_d3_onto_the_switch_roles():
    # (linear rate above one, linear rate in the ball, sign rate in the ball)
    assert _scalar_rates(1.0, 2.0, 3.0) == (2.0, 3.0, 1.0)
    assert _network_rates(1.0, 2.0, 3.0) == (1.0, 2.0, 3.0)


def test_scalar_rates_above_one_branch():
    # the 2-norm variant switches on p^T p = 4 for p = [2]
    dc4, dc3, mode = gain_rates(4.0, 2.0, 4.0, _scalar_rates(), True)
    assert mode == MODE_ABOVE_ONE
    assert dc3 == 0.0
    assert dc4 == pytest.approx(0.8)  # d2 * mu * p^T p = 0.1*2*4


def test_scalar_rates_unit_ball_branch():
    dc4, dc3, mode = gain_rates(0.25, 1.0, 0.25, _scalar_rates(), True)  # p = [0.5]
    assert mode == MODE_IN_UNIT_BALL
    assert dc3 == pytest.approx(0.1)
    assert dc4 == pytest.approx(0.05)  # d3 * ||p||_2


def test_scalar_rates_boundary_and_origin():
    # window sup exactly 1 belongs to the unit-ball branch
    _, dc3, mode = gain_rates(1.0, 1.0, 1.0, _scalar_rates(), True)
    assert mode == MODE_IN_UNIT_BALL and dc3 == 0.1
    dc4, dc3, mode = gain_rates(0.0, 1.0, 0.0, _scalar_rates(), True)
    assert mode == MODE_AT_ORIGIN
    assert dc3 == dc4 == 0.0


def test_unsquared_switch_of_the_one_and_inf_norms():
    rates = _scalar_rates(d3=0.3, norm="one")
    # the ball's linear rate is d3 * ||p||, the norm itself, not its root
    dc4, dc3, mode = gain_rates(0.25, 1.0, 0.25, rates, False)
    assert mode == MODE_IN_UNIT_BALL
    assert dc4 == 0.3 * 0.25 and dc3 == 0.1
    # the origin threshold is zero_tol on the norm, not zero_tol**2
    assert gain_rates(1e-3, 1.0, 1e-3, rates, False, zero_tol=1e-3)[2] == MODE_AT_ORIGIN
    assert gain_rates(1e-5, 1.0, 1e-5, rates, False, zero_tol=1e-3)[2] == MODE_AT_ORIGIN
    assert gain_rates(2e-3, 1.0, 2e-3, rates, False, zero_tol=1e-3)[2] == MODE_IN_UNIT_BALL
    assert gain_rates(1e-5, 1.0, 1e-5, rates, True, zero_tol=1e-3)[2] == MODE_IN_UNIT_BALL


def test_network_rates_branches():
    d_lin, d_th3, mode = gain_rates(4.0, 1.5, 2.0, _network_rates(), True)
    assert mode == MODE_ABOVE_ONE
    assert d_lin == pytest.approx(0.3)  # 0.05 * 1.5 * 4
    assert d_th3 == 0.0
    d_lin, d_th3, mode = gain_rates(0.25, 1.0, 0.25, _network_rates(), True)
    assert mode == MODE_IN_UNIT_BALL
    assert d_lin == pytest.approx(0.025)  # 0.05 * sqrt(0.25)
    assert d_th3 == pytest.approx(0.02)
    d_lin, d_th3, mode = gain_rates(0.0, 1.0, 0.0, _network_rates(), True)
    assert d_lin == d_th3 == 0.0
    assert mode == MODE_AT_ORIGIN


def test_adaptive_state_validation():
    with pytest.raises(ValueError):
        _scalar_rates(d1=0.0)
    with pytest.raises(ValueError):
        _network_rates(d3=-0.02)
    # a norm the switch has no functional for, as detect_phases rejects it
    with pytest.raises(ValueError, match="^unknown norm 'foo'$"):
        _scalar_rates(norm="foo")


def test_pinning_control_values():
    e = np.array([[1.0, -1.0], [2.0, 0.0]])
    u = pinning_control(e, sigma=1.0, theta1=0.1, theta3=2.0)
    assert np.allclose(u[0], [-2.1, 2.1])
    assert np.allclose(u[1], [-2.0, 0.0])
    assert (pinning_control(np.zeros((2, 2)), 1.0, 0.1, 2.0) == 0.0).all()


def test_full_node_control_values():
    e = np.array([[1.0, -1.0]])
    u = full_node_control(e, theta3=2.0, theta4=1.0)
    assert np.allclose(u[0], [-3.0, 3.0])


def test_control_spec_validation():
    with pytest.raises(ValueError):
        NetworkControlSpec(kind="bang")
    with pytest.raises(ValueError):
        NetworkControlSpec(kind="pinning", sigma=0.0)
    with pytest.raises(ValueError):
        NetworkControlSpec(kind="full", theta3=-1.0)


def _adaptive_run(norm="two", horizon=40.0):
    profile = DelayProfile.proportional(0.5)
    rate = RateFunction.power(0.1)
    hook = ScalarAdaptiveHook(0.1, 0.1, 0.1, rate, profile, norm=norm)
    rhs = delayed_linear_rhs(1.0, 2.0, profile, control=hook.control)
    cfg = IntegratorConfig(horizon=horizon, h=1e-3)
    return integrate(rhs, [2.0], profile, cfg, gain_hook=hook)


def test_adaptive_gains_start_at_zero_and_monotone():
    traj = _adaptive_run()
    gains = traj.gains
    assert (gains[0] == 0.0).all()
    assert (np.diff(gains, axis=0) >= 0.0).all()


def test_hook_gains_are_one_array_updated_in_place():
    # one list of floats in names order, the one the integrator records
    hook = ScalarAdaptiveHook(0.1, 0.1, 0.1, RATE, PROFILE)
    gains = hook.gains
    rhs = delayed_linear_rhs(1.0, 2.0, PROFILE, control=hook.control)
    traj = integrate(rhs, [2.0], PROFILE, IntegratorConfig(horizon=2.0, h=1e-3),
                     gain_hook=hook)
    assert hook.gains is gains and all(type(g) is float for g in gains)
    assert traj.gains[-1].tolist() == gains
    assert hook.sign_gain == gains[0] and gains[1] > 0.0


def test_adaptive_gains_freeze_after_window_clears():
    traj = _adaptive_run()
    absp = np.abs(traj.states[:, 0])
    nz = np.nonzero(absp > 0.0)[0]
    t_star = traj.times[nz[-1] + 1]        # state reaches exact zero here
    # the proportional window [0.5t, t] is all-zero from 2*t_star on
    gains = traj.gains
    changed = np.nonzero((np.diff(gains, axis=0) != 0.0).any(axis=1))[0]
    t_last_change = traj.times[changed[-1] + 1]
    assert t_last_change == pytest.approx(2.0 * t_star, abs=2e-3)
    # and they really are constant afterwards
    k = np.searchsorted(traj.times, 2.0 * t_star + 1e-9)
    assert (gains[k:] == gains[-1]).all()


def test_network_hook_gain_names():
    profile = DelayProfile.pairwise_sin(3)
    rate = RateFunction.power(0.1)
    hook = NetworkAdaptiveHook(0.05, 0.05, 0.02, rate, profile,
                               variant="theta3_theta4")
    assert hook.names == ("theta4", "theta3")
    hook2 = NetworkAdaptiveHook(0.05, 0.05, 0.02, rate, profile,
                                variant="theta1_theta3")
    assert hook2.names == ("theta1", "theta3")
    with pytest.raises(ValueError):
        NetworkAdaptiveHook(0.05, 0.05, 0.02, rate, profile, variant="theta2")
