import math

import numpy as np
import pytest

from fintstab.delays import DelayProfile
from fintstab.integrate import (DivergenceError, HistoryTrajectory,
                                IntegratorConfig, RunningWindowSup,
                                delayed_linear_rhs, integrate, norm1,
                                norm_inf, sq_norm2, window_sup)


def sign_rhs(t, p, traj):
    return -np.sign(p)


def test_pure_sign_feedback_linear_decay():
    prof = DelayProfile.constant(0.0)
    cfg = IntegratorConfig(horizon=4.0, h=1e-3, zero_band=1e-3)
    traj = integrate(sign_rhs, [2.0], prof, cfg)
    ts = traj.times
    ps = traj.states[:, 0]
    ramp = ts <= 2.0 - 1e-9
    assert np.abs(ps[ramp] - (2.0 - ts[ramp])).max() < 2e-3
    # settles to exactly zero and stays
    settled = ts >= 2.0 + 2e-3
    assert (ps[settled] == 0.0).all()


def test_static_gain_run_settles_and_stays():
    prof = DelayProfile.proportional(0.5)
    rhs = delayed_linear_rhs(1.0, 2.0, prof,
                             control=lambda t, p: -np.sign(p) * (2.1 + 3.5 * np.abs(p)))
    cfg = IntegratorConfig(horizon=30.0, h=1e-3, zero_band=2.1e-3)
    traj = integrate(rhs, [2.0], prof, cfg)
    absp = np.abs(traj.states[:, 0])
    below = np.nonzero(absp <= 1e-6)[0]
    assert below.size > 0
    assert (absp[below[0]:] <= 1e-6).all()


def test_subthreshold_gain_never_settles():
    prof = DelayProfile.proportional(0.5)
    rhs = delayed_linear_rhs(1.0, 2.0, prof,
                             control=lambda t, p: -np.sign(p) * (2.1 + 1.0 * np.abs(p)))
    cfg = IntegratorConfig(horizon=50.0, h=1e-3, zero_band=2.1e-3,
                           divergence_limit=1e100)
    traj = integrate(rhs, [2.0], prof, cfg)
    assert np.abs(traj.states[:, 0]).min() > 1e-2


def test_divergence_detected():
    prof = DelayProfile.constant(0.0)
    cfg = IntegratorConfig(horizon=100.0, h=1e-2)
    with pytest.raises(DivergenceError) as ei:
        integrate(lambda t, x, traj: 10.0 * x, [1.0], prof, cfg)
    assert ei.value.blow_up_time > 0.0


def test_query_exact_at_grid_points():
    prof = DelayProfile.constant(0.0)
    cfg = IntegratorConfig(horizon=1.0, h=1e-2)
    traj = integrate(lambda t, x, traj: -x, [1.0, -2.0], prof, cfg)
    for k in (0, 7, 50, 100):
        t = k * 1e-2
        assert (traj.query(t) == traj.states[k]).all()


def test_from_arrays_gains_need_names():
    states = np.zeros((3, 1))
    with pytest.raises(ValueError, match="gain_names"):
        HistoryTrajectory.from_arrays(0.0, 0.1, states, gains=np.ones((3, 2)))
    traj = HistoryTrajectory.from_arrays(0.0, 0.1, states, gain_names=["a", "b"],
                                         gains=np.ones((3, 2)))
    assert traj.gains.shape == (3, 2)


def test_query_interpolates_between_grid_points():
    traj = HistoryTrajectory.from_arrays(0.0, 1.0, np.array([[0.0], [2.0]]))
    assert traj.query(0.25)[0] == pytest.approx(0.5)
    assert traj.query(0.0)[0] == 0.0


def test_constant_delay_prehistory_is_constant_extension():
    # x' = x(t - 1) with x = 1 on [-1, 0] gives x(t) = 1 + t on [0, 1]
    prof = DelayProfile.constant(1.0)

    def rhs(t, x, traj):
        return traj.query(t - 1.0)

    cfg = IntegratorConfig(horizon=1.0, h=1e-3)
    traj = integrate(rhs, [1.0], prof, cfg)
    assert traj.query(1.0)[0] == pytest.approx(2.0, abs=2e-3)


def test_window_sup_basic_cases():
    prof = DelayProfile.constant(2.0)
    n = 101
    zeros = HistoryTrajectory.from_arrays(0.0, 0.1, np.zeros((n, 2)))
    assert window_sup(zeros, 5.0, prof, sq_norm2) == 0.0
    # monotone decreasing |p|: sup attained at the left window end
    ts = np.linspace(0.0, 10.0, n)
    dec = HistoryTrajectory.from_arrays(0.0, 0.1, (10.0 - ts)[:, None])
    t = 6.0
    assert window_sup(dec, t, prof, norm_inf) == pytest.approx(10.0 - (t - 2.0))


def test_window_sup_sine_full_period():
    h = 1e-3
    ts = np.arange(0.0, 2 * np.pi + h / 2, h)
    traj = HistoryTrajectory.from_arrays(0.0, h, np.sin(ts)[:, None])
    prof = DelayProfile.custom(envelope=lambda t: t)  # window is [0, t]
    val = window_sup(traj, ts[-1], prof, sq_norm2)
    assert val == pytest.approx(1.0, abs=1e-4)


def test_running_window_sup_matches_bruteforce():
    rng = np.random.default_rng(7)
    h = 0.01
    n = 400
    vals = rng.standard_normal(n + 1) ** 2
    prof = DelayProfile.proportional(0.5)
    tracker = RunningWindowSup(0.0, h, prof)
    # the tracker slides forward only, so compare at every k in order
    for k, v in enumerate(vals):
        tracker.push(float(v))
        t = k * h
        a = t - prof.envelope(t)
        u = a / h
        k_lo = max(0, int(math.ceil(u - 1e-12)))
        brute = vals[k_lo:k + 1].max()
        kb = max(0, int(math.floor(u)))
        frac = u - kb
        boundary = (1 - frac) * vals[kb] + frac * vals[min(kb + 1, k)]
        assert tracker.sup(k) == pytest.approx(max(brute, float(boundary)), rel=1e-12)


def test_zero_band_projection_absorbs():
    # after hitting zero the uncontrolled drift stays below the sign gain,
    # so the state must remain identically zero
    prof = DelayProfile.proportional(0.5)
    rhs = delayed_linear_rhs(0.0, 0.1, prof,
                             control=lambda t, p: -np.sign(p) * 1.0)
    cfg = IntegratorConfig(horizon=5.0, h=1e-3, zero_band=1e-3)
    traj = integrate(rhs, [0.5], prof, cfg)
    ps = traj.states[:, 0]
    first_zero = np.nonzero(ps == 0.0)[0]
    assert first_zero.size > 0
    assert (ps[first_zero[0]:] == 0.0).all()


def test_rk4_frozen_matches_euler_order():
    # smooth linear ODE: RK4 should beat Euler by a wide margin
    prof = DelayProfile.constant(0.0)
    exact = math.exp(-1.0)
    errs = {}
    for method in ("euler", "rk4_frozen"):
        cfg = IntegratorConfig(horizon=1.0, h=1e-2, method=method)
        traj = integrate(lambda t, x, traj: -x, [1.0], prof, cfg)
        errs[method] = abs(traj.states[-1, 0] - exact)
    assert errs["rk4_frozen"] < errs["euler"] * 1e-3


def test_norm_helpers():
    x = np.array([3.0, -4.0])
    assert sq_norm2(x) == 25.0
    assert norm1(x) == 7.0
    assert norm_inf(x) == 4.0


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(horizon=1.0, h=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(horizon=1.0, h=1e-3, zero_band=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(horizon=1.0, h=1e-3, method="heun")
