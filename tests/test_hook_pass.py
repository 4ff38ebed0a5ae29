"""A hook run crosses its zero-state tail in array passes: `integrate` with
`at_rest` and a hook that has `zero_steps` takes the steps at a +0.0 state
in passes that stop before a band miss, a mode change or a non-finite
gain.  Every output must equal stepping bitwise: rows, gains, zero-band
hits, the hook's mode timeline, mode, gains and window, and the time a run
diverges at."""
import math

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st

import fintstab.integrate as fi
import test_integrate
from fintstab.control import NetworkAdaptiveHook, NetworkControlSpec, ScalarAdaptiveHook
from fintstab.delays import DelayProfile, RateFunction
from fintstab.integrate import (DivergenceError, HistoryTrajectory, IntegratorConfig,
                                RunningWindowSup, delayed_linear_rhs, integrate)
from fintstab.network import (NetworkModel, SyncExperiment, _error_rhs, lorenz_preset,
                              simulate_sync, sin_plus_linear)
from test_coupling import _ref_error_rhs, _ref_outer_sync
from test_integrate import _reference_integrate
from test_rest import _counting, _crossing


def _observed(run, hook):
    """run() with its zero-band hits counted, its passes logged and the
    hook's mode switches recorded as (step, new mode): (outcome, log), the
    outcome holding run()'s result (or its divergence time), the hits, the
    switches and the hook's mode, gains and window after the run."""
    hits, log, switches = [0], [], []
    if hook is not None:
        step = hook.step

        def watched(t, x, traj):
            before = hook.mode
            step(t, x, traj)
            if hook.mode != before:
                switches.append((traj._filled, hook.mode))

        hook.step = watched
    with pytest.MonkeyPatch.context() as mp:
        _crossing(mp, log)
        mp.setattr(fi, "_project_zero_band", _counting(fi._project_zero_band, hits))
        mp.setattr(test_integrate, "_reference_zero_band",
                   _counting(test_integrate._reference_zero_band, hits))
        try:
            result = run()
        except DivergenceError as exc:
            result = exc.blow_up_time
        except OverflowError:   # a rate's mu(t) beyond the float range
            result = "OverflowError"
    after = None
    if hook is not None:
        tracker, window = hook._tracker, None
        if tracker is not None:   # the values, and whether the deque is theirs
            replay = RunningWindowSup(*tracker._grid[1:], tracker._grid[0])
            for k, v in enumerate(tracker.values):
                replay.push(v)
                replay.sup(k)
            window = (tracker.values.tobytes(), list(tracker._dq) == list(replay._dq))
        after = (hook.mode, np.array(hook.gains).tobytes(), window)
    return (result, hits[0], switches, after), log


def _assert_alike(got, want):
    """got, of a run that may take passes, equals want, of one that steps
    every step, bitwise: the hook's window holds want's values, and each
    run's deque is the one its values give."""
    assert got[:3] == want[:3]
    if got[3] is None:
        assert want[3] is None
        return
    (mode, gains, window), (want_mode, want_gains, want_window) = got[3], want[3]
    assert (mode, gains) == (want_mode, want_gains)
    if window is None:
        assert want_window is None
        return
    assert window[0] == want_window[0] and window[1] and want_window[1]


def _rows(traj):
    return traj.states.tobytes(), None if traj.gains is None else traj.gains.tobytes()


# -- the hook's window over pushed zeros ---------------------------------------------------

_NORM_VALUES = st.one_of(st.just(0.0), st.floats(0.0, 4.0), st.sampled_from([0.5, 1.0]))


@settings(max_examples=80, deadline=None)
@given(values=st.lists(_NORM_VALUES, min_size=1, max_size=120),
       profile=st.sampled_from([DelayProfile.proportional(0.5), DelayProfile.proportional(0.9),
                                DelayProfile.constant(0.0), DelayProfile.constant(0.07)]),
       zeros=st.integers(1, 80), data=st.data())
def test_window_zero_steps_equal_push_and_sup(values, profile, zeros, data):
    """`RunningWindowSup.zero_steps` gives the sups of pushed zeros, and its
    take(u) leaves the values and the deque as u push(0.0)/sup calls do."""
    h = 0.01
    trackers = [RunningWindowSup(0.0, h, profile) for _ in range(2)]
    for tracker in trackers:
        for k, v in enumerate(values):
            tracker.push(v)
            tracker.sup(k)
    stepped, crossed = trackers
    start = len(values)
    want = []
    for k in range(start, start + zeros):
        stepped.push(0.0)
        want.append(stepped.sup(k))
    sups, take = crossed.zero_steps(start + zeros)
    assert sups.tobytes() == np.array(want).tobytes()
    u = data.draw(st.integers(0, zeros), label="u")
    take(u)
    replay = RunningWindowSup(0.0, h, profile)
    for k, v in enumerate(values + [0.0] * u):
        replay.push(v)
        replay.sup(k)
    assert crossed.values.tobytes() == replay.values.tobytes()
    assert list(crossed._dq) == list(replay._dq)


# -- scalar hook runs --------------------------------------------------------------------

_RATES = st.one_of(st.floats(0.05, 1.0).map(RateFunction.power),
                   st.floats(0.05, 1.0).map(RateFunction.exponential))
_PROFILES = st.sampled_from([DelayProfile.proportional(0.5), DelayProfile.proportional(0.2),
                             DelayProfile.constant(0.05), DelayProfile.constant(0.3)])


def _scalar_run(loop, norm, rate, profile, p0, c2, rates, horizon, h):
    hook = ScalarAdaptiveHook(*rates, rate, profile, norm=norm)
    rhs = delayed_linear_rhs(1.0, c2, profile, control=hook.control)
    cfg = IntegratorConfig(horizon=horizon, h=h)
    return _observed(lambda: _rows(loop(rhs, p0, profile, cfg, gain_hook=hook,
                                        at_rest=rhs.at_rest)), hook)


def test_scalar_hook_runs_cross_bitwise_equal_to_stepping():
    """All three norms, power and exponential rates, proportional and
    constant delays, drawn p0, c2, rates and horizons: an adaptive run that
    takes passes equals the reference loop, which steps every step, in its
    rows, gains, hits, mode switches, final mode, gains and window, or in
    the time it diverges at.  A negative c2 lets the delayed term leave the
    band, so some passes stop at a band miss and stepping resumes."""
    crossed, resumed = [], []

    @settings(max_examples=60, deadline=None)
    @given(norm=st.sampled_from(["two", "one", "inf"]), rate=_RATES, profile=_PROFILES,
           dim=st.integers(1, 2), p0=st.floats(-3.0, 3.0),
           c2=st.sampled_from([2.0, -2.0, -4.0]),
           rates=st.tuples(*[st.floats(0.5, 3.0)] * 3), horizon=st.sampled_from([4.0, 8.0]),
           h=st.sampled_from([0.02, 0.01]))
    @example(norm="two", rate=RateFunction.power(0.1), profile=DelayProfile.proportional(0.5),
             dim=1, p0=-1.38, c2=-4.0, rates=(0.6, 0.54, 2.53), horizon=8.0, h=0.01)
    def check(norm, rate, profile, dim, p0, c2, rates, horizon, h):
        args = (norm, rate, profile, [p0] * dim, c2, rates, horizon, h)
        got, log = _scalar_run(integrate, *args)
        want, _ = _scalar_run(_reference_integrate, *args)
        _assert_alike(got, want)
        crossed.append(bool(log))
        if isinstance(got[0], tuple):
            states = np.frombuffer(got[0][0]).reshape(-1, dim)
            resumed.append(any(s < j and states[s + 1].any() for _, j, s in log))

    check()
    assert sum(crossed) >= len(crossed) // 4, f"{sum(crossed)} of {len(crossed)} crossed"
    assert any(resumed)   # the explicit example's first pass stops at a band miss


def test_a_pass_takes_each_step_at_its_own_band_and_stops_at_a_mode_change():
    """p0 = 0.5 sits in the unit ball and one step takes it to +0.0 (h = 0.5);
    the sign gain then grows by h*d1 = 0.5 a step, so step k's band is
    0.25k.  A forcing 0.4k, which the zero-state values mirror, is caught at
    every step by its own band and missed from step 2 by the first one.  The
    window empties of row 0 at step 11, which switches the mode to the
    origin: the pass stops there, the loop steps it through hook.step, and
    a second pass takes the steps to the horizon."""
    g = [0.0] + [0.4 * k for k in range(1, 14)] + [0.0] * 26

    def run(loop):
        hook = ScalarAdaptiveHook(1.0, 1.0, 1.0, RateFunction.power(0.1),
                                  DelayProfile.constant(5.0))

        def rhs(t, x, traj):
            return [-2.0 * x[0] + g[traj._filled]]

        def at_rest(start, stop, traj):
            return np.array(g[start:stop])[:, None]

        cfg = IntegratorConfig(horizon=20.0, h=0.5)
        return _observed(lambda: _rows(loop(rhs, [0.5], DelayProfile.constant(5.0), cfg,
                                            gain_hook=hook, at_rest=at_rest)), hook)

    got, log = run(integrate)
    want, _ = run(_reference_integrate)
    _assert_alike(got, want)
    assert log[:2] == [(1, 40, 11), (12, 40, 40)]
    assert got[2] == [(0, "in_unit_ball"), (11, "at_origin")]
    assert got[1] == 13   # steps 1..13 hit


@pytest.mark.parametrize("varpi, d2", [(10.0, 1e300), (1000.0, 1.0)])
def test_an_overflowing_rate_above_one_diverges_at_the_stepped_time(varpi, d2):
    """Above one at a +0.0 state the linear gain adds h*(d2*mu(t)*0.0).
    With d2 = 1e300 and mu(t) = exp(10 t), d2*mu(t) overflows at t = 2
    (step 4): the gain turns NaN there, the sign law of step 5 gives NaN,
    and the run diverges at t = 3.0 after a pass over steps 1..4.  With
    d2 = 1 and mu(t) = exp(1000 t), mu itself overflows at t = 1 (step 2),
    where `step` raises OverflowError: the pass takes step 1 alone."""
    profile = DelayProfile.constant(5.0)   # row 0's value 16 holds the mode above one

    def run(loop, at_rest):
        hook = ScalarAdaptiveHook(1.0, d2, 1.0, RateFunction.exponential(varpi), profile)

        def rhs(t, x, traj):   # h = 0.5 takes p0 to exactly 0 in one step
            return [-2.0 * x[0] + u for u in hook.control(t, x.tolist())]

        zeros = (lambda start, stop, traj: np.zeros((stop - start, 1))) if at_rest else None
        cfg = IntegratorConfig(horizon=20.0, h=0.5)
        return _observed(lambda: _rows(loop(rhs, [4.0], profile, cfg, gain_hook=hook,
                                            at_rest=zeros)), hook)

    got, log = run(integrate, True)
    assert got == run(integrate, False)[0] == run(_reference_integrate, False)[0]
    gains, window = np.frombuffer(got[3][1]), got[3][2]
    if varpi == 10.0:
        assert got[0] == 3.0 and log == [(1, 40, 5)]
        assert math.isnan(gains[1]) and len(window[0]) == 5 * 8   # steps 0..4
    else:
        assert got[0] == "OverflowError" and log == [(1, 40, 2)]
        assert gains[1] == 8.0 and len(window[0]) == 3 * 8   # steps 0..2


# -- network hook runs --------------------------------------------------------------------

def _small_network(c, theta2, q, variant, rates, rate, drive, offset):
    """Two one-dimensional nodes with field c*x under the hook's variant:
    settled tails the band misses are common here (four-second horizon,
    h = 0.01)."""
    model = NetworkModel(N=2, n=1, A=np.array([[-1.0, 1.0], [1.0, -1.0]]),
                         B=np.array([[1.0, -1.0], [0.5, 1.0]]), theta1=0.1, theta2=theta2,
                         f=lambda x: c * np.asarray(x, dtype=float), g=sin_plus_linear,
                         L_f=abs(c), L_g=3.0, delays=DelayProfile.proportional(q))
    hook = NetworkAdaptiveHook(*rates, rate, model.delays, variant=variant)
    return SyncExperiment(model=model, drive_init=np.array(drive)[:, None],
                          response_init=(np.array(drive) + np.array(offset))[:, None],
                          control=NetworkControlSpec(kind="pinning", sigma=1.0),
                          integrator=IntegratorConfig(horizon=4.0, h=0.01), adaptive_hook=hook)


def _sync_outcome(sync, make):
    """_observed of `sync` (simulate_sync or the per-step reference) on
    make()'s experiment: its drive rows and error rows and gains."""
    exp = make()

    def run():
        res = sync(exp)
        drive, error = (res.drive, res.error) if sync is simulate_sync else res
        return drive.states.tobytes(), _rows(error)

    return _observed(run, exp.adaptive_hook)


def test_network_hook_runs_cross_bitwise_equal_to_stepping():
    """Both adaptive variants and rates on a small network: simulate_sync,
    whose error run takes passes, equals the per-step reference sync, which
    steps every step, in the drive and error rows, gains, hits, mode
    switches, and the hook's final mode, gains and window."""
    crossed = []

    # no shrink phase: shrinking a failure through two syncs a draw takes minutes
    @settings(max_examples=40, deadline=None,
              phases=[p for p in Phase if p is not Phase.shrink])
    @given(c=st.floats(-2.0, 4.0), theta2=st.floats(0.5, 10.0),
           q=st.sampled_from([0.3, 0.5, 0.8]),
           variant=st.sampled_from(["theta1_theta3", "theta3_theta4"]),
           rates=st.tuples(*[st.floats(0.5, 20.0)] * 3), rate=_RATES,
           drive=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
           offset=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2))
    def check(c, theta2, q, variant, rates, rate, drive, offset):
        args = (c, theta2, q, variant, rates, rate, drive, offset)
        got, log = _sync_outcome(simulate_sync, lambda: _small_network(*args))
        want, _ = _sync_outcome(_ref_outer_sync, lambda: _small_network(*args))
        _assert_alike(got, want)
        crossed.append(bool(log))

    check()
    assert sum(crossed) >= len(crossed) // 4, f"{sum(crossed)} of {len(crossed)} crossed"


def test_a_network_tail_the_band_misses_steps_on_bitwise():
    """A small network whose first pass stops at a band miss: the error
    leaves 0, stepping resumes, a later pass takes the tail, and the run
    equals the per-step reference bitwise."""
    args = (0.61, 5.84, 0.5, "theta1_theta3", (17.79, 4.64, 11.08),
            RateFunction.power(0.1), [0.3, -0.7], [0.5, 0.4])
    got, log = _sync_outcome(simulate_sync, lambda: _small_network(*args))
    want, _ = _sync_outcome(_ref_outer_sync, lambda: _small_network(*args))
    _assert_alike(got, want)
    errors = np.frombuffer(got[0][1][0]).reshape(-1, 2)
    misses = [s for _, j, s in log if s < j and errors[s + 1].any()]
    assert misses and len(log) > len(misses)


def test_the_lorenz_adaptive_error_crosses_bitwise():
    """The Lorenz preset near synchrony under both variants settles within
    800 steps: its passes stop at the switch to the origin, and the sync
    equals the per-step reference bitwise."""
    for variant in ("theta1_theta3", "theta3_theta4"):
        def make():
            exp = lorenz_preset(horizon=0.4, h=5e-4)
            exp.response_init = exp.drive_init + 0.2 * np.sin(np.arange(9.0)).reshape(3, 3)
            exp.adaptive_hook = NetworkAdaptiveHook(20.0, 20.0, 100.0, RateFunction.power(0.1),
                                                    exp.model.delays, variant=variant)
            exp.control = NetworkControlSpec(kind="pinning", sigma=2.0)
            return exp

        got, log = _sync_outcome(simulate_sync, make)
        _assert_alike(got, _sync_outcome(_ref_outer_sync, make)[0])
        assert log and got[2][-1][1] == "at_origin"


# -- the network's zero-state values -----------------------------------------------------

_DRIVE = st.just(0.0) | st.floats(-20.0, 20.0).map(lambda v: v + 0.0)


@settings(deadline=None)
@given(drive_row=st.lists(_DRIVE, min_size=9, max_size=9),
       neg_zero=st.none() | st.integers(0, 8), start=st.integers(1, 300),
       control=st.sampled_from(["none", "full", "pinning", "theta1_theta3", "theta3_theta4"]),
       gains=st.tuples(st.floats(0.0, 1e3), st.floats(0.0, 1e3)),
       theta=st.tuples(st.floats(0.0, 20.0), st.floats(0.0, 20.0)),
       sigma=st.floats(0.1, 5.0))
def test_error_at_rest_is_the_settled_rhs_row_by_row(drive_row, neg_zero, start, control,
                                                    gains, theta, sigma):
    """At rows whose error is +0.0, `rhs.at_rest` is the error rhs plus
    0.0, row for row, bitwise; at a drive row with a -0.0 component, where
    the rhs takes its full path, it is NaN."""
    model = lorenz_preset().model
    rng = np.random.default_rng(start)
    stop = start + 20
    xs = rng.normal(size=(stop + 1, 9))
    es = rng.normal(size=(stop + 1, 9))
    es[start:] = 0.0
    k_neg = start + 7
    if neg_zero is not None:
        drive_row[neg_zero] = -0.0
    xs[k_neg] = drive_row
    drive = HistoryTrajectory.from_arrays(0.0, 5e-4, xs)
    etraj = HistoryTrajectory.from_arrays(0.0, 5e-4, es)
    hook = None
    if control.startswith("theta"):
        hook = NetworkAdaptiveHook(0.05, 0.05, 0.02, RateFunction.power(0.1), model.delays,
                                   variant=control)
        hook.gains[:] = gains
        spec = NetworkControlSpec(kind="pinning", sigma=sigma)
    else:
        spec = NetworkControlSpec(kind=control, theta3=theta[0], theta4=theta[1], sigma=sigma)
    rhs, ref = _error_rhs(model, drive, spec, hook), _ref_error_rhs(model, drive, spec, hook)
    got = rhs.at_rest(start, stop, etraj)
    for k in range(start, stop):
        etraj._filled = k
        if neg_zero is not None and k == k_neg:
            assert np.isnan(got[k - start]).all()
        else:
            want = ref(k * 5e-4, etraj._states[k], etraj) + 0.0
            assert got[k - start].tobytes() == want.tobytes()


@pytest.mark.parametrize("control", ("pinning", "theta1_theta3", "theta3_theta4"))
def test_error_at_rest_is_nan_at_a_gain_without_a_finite_value(control):
    """theta1 * sigma overflows, or the hook's linear gain is inf: the rhs
    takes its full path (NaN), and every zero-state value is NaN."""
    model = lorenz_preset().model
    hook, spec = None, NetworkControlSpec(kind="pinning", theta3=1.0, sigma=1e300)
    if control == "pinning":
        model.theta1 = 1e300
    else:
        hook = NetworkAdaptiveHook(0.05, 0.05, 0.02, RateFunction.power(0.1),
                                   model.delays, variant=control)
        hook.gains[:] = [math.inf, 1.0]
    rng = np.random.default_rng(3)
    drive = HistoryTrajectory.from_arrays(0.0, 5e-4, rng.normal(size=(40, 9)))
    etraj = HistoryTrajectory.from_arrays(0.0, 5e-4, np.zeros((40, 9)))
    assert np.isnan(_error_rhs(model, drive, spec, hook).at_rest(5, 30, etraj)).all()
