import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fintstab.cli import run
from fintstab.config import load_config
from fintstab.delays import DelayProfile
from fintstab.integrate import (DivergenceError, HistoryTrajectory,
                                IntegratorConfig, RunningWindowSup,
                                delayed_linear_rhs, diag_cols, grid_rows, integrate,
                                norm1, norm_inf)

# the package re-exports the function integrate, which shadows the submodule
integ = importlib.import_module("fintstab.integrate")


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


def window_sup(traj, t, profile, functional):
    """Supremum of `functional` over [t - pi(t), t], O(window): the
    brute-force reference for RunningWindowSup.

    Grid points inside the window plus the two boundary interpolants.  A left
    boundary before t0 resolves through the trajectory's initial history
    (constant extension by default).
    """
    a = t - float(profile.envelope(t))
    lo, hi, _ = grid_rows([a, t], traj.t0, traj.h, traj._filled)
    # grid points in the window: from a's upper row to t's lower row
    best = max((functional(traj._states[k]) for k in range(hi[0], lo[1] + 1)),
               default=-math.inf)
    return max(best, functional(traj.query(a)), functional(traj.query(t)))


def test_window_sup_basic_cases():
    prof = DelayProfile.constant(2.0)
    n = 101
    zeros = HistoryTrajectory.from_arrays(0.0, 0.1, np.zeros((n, 2)))
    assert window_sup(zeros, 5.0, prof, lambda x: float(np.dot(x, x))) == 0.0
    # monotone decreasing |p|: sup attained at the left window end
    ts = np.linspace(0.0, 10.0, n)
    dec = HistoryTrajectory.from_arrays(0.0, 0.1, (10.0 - ts)[:, None])
    t = 6.0
    assert window_sup(dec, t, prof, norm_inf) == pytest.approx(10.0 - (t - 2.0))


def test_window_sup_sine_full_period():
    h = 1e-3
    ts = np.arange(0.0, 2 * np.pi + h / 2, h)
    traj = HistoryTrajectory.from_arrays(0.0, h, np.sin(ts)[:, None])
    prof = DelayProfile.constant(2 * np.pi)  # t - 2 pi < 0 reads row 0: window is [0, t]
    val = window_sup(traj, ts[-1], prof, lambda x: float(np.dot(x, x)))
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


@settings(max_examples=60, deadline=None)
@given(c1=st.floats(-2.0, 2.0), lift=st.floats(0.1, 5.0), c3=st.floats(0.2, 5.0),
       p0=st.floats(0.05, 3.0), sign=st.sampled_from((1.0, -1.0)),
       h=st.sampled_from((4e-3, 1e-3, 2.5e-4)))
def test_sign_feedback_settles_at_the_closed_form_time(c1, lift, c3, p0, sign, h):
    # c2 = 0: p' = -a p - c3 sgn(p) with a = c4 - c1 > 0 reaches 0 at
    # T* = ln(1 + a |p0| / c3) / a; the Euler step with its zero band settles
    # within a few steps of it, at every step size
    c4 = max(c1, 0.0) + lift
    a = c4 - c1
    t_star = math.log1p(a * p0 / c3) / a
    doc = {"schema_version": 1, "kind": "scalar",
           "system": {"c1": c1, "c2": 0.0, "initial_state": [sign * p0]},
           "gains": {"c3": c3, "c4": c4}, "delay": {"kind": "constant", "pi": 0.0},
           "rate": {"kind": "exponential", "rate": 0.1},
           "integrator": {"horizon": h * (math.ceil(t_star / h) + 10), "h": h}}
    assert abs(run(load_config(doc)).T_settle - t_star) <= 3.0 * h


def test_norm_helpers():
    x = np.array([3.0, -4.0])
    assert norm1(x) == 7.0
    assert norm_inf(x) == 4.0


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(horizon=1.0, h=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(horizon=1.0, h=1e-3, zero_band=-1.0)


def test_integrate_rejects_horizon_off_the_step_grid():
    profile = DelayProfile.proportional(0.5)
    rhs = delayed_linear_rhs(-1.0, 0.5, profile)
    with pytest.raises(ValueError, match=r"horizon 1 .* h = 0\.3"):
        integrate(rhs, [1.0], profile, IntegratorConfig(horizon=1.0, h=0.3))
    traj = integrate(rhs, [1.0], profile, IntegratorConfig(horizon=0.9, h=0.3))
    assert traj.states.shape[0] == 4


@pytest.mark.parametrize("zero_band", [None, 0.5])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_step_raises_at_its_end(bad, zero_band):
    # the first component flips into the band in the same step
    prof = DelayProfile.constant(0.0)
    cfg = IntegratorConfig(horizon=1.0, h=0.1, zero_band=zero_band)
    for loop in (integrate, _reference_integrate):
        with pytest.raises(DivergenceError) as exc:
            loop(lambda t, x, traj: np.array([-0.2, bad]), [0.01, 1.0], prof, cfg)
        assert exc.value.blow_up_time == 0.1


def _reference_zero_band(x_old, x_new, band):
    # the projection as first written: flip mask, then band test
    if band <= 0.0:
        return x_new
    flipped = (x_old * x_new < 0.0) | ((x_old == 0.0) & (x_new != 0.0))
    hit = flipped & (np.abs(x_new) <= band)
    if hit.any():
        x_new = x_new.copy()
        x_new[hit] = 0.0
    return x_new


BAND = 0.25
_special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, BAND, -BAND,
                            math.nextafter(BAND, 1.0), math.nan, 0.1, -0.1, 3.0, -3.0])
_entries = st.one_of(_special, st.floats(-1.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(
           lambda m: st.tuples(st.lists(_entries, min_size=m, max_size=m),
                               st.lists(_entries, min_size=m, max_size=m))),
       st.sampled_from([0.0, BAND, 1e-300]))
def test_project_zero_band_matches_reference_bitwise(pair, band):
    x_old, x_new = (np.array(v) for v in pair)
    want = _reference_zero_band(x_old, x_new.copy(), band)
    got = integ._project_zero_band(x_old, x_new, band)
    assert got.tobytes() == want.tobytes()
    if not ((got == 0.0) & (x_new != 0.0)).any():   # nothing hit: same object
        assert got is x_new


# -- the step loop against a reference copy of its NumPy form -----------------------

def _reference_integrate(rhs, initial_state, profile, config, gain_hook=None,
                         at_rest=None):
    """`integrate`'s loop with NumPy tests: the band looked up every step,
    the projection as first written, one abs-max reduction for divergence.
    It steps every step: `at_rest` is accepted and ignored."""
    x = np.atleast_1d(np.asarray(initial_state, dtype=float)).copy()
    h = config.h
    traj = HistoryTrajectory(0.0, h, x, config.n_steps,
                             gain_names=gain_hook.names if gain_hook is not None else None)
    if gain_hook is not None:
        traj._gains[0] = gain_hook.gains
    for k in range(config.n_steps):
        t = k * h
        x_new = x + h * np.asarray(rhs(t, x, traj), dtype=float)
        if config.zero_band is not None:
            band = config.zero_band
        elif gain_hook is not None:
            band = gain_hook.sign_gain * h
        else:
            band = 0.0
        x_new = _reference_zero_band(x, x_new, band)
        if not np.abs(x_new).max() <= config.divergence_limit:
            raise DivergenceError(t + h)
        if gain_hook is not None:
            gain_hook.step(t, x, traj)
            traj._gains[k + 1] = gain_hook.gains
        traj._states[k + 1] = x_new
        traj._filled = k + 1
        x = x_new
    return traj


def delayed_values(profile, traj, k, cols):
    """traj's state columns cols at step k's delayed times t_k - pi_p(t_k),
    looked up alone with the history up to row k: the per-step reference for
    the block readers, shape (components, columns per row)."""
    t = traj.t0 + k * traj.h
    lo, hi, w = grid_rows(t - profile.delays_at(t), traj.t0, traj.h, k)
    return traj._lookup(lo, hi, w, cols)


def _reference_linear_rhs(c1, c2, profile, control):
    """delayed_linear_rhs with c2 applied to each step's gathered row, looked
    up alone at the step."""

    def rhs(t, p, traj):
        cols = diag_cols(profile.n_components, traj.dim)
        vals = delayed_values(profile, traj, traj._filled, cols)
        return c1 * p + c2 * vals.ravel() + control(t, p)

    return rhs


class _RampHook:
    """A sign gain that starts at `start` and grows by `rate` each step, so
    the auto band moves per step."""

    names = ("c3",)

    def __init__(self, start, rate):
        self.gains = np.array([start])
        self.rate = rate

    @property
    def sign_gain(self):
        return self.gains.item(0)

    def step(self, t, x, traj):
        self.gains[0] += self.rate


def _outcome(run):
    try:
        traj = run()
    except DivergenceError as exc:
        return "diverged", exc.blow_up_time
    gains = None if traj.gains is None else traj.gains.tobytes()
    return traj.states.tobytes(), gains


def _both_loops(x0, profile, cfg, c1=0.0, c2=0.0, c3=0.0, c4=0.0, hook=None):
    """Outcomes of `integrate` and of the reference loop on x' = c1 x +
    c2 x(t - pi) - sgn(x)(c3 + c4 |x|); `hook` = (start, rate) of a _RampHook,
    whose sign gain sets the auto band (independent of c3, so that the band
    edge is met from both sides)."""
    def control(t, p):
        return -np.sign(p) * (c3 + c4 * np.abs(p))

    outcomes = []
    for loop, linear_rhs in ((integrate, delayed_linear_rhs),
                             (_reference_integrate, _reference_linear_rhs)):
        gain_hook = None if hook is None else _RampHook(*hook)
        rhs = linear_rhs(c1, c2, profile, control)
        outcomes.append(_outcome(lambda: loop(rhs, x0, profile, cfg, gain_hook=gain_hook)))
    return outcomes


_STATES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310,
                                     1e-3, -1e-3]),
                    st.floats(-1.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(1, 9), shared=st.booleans(), data=st.data())
def test_step_loop_matches_the_reference_loop_bitwise(dim, shared, data):
    x0 = data.draw(st.lists(_STATES, min_size=dim, max_size=dim), label="x0")
    gains = {name: data.draw(st.floats(lo, hi), label=name)
             for name, lo, hi in (("c1", -2.0, 2.0), ("c2", -2.0, 2.0),
                                  ("c3", 0.0, 4.0), ("c4", 0.0, 2.0))}
    n_components = 1 if shared else dim
    pi = data.draw(st.sampled_from([None, 0.0, 0.013, 0.25]), label="constant pi")
    profile = (DelayProfile.proportional(0.5, n_components) if pi is None
               else DelayProfile.constant(pi, n_components))
    # band: 0, auto (the hook's sign gain times h, or 0 without a hook) or explicit
    band = data.draw(st.sampled_from([0.0, None, None, 0.01, 0.05]), label="zero_band")
    hook = data.draw(st.one_of(st.none(), st.tuples(st.floats(0.0, 3.0),
                                                    st.sampled_from([0.0, 0.02]))),
                     label="hook (start, ramp)")
    limit = data.draw(st.sampled_from([1e12, 2.0]), label="divergence_limit")
    cfg = IntegratorConfig(horizon=2.0, h=0.01, zero_band=band, divergence_limit=limit)
    got, want = _both_loops(x0, profile, cfg, hook=hook, **gains)
    assert got == want


def _one_step(dx, limit=1e12, band=None, x0=(0.0,), hook=None, h=1.0):
    """Both loops' outcomes of one Euler step x0 + h*dx."""
    cfg = IntegratorConfig(horizon=h, h=h, zero_band=band, divergence_limit=limit)
    outcomes = []
    for loop in (integrate, _reference_integrate):
        rhs = lambda t, x, traj: np.array(dx, dtype=float)
        gain_hook = None if hook is None else _RampHook(*hook)
        outcomes.append(_outcome(lambda: loop(rhs, list(x0), DelayProfile.constant(0.0),
                                              cfg, gain_hook=gain_hook)))
    return outcomes


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_a_component_at_the_divergence_limit_passes(sign):
    limit = 2.0
    got, want = _one_step([0.5, sign * limit], limit, x0=(0.0, 0.0))
    assert got == want and got[0] != "diverged"
    above = math.nextafter(limit, math.inf)
    got, want = _one_step([0.5, sign * above], limit, x0=(0.0, 0.0))
    assert got == want == ("diverged", 1.0)


def test_a_band_wider_than_the_limit_projects_before_the_test():
    # x crosses 0 to -3 > limit in magnitude, but inside the band: zeroed, no error
    got, want = _one_step([-4.0], 2.0, band=5.0, x0=(1.0,))
    assert got == want
    assert got[0] == np.array([1.0, 0.0]).tobytes()
    assert _one_step([-4.0], 2.0, band=2.5, x0=(1.0,))[0] == ("diverged", 1.0)


def test_the_auto_band_is_the_hooks_sign_gain_times_h():
    # sign gain 2, h = 0.25: band 0.5, so a flip to -0.5 is zeroed and one
    # just past it is not
    x_edge = np.array([1.0, 0.0]).tobytes()
    got, want = _one_step([-6.0], x0=(1.0,), hook=(2.0, 0.0), h=0.25)
    assert got == want and got[0] == x_edge
    past = math.nextafter(-6.0, -math.inf)
    got, want = _one_step([past], x0=(1.0,), hook=(2.0, 0.0), h=0.25)
    assert got == want and got[0] != x_edge


def test_package_attribute_is_the_integrate_module():
    # the package does not re-export the function over its submodule
    import types

    import fintstab
    assert isinstance(fintstab.integrate, types.ModuleType)
    assert callable(fintstab.integrate.integrate)
