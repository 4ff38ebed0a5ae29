"""The delay-lookup primitive: grid_rows, DelayPlan and PlanGather.

Plan rows are checked against a plain scalar floor/weight reference written
out below, one query time at a time.  The pantograph oracle measures the
integrator's global order on a delayed problem with an exact solution.
"""
import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fintstab.delays import DelayProfile
from fintstab.integrate import (DelayPlan, HistoryTrajectory, HistoryWindowError,
                                IntegratorConfig, PlanGather, RunningWindowSup,
                                delayed_linear_rhs, diag_cols, grid_rows,
                                integrate)

# the package re-exports the function integrate, which shadows the submodule
integ = importlib.import_module("fintstab.integrate")
SNAP = 1e-9


def ref_row(t, t0, h, last):
    """(lo, hi, w) of one query time: floor, weight and snap in plain floats."""
    if t < t0:
        return 0, 0, 0.0
    u = (t - t0) / h
    if u > last + SNAP:
        raise HistoryWindowError(t)
    k = min(math.floor(u), last)
    frac = u - k
    if frac < SNAP:
        return k, k, 0.0
    if frac > 1.0 - SNAP and k + 1 <= last:
        return k + 1, k + 1, 0.0
    return k, min(k + 1, last), frac


def ref_rows(profile, t0, h, k, envelope=False):
    t = t0 + k * h
    if envelope:
        return [ref_row(t - float(profile.envelope(t)), t0, h, k)]
    return [ref_row(t - d, t0, h, k) for d in profile.delays_at(t)]


def as_rows(lo, hi, w):
    return [(int(a), int(b), float(c)) for a, b, c in zip(lo, hi, w)]


def plan_rows(plan, k):
    blk, r = plan.row(k)
    return as_rows(blk.lo[r], blk.hi[r], blk.w[r])


def _custom(coeffs, shift):
    # a smooth, non-proportional family: pi_i(t) = c_i*t + shift*(1 + sin t)/2
    return DelayProfile.custom(
        envelope=lambda t: max(coeffs) * t + shift,
        component=lambda i, t: coeffs[i] * t + shift * 0.5 * (1.0 + math.sin(t)),
        n_components=len(coeffs))


ratios = st.floats(0.01, 0.95)


@st.composite
def profiles(draw):
    kind = draw(st.sampled_from(["proportional", "constant", "per_component", "custom"]))
    m = draw(st.integers(1, 4))
    if kind == "proportional":
        return DelayProfile.proportional(draw(ratios), n_components=m)
    if kind == "constant":
        return DelayProfile.constant(draw(st.floats(0.0, 3.0)), n_components=m)
    coeffs = draw(st.lists(st.floats(0.0, 0.9), min_size=m, max_size=m))
    if kind == "per_component":
        return DelayProfile.per_component_proportional(coeffs, envelope_q=0.95)
    return _custom(coeffs, draw(st.floats(0.0, 2.0)))


grids = st.tuples(st.floats(1e-3, 0.5), st.floats(0.0, 5.0))


@settings(max_examples=60, deadline=None)
@given(profiles(), grids, st.lists(st.integers(0, 3 * integ.PLAN_BLOCK), min_size=1,
                                   max_size=8), st.booleans())
def test_plan_rows_match_scalar_reference(profile, grid, ks, envelope):
    h, t0 = grid
    plan = DelayPlan(profile, t0, h, envelope=envelope)
    for k in ks:
        assert plan_rows(plan, k) == ref_rows(profile, t0, h, k, envelope)


@settings(max_examples=40, deadline=None)
@given(profiles(), grids, st.integers(1, 3), st.integers(-5, 5))
def test_block_boundaries_match_one_large_block(profile, grid, boundary, offset):
    h, t0 = grid
    start = boundary * integ.PLAN_BLOCK + offset - 4
    ks = np.arange(start, start + 2 * integ.PLAN_BLOCK + 9)   # crosses two boundaries
    ts = t0 + ks * h
    whole = grid_rows(ts[:, None] - profile.delay_table(ts), t0, h, ks[:, None])
    plan = DelayPlan(profile, t0, h)
    for k in list(ks) + list(ks[::-1]):   # forwards, then backwards across blocks
        r = k - start
        assert plan_rows(plan, int(k)) == as_rows(whole[0][r], whole[1][r], whole[2][r])


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 2.0), grids, st.integers(1, 3), st.integers(0, 200))
def test_constant_delay_prehistory_reads_initial_history(tau, grid, dim, k):
    h, t0 = grid
    profile = DelayProfile.constant(tau, n_components=dim)
    history = lambda t: np.array([math.sin(3.0 * t + i) for i in range(dim)])
    rng = np.random.default_rng(k)
    traj = HistoryTrajectory.from_arrays(t0, h, rng.normal(size=(k + 1, dim)))
    traj.initial_history = history
    gather = PlanGather(diag_cols(dim, dim), dim)
    got = gather(traj, k, DelayPlan(profile, t0, h)).ravel()
    t = t0 + k * h
    if t - tau < t0:
        assert got.tolist() == history(t - tau).tolist()
    assert got.tolist() == traj.query_diag(np.full(dim, t - tau)).tolist()


def test_constant_delay_prehistory_drives_integration():
    # p' = p(t - 1) with history phi(t) = 1 + t: Euler reads phi(t_k - 1) for t_k < 1
    profile = DelayProfile.constant(1.0)
    cfg = IntegratorConfig(horizon=1.0, h=0.05)
    traj = integrate(delayed_linear_rhs(0.0, 1.0, profile), [1.0], profile, cfg,
                     initial_history=lambda t: np.array([1.0 + t]))
    p = 1.0
    for k in range(20):
        t = 0.05 * k
        p = p + 0.05 * (1.0 + (t - 1.0))
    assert traj.states[-1, 0] == pytest.approx(p, abs=1e-14)


def _lookahead_profile(after):
    # delays of -0.3 from t = after on: each such query looks past its own step
    return DelayProfile.custom(envelope=lambda t: 0.0,
                               component=lambda i, t: 0.0 if t < after else -0.3)


@settings(max_examples=30, deadline=None)
@given(st.floats(1e-3, 0.1), st.integers(0, 2 * integ.PLAN_BLOCK))
def test_lookahead_query_raises(h, bad):
    profile = _lookahead_profile(bad * h)   # step `bad` is the first to look ahead
    plan = DelayPlan(profile, 0.0, h)
    for k in range(max(0, bad - 2), bad):
        assert plan_rows(plan, k) == ref_rows(profile, 0.0, h, k)
    with pytest.raises(HistoryWindowError):
        plan.row(bad)


def test_lookahead_raises_in_integrate_and_queries():
    profile = _lookahead_profile(0.5)
    cfg = IntegratorConfig(horizon=1.0, h=0.01)
    with pytest.raises(HistoryWindowError):
        integrate(delayed_linear_rhs(0.0, 1.0, profile), [1.0], profile, cfg)
    traj = HistoryTrajectory.from_arrays(0.0, 0.1, np.arange(5.0)[:, None])
    with pytest.raises(HistoryWindowError):
        traj.query(0.45)
    with pytest.raises(HistoryWindowError):
        traj.query_diag(np.array([0.41]))
    assert traj.query(0.4 + 1e-12)[0] == 4.0   # within the snap band


@settings(max_examples=40, deadline=None)
@given(profiles(), grids, st.integers(0, 100))
def test_plan_gather_matches_interpolate(profile, grid, k):
    h, t0 = grid
    dim = profile.n_components
    rng = np.random.default_rng(k)
    traj = HistoryTrajectory.from_arrays(t0, h, rng.normal(size=(k + 2, dim)))
    cols = diag_cols(dim, dim)
    traj.plan = DelayPlan(profile, t0, h)
    t = t0 + k * h
    times = t - profile.delays_at(t)
    assert PlanGather(cols, dim)(traj, k).tolist() == traj.interpolate(times, cols).tolist()


def test_running_window_sup_boundary_uses_plan_rows():
    h = 0.1
    profile = DelayProfile.proportional(0.35)
    tracker = RunningWindowSup(0.0, h, profile)
    values = [math.cos(0.7 * k) for k in range(60)]
    for k, v in enumerate(values):
        tracker.push(v)
        (lo, hi, w), = ref_rows(profile, 0.0, h, k, envelope=True)
        boundary = (1.0 - w) * values[lo] + w * values[hi]
        assert tracker.sup(k) == max(values[hi:k + 1] + [boundary])


def test_delayed_linear_rhs_on_trajectory_without_plan():
    # a recorded trajectory carries no plan: the rhs reads its current step
    profile = DelayProfile.per_component_proportional([0.3, 0.6])
    rng = np.random.default_rng(3)
    traj = HistoryTrajectory.from_arrays(0.5, 0.01, rng.normal(size=(41, 2)))
    assert traj.plan is None
    t = traj.current_time
    p = traj.states[-1]
    got = delayed_linear_rhs(1.5, -2.0, profile)(t, p, traj)
    want = 1.5 * p - 2.0 * traj.query_diag(t - profile.delays_at(t))
    assert got.tolist() == want.tolist()


def test_delayed_linear_rhs_accepts_an_equal_profile_object():
    cfg = IntegratorConfig(horizon=2.0, h=0.01)
    same = DelayProfile.proportional(0.4)
    ref = integrate(delayed_linear_rhs(-1.0, 0.5, same), [1.0], same, cfg)
    other = integrate(delayed_linear_rhs(-1.0, 0.5, DelayProfile.proportional(0.4)),
                      [1.0], same, cfg)
    assert other.states.tolist() == ref.states.tolist()


# -- exact-solution oracle ----------------------------------------------------

def pantograph(c1, c2, q, p0, t):
    """p' = c1 p + c2 p((1-q)t): sum a_n t^n, (n+1) a_{n+1} = (c1 + c2 (1-q)^n) a_n."""
    a, total, n = p0, 0.0, 0
    while True:
        term = a * t ** n
        total += term
        if n > 10 and abs(term) < 1e-17 * abs(total):
            return total
        a = (c1 + c2 * (1.0 - q) ** n) * a / (n + 1)
        n += 1


@pytest.mark.parametrize("method, err_1e3", [("euler", 9.6e-2), ("rk4_frozen", 3.4e-2)])
def test_pantograph_oracle_first_order(method, err_1e3):
    c1, c2, q, p0, T = 1.0, 2.0, 0.5, 1.0, 2.0
    exact = pantograph(c1, c2, q, p0, T)
    profile = DelayProfile.proportional(q)
    errs = {}
    for h in (4e-3, 2e-3, 1e-3, 5e-4):
        cfg = IntegratorConfig(horizon=T, h=h, method=method)
        traj = integrate(delayed_linear_rhs(c1, c2, profile), [p0], profile, cfg)
        errs[h] = abs(traj.states[-1, 0] - exact)
    orders = [math.log2(errs[h] / errs[h / 2]) for h in (4e-3, 2e-3, 1e-3)]
    assert all(0.9 <= p <= 1.1 for p in orders), orders
    assert 0.75 * err_1e3 <= errs[1e-3] <= 1.25 * err_1e3
