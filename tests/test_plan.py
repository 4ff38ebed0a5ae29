"""The delay-lookup primitive: grid_rows, DelayPlan, its blocks' values and BlockRows.

Plan rows are checked against a plain scalar floor/weight reference written
out below, one query time at a time.  The pantograph and method-of-steps
oracles measure the integrator's global order on delayed problems with exact
solutions.
"""
import contextlib
import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fintstab.cli import EXAMPLE1, run
from fintstab.config import load_config
from fintstab.delays import DelayProfile
from fintstab.integrate import (BlockRows, DelayPlan, HistoryTrajectory,
                                HistoryWindowError, IntegratorConfig, RunningWindowSup,
                                delayed_linear_rhs, diag_cols, grid_rows,
                                integrate, window_sups)

from test_integrate import window_sup   # the O(window) brute-force reference

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
    blk = plan.row(k)   # the block starting at k: k's row is its first
    return as_rows(blk.lo[0], blk.hi[0], blk.w[0])


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
    got = DelayPlan(profile, t0, h).row(k).values(traj, diag_cols(dim, dim))[0].ravel()
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


@settings(max_examples=60, deadline=None)
@given(profiles(), grids, st.lists(st.integers(0, 3 * integ.PLAN_BLOCK), min_size=1,
                                   max_size=8), st.booleans())
def test_plan_blocks_are_complete(profile, grid, ks, envelope):
    # a block never reads past its first step, and ends only at its aligned
    # run's end or before the first row that would
    h, t0 = grid
    plan = DelayPlan(profile, t0, h, envelope=envelope)
    for k in ks:
        blk = plan.row(k)
        assert blk.start == k < blk.stop
        assert blk.hi.max() <= blk.start
        if blk.stop % integ.PLAN_BLOCK:
            nxt = ref_rows(profile, t0, h, blk.stop, envelope)
            assert max(hi for _, hi, _ in nxt) > blk.start


@settings(max_examples=30, deadline=None)
@given(st.floats(1e-3, 0.1), st.integers(0, 2 * integ.PLAN_BLOCK))
def test_complete_blocks_stop_before_lookahead(h, bad):
    plan = DelayPlan(_lookahead_profile(bad * h), 0.0, h)
    k = 0
    while k < bad:
        blk = plan.row(k)
        assert blk.hi.max() <= blk.start and blk.stop <= bad
        k = blk.stop
    with pytest.raises(HistoryWindowError):
        plan.row(bad)


@st.composite
def sin_envelopes(draw):
    # pi(t) = c*t + shift*(1 + sin t)/2 with c + shift/2 <= 1: both window
    # ends stay nondecreasing, as RunningWindowSup needs
    c, shift = draw(st.floats(0.0, 0.5)), draw(st.floats(0.0, 1.0))
    return DelayProfile.custom(envelope=lambda t: c * t + shift * 0.5 * (1.0 + math.sin(t)))


@settings(max_examples=30, deadline=None)
@given(st.one_of(profiles(), sin_envelopes()), grids,
       st.integers(1, 2 * integ.PLAN_BLOCK + 10))
def test_running_window_sup_matches_window_sup(profile, grid, n):
    # constant delays longer than t - t0 put the window's left end in the
    # pre-history, which both read as the value at t0
    h, t0 = grid
    values = np.random.default_rng(n).normal(size=n + 1)
    traj = HistoryTrajectory.from_arrays(t0, h, values[:, None])
    tracker = RunningWindowSup(t0, h, profile)
    for k, v in enumerate(values.tolist()):
        tracker.push(v)
        assert tracker.sup(k) == window_sup(traj, t0 + k * h, profile, lambda x: float(x[0]))


def _deque_sups(values, t0, h, profile):
    """The reference for window_sups: RunningWindowSup pushed one value at a time."""
    tracker = RunningWindowSup(t0, h, profile)
    out = []
    for k, v in enumerate(values.tolist()):
        tracker.push(v)
        out.append(tracker.sup(k))
    return np.array(out)


@st.composite
def window_series(draw):
    """A grid (t0 may be nonzero), a profile, and a series of plateaus drawn
    from a few levels (repeated maxima) with exact zeros of either sign."""
    h, t0 = draw(grids)
    lag = st.sampled_from([0.0, 0.3, 0.5, 1.0, 2.5]).map(lambda f: DelayProfile.constant(f * h))
    # the window's left end t - a*h*(1 + sin(t/h)) steps back now and then:
    # the deque's left edge then holds at its furthest point so far
    wavy = st.floats(0.5, 3.0).map(
        lambda a: DelayProfile.custom(envelope=lambda t: a * h * (1.0 + math.sin(t / h))))
    profile = draw(st.one_of(profiles(), sin_envelopes(), lag,   # lags of 0 and under a step
                             wavy, st.just(DelayProfile.pairwise_sin(3))))
    n = draw(st.integers(1, 300) | st.integers(1, 2 * integ.ROW_CHUNK + 50))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    levels = rng.normal(size=draw(st.sampled_from([1, 3, 8, n])))
    values = np.repeat(rng.choice(levels, n), rng.integers(1, 30, n))[:n]
    values[rng.random(n) < draw(st.sampled_from([0.0, 0.05, 0.5]))] = 0.0
    values[rng.random(n) < draw(st.sampled_from([0.0, 0.05, 0.5]))] = -0.0
    return t0, h, profile, values


# examples from the hypothesis profile: more, derandomised, under --hypothesis-profile=ci
@settings(deadline=None)
@given(window_series(), st.sampled_from([5, integ.PLAN_BLOCK, None]))
def test_window_sups_match_the_running_deque_bitwise(case, chunk):
    t0, h, profile, values = case
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:   # short fill runs, so that short series cross them
            mp.setattr(integ, "ROW_CHUNK", chunk)
        got = window_sups(values, t0, h, profile)
    assert got.tobytes() == _deque_sups(values, t0, h, profile).tobytes()


@pytest.mark.parametrize("n", [1, integ.ROW_CHUNK, 2 * integ.ROW_CHUNK + 1])
@pytest.mark.parametrize("profile", [DelayProfile.proportional(0.5), DelayProfile.constant(0.0),
                                     DelayProfile.constant(0.0125)])
def test_window_sups_across_fill_chunks(n, profile):
    # h = 0.01 makes the constant lag 1.25 steps
    values = np.abs(np.sin(0.003 * np.arange(n))).round(2)
    got = window_sups(values, 0.5, 0.01, profile)
    assert got.tobytes() == _deque_sups(values, 0.5, 0.01, profile).tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_window_sups_reject_non_finite_values(bad):
    values = np.ones(10)
    values[6] = bad
    with pytest.raises(ValueError, match="non-finite value .* at row 6"):
        window_sups(values, 0.0, 0.1, DelayProfile.proportional(0.5))


def _history(dim):
    return lambda t: np.array([math.sin(3.0 * t + i) for i in range(dim)])


def _gathers_agree(profile, t0, h, n, history):
    """Gather every step of an n-step trajectory three ways: by block from a
    fully recorded copy, by block while the rows are appended one step at a
    time (the integrator's view), and per time through query_diag.  Every
    block the growing trajectory's plan hands out must read only rows
    recorded at its first step.  Returns how those blocks ended: "cut" before
    a row that reads past the block's first step, or "run" at the end of the
    plan's aligned run."""
    dim = profile.n_components
    # the recorded copy covers every block the n steps touch
    states = np.random.default_rng(n).normal(size=((n // integ.PLAN_BLOCK + 1)
                                                    * integ.PLAN_BLOCK, dim))
    full = HistoryTrajectory.from_arrays(t0, h, states)
    growing = HistoryTrajectory(t0, h, states[0], n)
    for traj in (full, growing):
        traj.initial_history = history
        traj.plan = DelayPlan(profile, t0, h)
    cols = diag_cols(dim, dim)
    ends = set()

    def rows(traj):
        def make(blk):
            if traj is growing:
                assert blk.hi.max() <= growing._filled == blk.start
                ends.add("run" if blk.stop == growing.plan._run.stop else "cut")
            return list(blk.values(traj, cols))
        return BlockRows(traj.plan, make)

    on_full, on_growing = rows(full), rows(growing)
    for k in range(n + 1):
        got, step = on_full.row(k), on_growing.row(k)
        t = t0 + k * h
        want = growing.query_diag(t - profile.delays_at(t))
        assert got.tobytes() == want.tobytes() == step.tobytes()
        if k < n:
            growing.append(states[k + 1])
    return ends


@settings(max_examples=40, deadline=None)
@given(profiles(), grids, st.integers(0, 3 * integ.PLAN_BLOCK), st.booleans())
def test_plan_gather_matches_interpolate(profile, grid, n, with_history):
    # block rows (recorded copy) == per-step rows (growing) == query_diag
    h, t0 = grid
    _gathers_agree(profile, t0, h, n, _history(profile.n_components) if with_history else None)


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


@contextlib.contextmanager
def count_blocks():
    """Record every block DelayPlan.row cuts, per plan, and count the
    BlockRows builds and _PlanBlock.values calls made meanwhile."""
    cuts, counts = {}, {"make": 0, "values": 0}
    row, init, values = DelayPlan.row, BlockRows.__init__, integ._PlanBlock.values

    def counted_row(plan, k):
        blk = row(plan, k)
        cuts.setdefault(plan, []).append((blk.start, blk.stop))
        return blk

    def counted_init(rows, plan, make):
        def counted_make(blk):
            counts["make"] += 1
            return make(blk)
        init(rows, plan, counted_make)

    def counted_values(blk, traj, cols):
        counts["values"] += 1
        return values(blk, traj, cols)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DelayPlan, "row", counted_row)
        mp.setattr(BlockRows, "__init__", counted_init)
        mp.setattr(integ._PlanBlock, "values", counted_values)
        yield cuts, counts


def assert_tiled(cuts):
    """Each plan's blocks follow one another: a block is cut once, at the
    step after the previous block's end.  Returns the number of blocks."""
    for blocks in cuts.values():
        assert all(stop == nxt for (_, stop), (nxt, _) in zip(blocks, blocks[1:]))
    return sum(len(blocks) for blocks in cuts.values())


def test_static_example1_builds_each_block_once():
    # delayed_linear_rhs builds a block's rows with one values call; the
    # monitors' window sups fill whole envelope runs and cut no block
    doc = dict(EXAMPLE1, integrator={"horizon": 2.0, "h": 1e-3})
    with count_blocks() as (cuts, counts):
        res = run(load_config(doc))
    n_steps = res.traj.states.shape[0] - 1
    steps = cuts[res.traj.plan]
    assert list(cuts) == [res.traj.plan]
    assert steps[0][0] == 0 and steps[-1][1] >= n_steps
    assert counts["values"] == len(steps) < n_steps // 50
    assert counts["make"] == assert_tiled(cuts) == len(steps)


def test_running_window_sup_builds_each_block_once():
    profile = DelayProfile.proportional(0.35)
    n = 3 * integ.PLAN_BLOCK + 17
    with count_blocks() as (cuts, counts):
        tracker = RunningWindowSup(0.0, 0.01, profile)
        for k, v in enumerate(np.cos(0.07 * np.arange(n)).tolist()):
            tracker.push(v)
            tracker.sup(k)
    (steps,) = cuts.values()
    assert steps[0][0] == 0 and steps[-1][1] >= n
    assert counts["make"] == assert_tiled(cuts) < n // 20
    assert counts["values"] == 0


def test_delayed_linear_rhs_on_trajectory_without_plan():
    # a recorded trajectory carries no plan: the rhs reads its current step
    profile = DelayProfile.per_component_proportional([0.3, 0.6])
    rng = np.random.default_rng(3)
    traj = HistoryTrajectory.from_arrays(0.5, 0.01, rng.normal(size=(41, 2)))
    assert traj.plan is None
    t = traj.current_time
    p = traj.states[-1]
    got = delayed_linear_rhs(1.5, -2.0, profile)(t, p, traj)   # a list of floats
    want = 1.5 * p - 2.0 * traj.query_diag(t - profile.delays_at(t))
    assert np.asarray(got).tobytes() == want.tobytes()


def test_delayed_linear_rhs_accepts_an_equal_profile_object():
    cfg = IntegratorConfig(horizon=2.0, h=0.01)
    same = DelayProfile.proportional(0.4)
    ref = integrate(delayed_linear_rhs(-1.0, 0.5, same), [1.0], same, cfg)
    other = integrate(delayed_linear_rhs(-1.0, 0.5, DelayProfile.proportional(0.4)),
                      [1.0], same, cfg)
    assert other.states.tolist() == ref.states.tolist()


@pytest.mark.parametrize("steps, paths", [
    (10, {"cut", "run"}),
    (integ.PLAN_BLOCK - 2, {"cut", "run"}),   # a run's last step reads the row after its first
    (integ.PLAN_BLOCK - 1, {"run"}),          # ... reads exactly the run's first row
    (integ.PLAN_BLOCK + 40, {"run"}),
])
@pytest.mark.parametrize("with_history", [False, True])
def test_constant_delay_block_paths(steps, paths, with_history):
    # `paths`: how the plan's blocks end.  A delay shorter than a block cuts
    # each block before its first row that reads a row the block itself
    # records; a longer one lets every block fill its aligned run
    h, dim = 0.01, 2
    profile = DelayProfile.constant(steps * h + 0.3 * h, n_components=dim)
    history = _history(dim) if with_history else None
    assert _gathers_agree(profile, 0.5, h, 3 * integ.PLAN_BLOCK + 7, history) == paths


def test_one_gather_alternating_between_trajectories():
    # a plan keeps no block of its own: block rows of two trajectories, as
    # of a network's drive and error, may share one plan step by step
    profile = DelayProfile.proportional(0.5)
    plan = DelayPlan(profile, 0.0, 0.01)
    rng = np.random.default_rng(7)
    trajs = [HistoryTrajectory.from_arrays(0.0, 0.01, rng.normal(size=(600, 1)))
             for _ in range(2)]
    rows = [BlockRows(plan, lambda blk, traj=traj: list(blk.values(traj, diag_cols(1, 1))))
            for traj in trajs]
    for k in (300, 301, 302):
        t = k * 0.01
        for i in (0, 1, 0):
            want = trajs[i].query_diag(t - profile.delays_at(t))
            assert rows[i].row(k).tobytes() == want.tobytes()


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


def test_pantograph_oracle_first_order():
    c1, c2, q, p0, T = 1.0, 2.0, 0.5, 1.0, 2.0
    exact = pantograph(c1, c2, q, p0, T)
    profile = DelayProfile.proportional(q)
    errs = {}
    for h in (4e-3, 2e-3, 1e-3, 5e-4):
        cfg = IntegratorConfig(horizon=T, h=h)
        traj = integrate(delayed_linear_rhs(c1, c2, profile), [p0], profile, cfg)
        errs[h] = abs(traj.states[-1, 0] - exact)
    orders = [math.log2(errs[h] / errs[h / 2]) for h in (4e-3, 2e-3, 1e-3)]
    assert all(0.9 <= p <= 1.1 for p in orders), orders
    assert 0.75 * 9.6e-2 <= errs[1e-3] <= 1.25 * 9.6e-2


def method_of_steps(c2, tau, t):
    """p' = c2 p(t - tau) with p = 1 + t before 0, exact on [0, 2 tau]: the
    first piece integrates the history, the second the first piece."""
    def first(s):
        return 1.0 + c2 * ((1.0 - tau) * s + s * s / 2.0)
    if t <= tau:
        return first(t)
    u = t - tau
    return first(tau) + c2 * (u + c2 * ((1.0 - tau) * u * u / 2.0 + u ** 3 / 6.0))


def test_method_of_steps_oracle_first_order():
    # the delayed term reads the initial history on [0, tau] and the
    # recorded rows on [tau, 2 tau]
    c2, tau = -1.5, 0.5
    profile = DelayProfile.constant(tau)
    errs = {}
    for h in (1e-2, 5e-3, 2.5e-3):
        cfg = IntegratorConfig(horizon=2.0 * tau, h=h, zero_band=0.0)
        traj = integrate(delayed_linear_rhs(0.0, c2, profile), [1.0], profile, cfg,
                         initial_history=lambda t: np.array([1.0 + t]))
        exact = np.array([method_of_steps(c2, tau, t) for t in traj.times])
        errs[h] = np.abs(traj.states[:, 0] - exact).max()
    assert all(err <= 0.4 * h for h, err in errs.items()), errs
    assert all(1.8 <= errs[h] / errs[h / 2] <= 2.2 for h in (1e-2, 5e-3)), errs
