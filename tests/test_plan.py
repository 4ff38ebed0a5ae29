"""The delay-lookup primitive: grid_rows, the block reader DelayedRows and envelope_rows.

Their rows are checked against a plain scalar floor/weight reference written
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
from fintstab.control import ScalarAdaptiveHook, StaticScalarGains, static_scalar_control
from fintstab.delays import DelayProfile, RateFunction
from fintstab.integrate import (DelayedRows, HistoryTrajectory, HistoryWindowError,
                                IntegratorConfig, RunningWindowSup, delayed_linear_rhs,
                                diag_cols, envelope_rows, grid_rows, integrate,
                                window_sups)

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


def grid_reader(profile, t0, h):
    """DelayedRows whose row k is step k's grid rows (lo, hi, w), one per component."""
    return DelayedRows(profile, t0, h, lambda lo, hi, w: list(zip(lo, hi, w)))


def run_rows(profile, t0, h, k):
    """Step k's envelope row, from the aligned run that RunningWindowSup reads."""
    start = k - k % integ.PLAN_BLOCK
    lo, hi, w = envelope_rows(profile, t0, h, start, start + integ.PLAN_BLOCK)
    r = slice(k - start, k - start + 1)
    return as_rows(lo[r], hi[r], w[r])


def handed_blocks(profile, t0, h, ks):
    """(start, lo, hi, w) of each block one DelayedRows hands out as its rows
    ks are read in turn."""
    made, blocks = [], []
    reader = DelayedRows(profile, t0, h, lambda *blk: made.append(blk) or [None] * len(blk[0]))
    for k in ks:
        n = len(made)
        reader.row(k)
        if len(made) > n:
            blocks.append((k, *made[-1]))
    return blocks


ratios = st.floats(0.01, 0.95)


@st.composite
def profiles(draw):
    kind = draw(st.sampled_from(["proportional", "constant", "per_component"]))
    m = draw(st.integers(1, 4))
    if kind == "proportional":
        return DelayProfile.proportional(draw(ratios), n_components=m)
    if kind == "constant":
        return DelayProfile.constant(draw(st.floats(0.0, 3.0)), n_components=m)
    coeffs = draw(st.lists(st.floats(0.0, 0.9), min_size=m, max_size=m))
    return DelayProfile.per_component_proportional(coeffs, envelope_q=0.95)


grids = st.tuples(st.floats(1e-3, 0.5), st.floats(0.0, 5.0))


@settings(max_examples=60, deadline=None)
@given(profiles(), grids, st.lists(st.integers(0, 3 * integ.PLAN_BLOCK), min_size=1,
                                   max_size=8), st.booleans())
def test_plan_rows_match_scalar_reference(profile, grid, ks, envelope):
    h, t0 = grid
    reader = grid_reader(profile, t0, h)
    for k in ks:
        got = run_rows(profile, t0, h, k) if envelope else as_rows(*reader.row(k))
        assert got == ref_rows(profile, t0, h, k, envelope)


@settings(max_examples=40, deadline=None)
@given(profiles(), grids, st.integers(1, 3), st.integers(-5, 5))
def test_block_boundaries_match_one_large_block(profile, grid, boundary, offset):
    h, t0 = grid
    start = boundary * integ.PLAN_BLOCK + offset - 4
    ks = np.arange(start, start + 2 * integ.PLAN_BLOCK + 9)   # crosses two boundaries
    ts = t0 + ks * h
    whole = grid_rows(ts[:, None] - profile.delay_table(ts), t0, h, ks[:, None])
    reader = grid_reader(profile, t0, h)
    for k in list(ks) + list(ks[::-1]):   # forwards, then backwards across blocks
        r = k - start
        assert as_rows(*reader.row(int(k))) == as_rows(whole[0][r], whole[1][r], whole[2][r])


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 2.0), grids, st.integers(1, 3), st.integers(0, 200))
def test_constant_delay_prehistory_reads_initial_history(tau, grid, dim, k):
    # the initial history is the constant extension of the initial state: a
    # delayed time before t0 reads row 0, bitwise
    h, t0 = grid
    profile = DelayProfile.constant(tau, n_components=dim)
    rng = np.random.default_rng(k)
    traj = HistoryTrajectory.from_arrays(t0, h, rng.normal(size=(k + 1, dim)))
    rows = DelayedRows(profile, t0, h, lambda lo, hi, w: list(
        traj._lookup(lo, hi, w, diag_cols(dim, dim))))
    got = rows.row(k).ravel()
    t = t0 + k * h
    if t - tau < t0:
        assert got.tobytes() == traj.states[0].tobytes()
    assert got.tobytes() == traj.query_diag(np.full(dim, t - tau)).tobytes()


def test_constant_delay_prehistory_drives_integration():
    # p' = p(t - 1) with p = 1 before 0: Euler reads the constant pre-history
    # 1 for t_k < 1, so every step adds h exactly as the loop below does
    profile = DelayProfile.constant(1.0)
    cfg = IntegratorConfig(horizon=1.0, h=0.05)
    traj = integrate(delayed_linear_rhs(0.0, 1.0, profile), [1.0], profile, cfg)
    p = [1.0]
    for _ in range(20):
        p.append(p[-1] + 0.05 * 1.0)
    assert traj.states[:, 0].tolist() == p


@st.composite
def affine_profiles(draw, h):
    """Every constructor, at the edges of the readers' reach: ratios up to
    0.999, and constant lags of 0 and under one step h."""
    m = draw(st.integers(1, 4))
    return draw(st.one_of(
        st.floats(1e-3, 0.999).map(lambda q: DelayProfile.proportional(q, n_components=m)),
        st.sampled_from([0.0, 0.3, 0.999]).map(lambda f: DelayProfile.constant(f * h, m)),
        st.floats(0.0, 3.0).map(lambda lag: DelayProfile.constant(lag, m)),
        st.lists(st.floats(0.0, 0.999), min_size=m, max_size=m).map(
            lambda c: DelayProfile.per_component_proportional(c, envelope_q=0.999)),
        st.integers(1, 4).map(DelayProfile.pairwise_sin)))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([1e-3, 2.0 ** -10, 0.01, 0.37]), st.floats(0.0, 5.0),
       st.integers(0, 4 * integ.PLAN_BLOCK) | st.integers(0, 10 ** 6),
       st.integers(1, 2 * integ.PLAN_BLOCK), st.booleans())
def test_no_plan_row_reads_past_its_own_step(data, h, t0, start, length, envelope):
    # every delay is >= 0, so t_k - pi(t_k) <= t_k: a fill never raises
    # HistoryWindowError, and row k's upper row is at most k
    profile = data.draw(affine_profiles(h))
    if envelope:
        lo, hi, _ = envelope_rows(profile, t0, h, start, start + length)
        lo, hi = lo[:, None], hi[:, None]
    else:   # the blocks tile the steps from start and may run past the last
        blocks = handed_blocks(profile, t0, h, range(start, start + length))
        lo, hi = (np.concatenate([blk[i] for blk in blocks])[:length] for i in (1, 2))
    assert len(hi) == length
    assert (hi.max(axis=1) <= np.arange(start, start + length)).all()
    assert (lo <= hi).all()


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-3, 0.999999), st.data(), st.sampled_from([1e-3, 2.0 ** -10, 0.01, 0.37]),
       st.floats(0.01, 5.0), st.integers(0, 4 * integ.PLAN_BLOCK) | st.integers(0, 10 ** 6),
       st.integers(1, 2 * integ.PLAN_BLOCK))
def test_no_block_reads_past_its_first_step(q, data, h, t0, start, length):
    # ratios near 1 put a delayed time within a step of its own step, off a
    # grid that starts at t0 != 0: every block still reads no row past its
    # first step, and ends at its run's end or before the first row that would
    m = data.draw(st.integers(1, 4))
    profile = data.draw(st.just(DelayProfile.proportional(q, m)) | st.lists(
        st.floats(0.0, q), min_size=m, max_size=m).map(
            lambda c: DelayProfile.per_component_proportional(c, envelope_q=q)))
    blocks = handed_blocks(profile, t0, h, range(start, start + length))
    assert blocks[0][0] == start
    for k, lo, hi, _ in blocks:
        assert hi.max() <= k and (lo <= hi).all()
        stop = k + len(lo)
        if stop % integ.PLAN_BLOCK:
            assert max(hi for _, hi, _ in ref_rows(profile, t0, h, stop)) > k


def test_queries_past_the_current_time_raise():
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
    # run's end or before the first row that would.  The envelope's aligned
    # runs are read a row at a time, each at its own step: no row reads past
    # its own step
    h, t0 = grid
    if envelope:
        for k in ks:
            start = k - k % integ.PLAN_BLOCK
            _, hi, _ = envelope_rows(profile, t0, h, start, start + integ.PLAN_BLOCK)
            assert (hi <= np.arange(start, start + integ.PLAN_BLOCK)).all()
        return
    for k, lo, hi, _ in handed_blocks(profile, t0, h, ks):
        stop = k + len(lo)
        assert k < stop and hi.max() <= k
        if stop % integ.PLAN_BLOCK:
            nxt = ref_rows(profile, t0, h, stop)
            assert max(hi for _, hi, _ in nxt) > k


@settings(max_examples=30, deadline=None)
@given(profiles(), grids, st.integers(1, 2 * integ.PLAN_BLOCK + 10))
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
    profile = draw(st.one_of(profiles(), lag,   # lags of 0 and under a step
                             st.just(DelayProfile.pairwise_sin(3))))
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


def _gathers_agree(profile, t0, h, n, dim=None):
    """Gather every step of an n-step trajectory three ways: by block from a
    fully recorded copy, by block while the rows are appended one step at a
    time (the integrator's view), and per time through query_diag.  Every
    block the growing trajectory's reader hands out must read only rows
    recorded at its first step.  Returns how those blocks ended: "cut" before
    a row that reads past the block's first step, or "run" at the end of the
    reader's aligned run.  `dim` is the state's (the profile's components by
    default)."""
    dim = dim or profile.n_components
    # the recorded copy covers every block the n steps touch
    states = np.random.default_rng(n).normal(size=((n // integ.PLAN_BLOCK + 1)
                                                    * integ.PLAN_BLOCK, dim))
    full = HistoryTrajectory.from_arrays(t0, h, states)
    growing = HistoryTrajectory(t0, h, states[0], n)
    cols = diag_cols(profile.n_components, dim)
    ends = set()

    def rows(traj):
        def make(lo, hi, w):
            if traj is growing:   # the block starts at the step being taken
                assert hi.max() <= growing._filled
                stop = growing._filled + len(lo)
                ends.add("cut" if stop % integ.PLAN_BLOCK else "run")
            return list(traj._lookup(lo, hi, w, cols))
        return DelayedRows(profile, t0, h, make)

    on_full, on_growing = rows(full), rows(growing)
    for k in range(n + 1):
        got, step = on_full.row(k), on_growing.row(k)
        t = t0 + k * h
        want = growing.query_diag(t - profile.delays_at(t))
        assert got.tobytes() == want.tobytes() == step.tobytes()
        if k < n:   # record row k + 1 as integrate does
            growing._states[k + 1] = states[k + 1]
            growing._filled = k + 1
    return ends


@settings(max_examples=40, deadline=None)
@given(profiles(), grids, st.integers(0, 3 * integ.PLAN_BLOCK))
def test_plan_gather_matches_interpolate(profile, grid, n):
    # block rows (recorded copy) == per-step rows (growing) == query_diag
    h, t0 = grid
    _gathers_agree(profile, t0, h, n)


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
    """Record every block a DelayedRows cuts, per reader, and every run
    envelope_rows fills, and count the makes and HistoryTrajectory._lookup
    calls made meanwhile."""
    cuts, fills, counts = {}, [], {"make": 0, "lookup": 0}
    init, cut = DelayedRows.__init__, DelayedRows._cut
    lookup, fill = HistoryTrajectory._lookup, integ.envelope_rows

    def counted_cut(rows, k):
        block = cut(rows, k)
        cuts.setdefault(rows, []).append((k, k + len(block[0])))
        return block

    def counted_init(rows, profile, t0, h, make):
        def counted_make(*block):
            counts["make"] += 1
            return make(*block)
        init(rows, profile, t0, h, counted_make)

    def counted_lookup(traj, *args):
        counts["lookup"] += 1
        return lookup(traj, *args)

    def counted_fill(profile, t0, h, start, stop):
        fills.append((start, stop))
        return fill(profile, t0, h, start, stop)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DelayedRows, "_cut", counted_cut)
        mp.setattr(DelayedRows, "__init__", counted_init)
        mp.setattr(HistoryTrajectory, "_lookup", counted_lookup)
        mp.setattr(integ, "envelope_rows", counted_fill)
        yield cuts, fills, counts


def assert_tiled(cuts):
    """Each reader's blocks follow one another: a block is cut once, at the
    step after the previous block's end.  Returns the number of blocks."""
    for blocks in cuts.values():
        assert all(stop == nxt for (_, stop), (nxt, _) in zip(blocks, blocks[1:]))
    return sum(len(blocks) for blocks in cuts.values())


def test_static_example1_builds_each_block_once():
    # delayed_linear_rhs builds its reader and a block's rows with one
    # lookup, up to the settled step k; the sliding tail from k on is one
    # at_rest pass of one lookup; the monitors' window sups fill whole
    # envelope runs and cut no block
    doc = dict(EXAMPLE1, integrator={"horizon": 2.0, "h": 1e-3})
    crossed = []
    with count_blocks() as (cuts, fills, counts), pytest.MonkeyPatch.context() as mp:
        cross = integ._cross_sliding
        mp.setattr(integ, "_cross_sliding",
                   lambda at_rest, traj, k, j, band: crossed.append((k, j))
                   or cross(at_rest, traj, k, j, band))
        res = run(load_config(doc))
    n_steps = res.traj.states.shape[0] - 1
    (k, j), = crossed
    assert j == n_steps and n_steps - k <= integ.ROW_CHUNK
    (reader, steps), = cuts.items()
    assert reader.profile is res.profile
    assert steps[0][0] == 0 and steps[-1][1] >= k
    assert counts["lookup"] == len(steps) + 1 < n_steps // 50
    assert counts["make"] == assert_tiled(cuts) == len(steps)
    assert fills and all(stop - start <= integ.ROW_CHUNK for start, stop in fills)


def test_running_window_sup_builds_each_block_once():
    profile = DelayProfile.proportional(0.35)
    n = 3 * integ.PLAN_BLOCK + 17
    with count_blocks() as (cuts, fills, counts):
        tracker = RunningWindowSup(0.0, 0.01, profile)
        for k, v in enumerate(np.cos(0.07 * np.arange(n)).tolist()):
            tracker.push(v)
            tracker.sup(k)
    # one fill per aligned run, in order, and no block reader
    assert fills == [(s, s + integ.PLAN_BLOCK) for s in range(0, n, integ.PLAN_BLOCK)]
    assert not cuts and counts == {"make": 0, "lookup": 0}


@pytest.mark.parametrize("delay_steps", [0.0, 2.5])
def test_adaptive_window_fills_aligned_envelope_runs(delay_steps):
    # the hook's window reads row k only at step k, so a short constant delay
    # costs it one envelope fill per aligned run, not one every
    # delay_steps + 1 steps; its sups stay window_sups' bitwise
    h = 2.0 ** -10
    n = 3 * integ.PLAN_BLOCK + 17
    profile = DelayProfile.constant(delay_steps * h)
    hook = ScalarAdaptiveHook(0.1, 0.1, 0.1, RateFunction.power(0.1), profile)
    sups, sup = [], RunningWindowSup.sup
    with count_blocks() as (_, fills, _), pytest.MonkeyPatch.context() as mp:
        mp.setattr(RunningWindowSup, "sup", lambda w, k: sups.append(sup(w, k)) or sups[-1])
        integrate(delayed_linear_rhs(1.0, 2.0, profile, control=hook.control), [2.0],
                  profile, IntegratorConfig(horizon=n * h, h=h), gain_hook=hook)
    assert len(fills) <= math.ceil(n / integ.PLAN_BLOCK) + 1
    assert all(start % integ.PLAN_BLOCK == 0 and stop == start + integ.PLAN_BLOCK
               for start, stop in fills)
    assert len(sups) == n
    want = window_sups(hook._tracker.values, 0.0, h, profile)
    assert np.array(sups).tobytes() == want.tobytes()


_DIFFERENTIAL_PROFILES = [
    DelayProfile.proportional(0.5, n_components=2),
    DelayProfile.per_component_proportional([0.2, 0.7], envelope_q=0.8),
    DelayProfile.constant(0.013, n_components=2),
    DelayProfile.constant(0.3),
    DelayProfile.per_component_proportional([0.0, 0.4]),
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_DIFFERENTIAL_PROFILES), st.sampled_from(_DIFFERENTIAL_PROFILES),
       st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2), st.floats(-2.0, 2.0),
       st.floats(-2.0, 2.0), st.sampled_from([1e-3, 4e-3, 0.01]))
def test_delayed_linear_rhs_on_trajectory_without_plan(a, b, p0, c1, c2, h):
    # a trajectory carries no reader: the rhs builds its own, of its own
    # profile on the trajectory's grid.  On a recorded trajectory it reads
    # the current step; integrated under integrate(..., profile=b) it equals
    # the run under its profile a bitwise (with resting off, integrate reads
    # the run's profile for nothing)
    rng = np.random.default_rng(3)
    traj = HistoryTrajectory.from_arrays(0.5, h, rng.normal(size=(41, 2)))
    t = traj.current_time
    p = traj.states[-1]
    got = delayed_linear_rhs(c1, c2, a)(t, p, traj)   # a list of floats
    want = c1 * p + c2 * traj.query_diag(t - np.broadcast_to(a.delays_at(t), 2))
    assert np.asarray(got).tobytes() == want.tobytes()

    cfg = IntegratorConfig(horizon=400 * h, h=h, divergence_limit=1e300)
    control = lambda t, p: static_scalar_control(p, StaticScalarGains(c1, c2, 0.5, 1.0))
    under_a = integrate(delayed_linear_rhs(c1, c2, a, control=control), p0, a, cfg)
    under_b = integrate(delayed_linear_rhs(c1, c2, a, control=control), p0, b, cfg)
    assert under_b.states.tobytes() == under_a.states.tobytes()


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
@pytest.mark.parametrize("shared", [False, True])
def test_constant_delay_block_paths(steps, paths, shared):
    # `paths`: how the reader's blocks end.  A delay shorter than a block cuts
    # each block before its first row that reads a row the block itself
    # records; a longer one lets every block fill its aligned run.  A shared
    # delay (one component read by every state column) ends its blocks alike
    h, dim = 0.01, 2
    profile = DelayProfile.constant(steps * h + 0.3 * h, n_components=1 if shared else dim)
    assert _gathers_agree(profile, 0.5, h, 3 * integ.PLAN_BLOCK + 7, dim) == paths


def test_one_gather_alternating_between_trajectories():
    # block rows of two trajectories, as of a network's drive and error,
    # read in turn step by step: each reader keeps its own block and run
    profile = DelayProfile.proportional(0.5)
    rng = np.random.default_rng(7)
    trajs = [HistoryTrajectory.from_arrays(0.0, 0.01, rng.normal(size=(600, 1)))
             for _ in range(2)]
    rows = [DelayedRows(profile, 0.0, 0.01, lambda lo, hi, w, traj=traj: list(
        traj._lookup(lo, hi, w, diag_cols(1, 1)))) for traj in trajs]
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
    """p' = c2 p(t - tau) with p = 1 before 0, exact on [0, 2 tau]: the first
    piece integrates the constant history, the second the first piece."""
    if t <= tau:
        return 1.0 + c2 * t
    u = t - tau
    return 1.0 + c2 * tau + c2 * (u + c2 * u * u / 2.0)


def test_method_of_steps_oracle_first_order():
    # the delayed term reads the constant pre-history (row 0) on [0, tau],
    # where Euler is exact, and the recorded rows on [tau, 2 tau], where its
    # error grows to c2**2 * tau * h / 2 = 0.36 h at t = 2 tau
    c2, tau = -1.2, 0.5
    profile = DelayProfile.constant(tau)
    errs = {}
    for h in (1e-2, 5e-3, 2.5e-3):
        cfg = IntegratorConfig(horizon=2.0 * tau, h=h, zero_band=0.0)
        traj = integrate(delayed_linear_rhs(0.0, c2, profile), [1.0], profile, cfg)
        exact = np.array([method_of_steps(c2, tau, t) for t in traj.times])
        errs[h] = np.abs(traj.states[:, 0] - exact).max()
    assert all(err <= 0.4 * h for h, err in errs.items()), errs
    assert all(1.8 <= errs[h] / errs[h / 2] <= 2.2 for h in (1e-2, 5e-3)), errs
