"""The whole-series reductions that run `row_chunks` at a time, against the
one-shot array formulas they replaced (kept here verbatim as the reference),
and the allocation bounds that chunking buys: a replay allocates its outputs
plus about one chunk of rows, and the adaptive hook's window 8 bytes a step."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fintstab.integrate as integ
from fintstab.control import NetworkAdaptiveHook
from fintstab.delays import DelayProfile, RateFunction
from fintstab.integrate import HistoryTrajectory, IntegratorConfig, RunningWindowSup, window_sups
from fintstab.monitors import (_FUNCTIONALS, ENVELOPE_TOL, TRACE_TOL, detect_phases,
                               functional_series, trace_functional)
from fintstab.network import (NetworkModel, SyncExperiment, error_index_series, lorenz_preset,
                              simulate_sync, sin_plus_linear)


# -- the one-shot formulas ----------------------------------------------------

def _one_shot_error_index_series(drive, response, N, n):
    X = drive.states.reshape(-1, N, n)
    Y = response.states.reshape(-1, N, n)
    e1 = np.linalg.norm(X[:, 1:] - X[:, :1], axis=2).sum(axis=1)
    e2 = np.linalg.norm(Y[:, 1:] - Y[:, :1], axis=2).sum(axis=1)
    outer = np.sqrt(((Y - X) ** 2).sum(axis=(1, 2)))
    return e1, e2, outer


def _one_shot_norm_series(states, norm):
    if norm == "two":
        return np.sqrt((states ** 2).sum(axis=1))
    if norm == "one":
        return np.abs(states).sum(axis=1)
    if norm == "inf":
        return np.abs(states).max(axis=1)
    raise ValueError(f"unknown norm {norm!r}")


def _one_shot_functional_series(traj, fid, rate, xi, eps2):
    """`functional_series` of an id without gain penalties."""
    term, phase, penalties = _FUNCTIONALS[fid]
    assert not penalties
    times, states = traj.times, traj.states
    if term == "two":
        value = (states ** 2).sum(axis=1)
    elif term == "xi":
        w = np.repeat(np.asarray(xi, dtype=float), states.shape[1] // xi.shape[0])
        value = (states ** 2 * w).sum(axis=1)
    else:
        value = _one_shot_norm_series(states, term)
    if phase == 1:
        value = np.asarray(rate.mu(times), dtype=float) * value
    elif term in ("two", "xi"):
        value = np.sqrt(value)
    if phase == 2:
        value = value + eps2 * times
    return value


def _one_shot_trace_functional(traj, fid, rate, profile, xi, eps2):
    values = _one_shot_functional_series(traj, fid, rate, xi, eps2)
    times = traj.times
    start_idx = int(np.searchsorted(times, rate.default_monitor_start - 1e-12))
    sups = window_sups(values, traj.t0, traj.h, profile)
    contact = (sups - values) <= TRACE_TOL * np.maximum(1.0, np.abs(sups))
    contact[:start_idx] = False
    return values, sups, contact, start_idx, _one_shot_norm_series(traj.states, "two")


def _one_shot_detect_phases(traj, profile, norm, eps2, zero_tol=1e-9, start_time=0.0):
    times = traj.times
    norms = _one_shot_norm_series(traj.states, norm)
    series = norms ** 2 if norm == "two" else norms
    reached = np.flatnonzero((times >= start_time)
                             & (window_sups(series, traj.t0, traj.h, profile) <= 1.0))
    t1_idx = int(reached[0]) if reached.size else None
    T1 = math.inf if t1_idx is None else float(times[t1_idx])
    above = np.nonzero(norms > zero_tol)[0]
    if above.size == 0:
        T_settle, settle_idx = float(times[0]), 0
    elif above[-1] == len(norms) - 1:
        T_settle, settle_idx = math.inf, len(norms) - 1
    else:
        settle_idx = above[-1] + 1
        T_settle = float(times[settle_idx])
    violations = 0
    if t1_idx is not None:
        hi = settle_idx if math.isfinite(T_settle) else len(norms) - 1
        ts, ns = times[t1_idx + 1:hi + 1], norms[t1_idx + 1:hi + 1]
        violations = int((ns > 1.0 - eps2 * (ts - T1) + ENVELOPE_TOL).sum())
    return T1, T_settle, violations


# -- bitwise differential tests ------------------------------------------------

_LAYOUTS = {1: [(1, 1)], 3: [(3, 1), (1, 3)], 9: [(3, 3), (9, 1), (1, 9)]}


@st.composite
def chunked_series(draw):
    """A row chunk, a series length around it (1, chunk - 1, chunk, chunk + 1 or
    several chunks), a state width of 1, 3 or 9 and decaying rows that settle,
    with exact zeros of either sign."""
    chunk = draw(st.sampled_from([1, 2, 5, 16]))
    n = draw(st.sampled_from([1, chunk - 1, chunk, chunk + 1, None]))
    if n is None:
        n = draw(st.integers(2, 5)) * chunk + draw(st.integers(0, chunk - 1))
    n = max(n, 1)
    width = draw(st.sampled_from([1, 3, 9]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([0.1, 1.0, 10.0]))
    states = rng.normal(size=(n, width)) * scale * np.linspace(1.0, 0.0, n)[:, None]
    states[rng.integers(0, n + 1):] = 0.0
    states[rng.random((n, width)) < 0.1] = 0.0
    states[rng.random((n, width)) < 0.1] = -0.0
    return chunk, width, states


def _traj(states, t0=0.0, h=0.05):
    return HistoryTrajectory.from_arrays(t0, h, states)


# examples from the hypothesis profile: more, derandomised, under --hypothesis-profile=ci
@settings(deadline=None)
@given(chunked_series(), st.data())
def test_error_index_series_matches_the_one_shot_formula(case, data):
    chunk, width, states = case
    N, n = data.draw(st.sampled_from(_LAYOUTS[width]))
    rng = np.random.default_rng(states.shape[0])
    drive = _traj(states)
    response = _traj(states + rng.normal(size=states.shape) * (rng.random(states.shape) < 0.5))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integ, "ROW_CHUNK", chunk)
        got = error_index_series(drive, response, N, n)
    for g, w in zip(got, _one_shot_error_index_series(drive, response, N, n)):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


@settings(deadline=None)
@given(chunked_series(), st.sampled_from([0.0, 1.5]))
def test_functional_series_matches_the_one_shot_formula(case, t0):
    chunk, width, states = case
    traj = _traj(states, t0=t0)
    rate = RateFunction.power(0.1)
    xi = np.array([0.2, 0.3, 0.5]) if width % 3 == 0 else np.array([0.7])
    # one id per state term and phase: two, xi, one and inf
    fids = ("v1", "v2", "vbar1", "vbar2", "v5", "v6", "v7", "v8")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integ, "ROW_CHUNK", chunk)
        got = [functional_series(traj, fid, rate, xi=xi, eps2=0.09) for fid in fids]
    for fid, g in zip(fids, got):
        want = _one_shot_functional_series(traj, fid, rate, xi, 0.09)
        assert g.shape == want.shape and g.tobytes() == want.tobytes(), fid


@settings(deadline=None)
@given(chunked_series(), st.sampled_from([DelayProfile.proportional(0.5),
                                          DelayProfile.constant(0.125)]))
def test_detect_phases_and_trace_match_the_one_shot_formulas(case, profile):
    chunk, width, states = case
    traj = _traj(states)
    rate = RateFunction.power(0.1)
    xi = np.array([0.2, 0.3, 0.5]) if width % 3 == 0 else np.array([0.7])
    for norm in ("two", "one", "inf"):
        for start in (0.0, 0.1):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(integ, "ROW_CHUNK", chunk)
                got = detect_phases(traj, profile, norm, 0.09, start_time=start)
            assert (got.T1, got.T_settle, got.envelope_violations) == \
                _one_shot_detect_phases(traj, profile, norm, 0.09, start_time=start)
    for fid in ("v1", "vbar2", "v5", "v8"):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(integ, "ROW_CHUNK", chunk)
            got = trace_functional(traj, fid, rate, profile, xi=xi, eps2=0.09)
        values, sups, contact, start_idx, norms = _one_shot_trace_functional(
            traj, fid, rate, profile, xi, 0.09)
        assert got.values.tobytes() == values.tobytes(), fid
        assert got.window_sups.tobytes() == sups.tobytes(), fid
        assert got.contact_mask.tobytes() == contact.tobytes(), fid
        assert got.start_index == start_idx
        assert got.norms.tobytes() == norms.tobytes(), fid


def _small_sync():
    model = NetworkModel(N=2, n=2, A=np.array([[-1.0, 1.0], [1.0, -1.0]]),
                         B=np.array([[0.5, -1.0], [1.0, 0.25]]), theta1=0.1, theta2=1.0,
                         f=lambda x: -np.asarray(x), g=sin_plus_linear, L_f=1.0, L_g=3.0,
                         delays=DelayProfile.proportional(0.5))
    return SyncExperiment(model=model, drive_init=np.array([[1.0, -1.0], [0.5, 2.0]]),
                          response_init=np.array([[0.1, 0.3], [-1.5, 2.25]]),
                          integrator=IntegratorConfig(horizon=1.0, h=1e-3))


@pytest.mark.parametrize("exp", [
    _small_sync(),
    lorenz_preset(horizon=0.5, h=5e-4, adaptive_hook=NetworkAdaptiveHook(
        d1=0.05, d2=0.05, d3=0.02, rate=RateFunction.power(0.1),
        profile=DelayProfile.pairwise_sin(3), variant="theta3_theta4")),
], ids=["small", "lorenz_adaptive"])
def test_response_is_drive_plus_error_bitwise(exp):
    res = simulate_sync(exp)
    want = res.drive.states + res.error.states
    assert res.response.states.shape == want.shape
    assert res.response.states.tobytes() == want.tobytes()
    assert res.response.current_time == res.error.current_time
    assert res.response.gains is None and res.response.plan is None
    assert not np.shares_memory(res.response.states, res.error.states)
    assert not np.shares_memory(res.response.states, res.drive.states)


# -- functional_series input check ---------------------------------------------

@pytest.mark.parametrize("size", [0, 2, 5, 8])
def test_functional_series_rejects_an_xi_that_does_not_divide_the_width(size):
    traj = _traj(np.ones((5, 9)))
    with pytest.raises(ValueError, match=f"xi has {size} entries, .* state width 9"):
        functional_series(traj, "vbar1", RateFunction.power(0.1), xi=np.ones(size))


# -- allocation bounds (tracemalloc, which sees NumPy's buffers too) ------------

def _allocated(fn):
    """(fn's result, the peak and the held bytes fn allocated)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - base, current - base


_ROWS = 100_001
_STATE_BYTES = _ROWS * 9 * 8   # one (steps, 9) float array


def _long_trajs():
    rng = np.random.default_rng(0)
    return _traj(rng.normal(size=(_ROWS, 9))), _traj(rng.normal(size=(_ROWS, 9)))


def test_error_index_series_allocates_its_outputs_and_less_than_one_state_array():
    drive, response = _long_trajs()
    out, peak, _ = _allocated(lambda: error_index_series(drive, response, 3, 3))
    assert peak < sum(a.nbytes for a in out) + _STATE_BYTES


def test_vbar1_series_allocates_its_output_and_less_than_one_state_array():
    traj, _ = _long_trajs()
    xi = np.array([0.2, 0.3, 0.5])
    out, peak, _ = _allocated(lambda: functional_series(traj, "vbar1", RateFunction.power(0.1),
                                                        xi=xi))
    assert peak < out.nbytes + _STATE_BYTES


def test_running_window_sup_holds_eight_bytes_a_value():
    def push_increasing():
        tracker = RunningWindowSup(0.0, 1e-3, DelayProfile.proportional(0.5))
        for k in range(200_000):
            tracker.push(k * 0.5)
        return tracker

    tracker, _, held = _allocated(push_increasing)
    assert len(tracker.values) == 200_000 and tracker.values[-1] == 199_999 * 0.5
    assert held < 2.5e6   # a list of Python floats holds about 6.4 MB
