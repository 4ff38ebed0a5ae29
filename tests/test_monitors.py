import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fintstab.delays import DelayProfile, RateFunction
from fintstab.integrate import (HistoryTrajectory, IntegratorConfig,
                                RunningWindowSup, delayed_linear_rhs,
                                integrate)
from fintstab.cli import main, run_example1, run_example1_adaptive, run_example2
from fintstab.conditions import left_eigenvector
from fintstab.monitors import (_FUNCTIONALS, _PHASE2_IDS, DERIV_TOL, ENVELOPE_TOL,
                               TRACE_TOL, ContactPoint, LyapunovTrace, PhaseReport,
                               _gain_series, _norm_series, contact_point_decrease,
                               detect_phases, functional_series,
                               trace_functional)
from fintstab.network import LORENZ_A


def _static_run(c3=2.1, c4=3.5, horizon=30.0):
    profile = DelayProfile.proportional(0.5)
    rhs = delayed_linear_rhs(1.0, 2.0, profile,
                             control=lambda t, p: -np.sign(p) * (c3 + c4 * np.abs(p)))
    cfg = IntegratorConfig(horizon=horizon, h=1e-3, zero_band=c3 * 1e-3)
    return integrate(rhs, [2.0], profile, cfg), profile


RATE = RateFunction.power(0.1)


def test_zero_trajectory_gives_zero_trace():
    traj = HistoryTrajectory.from_arrays(0.0, 0.01, np.zeros((501, 2)))
    prof = DelayProfile.proportional(0.5)
    tr = trace_functional(traj, "v1", RATE, prof)
    assert (tr.values == 0.0).all()
    assert (tr.window_sups == 0.0).all()


def test_v2_on_settled_trajectory_is_linear():
    traj = HistoryTrajectory.from_arrays(0.0, 0.01, np.zeros((501, 1)))
    prof = DelayProfile.proportional(0.5)
    eps2 = 0.09
    tr = trace_functional(traj, "v2", RATE, prof, eps2=eps2)
    assert np.allclose(tr.values, eps2 * traj.times)
    assert (np.diff(tr.values) > 0.0).all()
    assert np.allclose(tr.window_sups, tr.values)  # sup of increasing series


def test_functional_series_requires_inputs():
    traj = HistoryTrajectory.from_arrays(0.0, 0.01, np.zeros((11, 1)))
    with pytest.raises(ValueError):
        functional_series(traj, "v2", RATE)  # missing eps2
    with pytest.raises(ValueError):
        functional_series(traj, "vbar1", RATE)  # missing xi
    with pytest.raises(ValueError):
        functional_series(traj, "v3", RATE)  # missing gain data
    with pytest.raises(ValueError):
        functional_series(traj, "v99", RATE)


def test_window_sup_trace_matches_bruteforce_scan():
    traj, prof = _static_run(horizon=5.0)
    tr = trace_functional(traj, "v1", RATE, prof)
    rng = np.random.default_rng(3)
    vals = tr.values
    h = traj.h
    for k in sorted(rng.integers(1, len(vals), size=50).tolist()):
        t = k * h
        a = t - prof.envelope(t)
        u = a / h
        k_lo = max(0, int(math.ceil(u - 1e-12)))
        brute = vals[k_lo:k + 1].max()
        kb = max(0, int(math.floor(u)))
        frac = u - kb
        boundary = (1 - frac) * vals[kb] + frac * vals[min(kb + 1, k)]
        assert tr.window_sups[k] == pytest.approx(max(brute, float(boundary)),
                                                  rel=1e-12)


def test_contact_points_pass_on_feasible_run():
    traj, prof = _static_run()
    tr = trace_functional(traj, "v1", RATE, prof)
    contacts = contact_point_decrease(tr, traj)
    assert contacts  # this run produces real contacts, not a vacuous pass
    assert all(c.ok for c in contacts)


def test_contact_points_fail_on_infeasible_run():
    traj, prof = _static_run(c4=1.0, horizon=10.0)
    tr = trace_functional(traj, "v1", RATE, prof)
    contacts = contact_point_decrease(tr, traj)
    assert any(not c.ok for c in contacts)


def test_w1_nonincreasing_on_feasible_run():
    traj, prof = _static_run()
    tr = trace_functional(traj, "v1", RATE, prof)
    w = tr.window_sups[tr.start_index:]
    assert (np.diff(w) <= 1e-9).all()


def test_detect_phases_pure_sign_system():
    prof = DelayProfile.constant(0.0)
    cfg = IntegratorConfig(horizon=4.0, h=1e-3, zero_band=1e-3)
    traj = integrate(lambda t, p, tr: -np.sign(p), [2.0], prof, cfg)
    rep = detect_phases(traj, prof, "two", eps2=1.0, start_time=0.0)
    assert rep.T1 == pytest.approx(1.0, abs=2e-3)
    assert rep.T_settle == pytest.approx(2.0, abs=2e-3)
    assert rep.envelope_violations == 0


def test_detect_phases_feasible_run_respects_bound():
    traj, prof = _static_run()
    eps2 = 0.9 * 0.1
    rep = detect_phases(traj, prof, "two", eps2, start_time=1.0)
    assert math.isfinite(rep.T1)
    assert math.isfinite(rep.T_settle)
    assert rep.T_settle >= rep.T1
    assert rep.T_settle <= rep.T1 + 1.0 / eps2
    assert rep.envelope_violations == 0


def test_detect_phases_never_settling_run():
    traj, prof = _static_run(c4=1.0, horizon=10.0)
    rep = detect_phases(traj, prof, "two", 0.09, start_time=1.0)
    assert rep.T1 == math.inf
    assert rep.T_settle == math.inf


def test_adaptive_functionals_with_gain_columns():
    times = np.arange(0.0, 1.01, 0.01)
    n = times.shape[0]
    states = np.exp(-times)[:, None]
    gains = np.column_stack([np.linspace(0.0, 2.0, n), np.linspace(0.0, 3.0, n)])
    traj = HistoryTrajectory.from_arrays(0.0, 0.01, states,
                                         gain_names=("c3", "c4"), gains=gains)
    stars = {"c3": 2.0, "c4": 3.0}
    rates = {"d1": 0.1, "d2": 0.1, "d3": 0.1}
    v3 = functional_series(traj, "v3", RATE, gain_stars=stars, rates=rates)
    mu = RATE.mu(times)
    expect = mu * states[:, 0] ** 2 + (gains[:, 1] - 3.0) ** 2 / 0.1
    assert np.allclose(v3, expect)
    v4 = functional_series(traj, "v4", RATE, eps2=0.05, gain_stars=stars,
                           rates=rates)
    expect4 = (np.abs(states[:, 0])
               + (gains[:, 0] - 2.0) ** 2 / 0.2
               + (gains[:, 1] - 3.0) ** 2 / 0.2 + 0.05 * times)
    assert np.allclose(v4, expect4)


def test_network_functional_weighting():
    times = np.arange(0.0, 0.1, 0.01)
    n = times.shape[0]
    states = np.ones((n, 6))
    traj = HistoryTrajectory.from_arrays(0.0, 0.01, states)
    xi = np.array([0.25, 0.75])
    v = functional_series(traj, "vbar1", RATE, xi=xi)
    # sum_i xi_i e_i^T e_i with every component 1: 3*(0.25 + 0.75) = 3
    assert np.allclose(v, RATE.mu(times) * 3.0)


# The hand-written branches `functional_series` had before it became a table,
# kept verbatim as the reference the table must reproduce bit for bit.
_REF_PHASE2_IDS = {"v2", "v4", "v6", "v8", "vbar2", "vbar4", "vbar6", "vbar8"}
_REF_ADAPTIVE_IDS = {"v3", "v4", "vbar3", "vbar4", "vbar5", "vbar6", "vbar7", "vbar8"}


def _reference_functional_series(traj, functional_id, rate, xi=None, eps2=None,
                                 gain_stars=None, rates=None, lam_abs=None):
    times = traj.times
    states = traj.states
    fid = functional_id.lower()

    if fid in _REF_PHASE2_IDS and eps2 is None:
        raise ValueError(f"functional {fid!r} requires eps2")
    if fid in _REF_ADAPTIVE_IDS and (gain_stars is None or rates is None):
        raise ValueError(f"functional {fid!r} requires gain_stars and rates")
    if fid.startswith("vbar") and fid in ("vbar1", "vbar2", "vbar3", "vbar4") and xi is None:
        raise ValueError(f"functional {fid!r} requires the left eigenvector xi")

    mu = np.asarray(rate.mu(times), dtype=float)

    def weighted_sq_series():
        n = states.shape[1] // xi.shape[0]
        w = np.repeat(np.asarray(xi, dtype=float), n)
        return (states ** 2 * w).sum(axis=1)

    if fid == "v1":
        return mu * (states ** 2).sum(axis=1)
    if fid == "v2":
        return _norm_series(states, "two") + eps2 * times
    if fid == "v3":
        c4 = _gain_series(traj, "c4")
        return (mu * (states ** 2).sum(axis=1)
                + (c4 - gain_stars["c4"]) ** 2 / rates["d2"])
    if fid == "v4":
        c3 = _gain_series(traj, "c3")
        c4 = _gain_series(traj, "c4")
        return (_norm_series(states, "two")
                + (c3 - gain_stars["c3"]) ** 2 / (2.0 * rates["d1"])
                + (c4 - gain_stars["c4"]) ** 2 / (2.0 * rates["d3"])
                + eps2 * times)
    if fid == "v5":
        return mu * _norm_series(states, "one")
    if fid == "v6":
        return _norm_series(states, "one") + eps2 * times
    if fid == "v7":
        return mu * _norm_series(states, "inf")
    if fid == "v8":
        return _norm_series(states, "inf") + eps2 * times
    if fid == "vbar1":
        return mu * weighted_sq_series()
    if fid == "vbar2":
        return np.sqrt(weighted_sq_series()) + eps2 * times
    if fid == "vbar3":
        if lam_abs is None:
            raise ValueError("vbar3 requires lam_abs")
        th1 = _gain_series(traj, "theta1")
        return (mu * weighted_sq_series()
                + lam_abs * (th1 - gain_stars["theta1"]) ** 2 / rates["d1"])
    if fid == "vbar4":
        if lam_abs is None:
            raise ValueError("vbar4 requires lam_abs")
        th1 = _gain_series(traj, "theta1")
        th3 = _gain_series(traj, "theta3")
        return (np.sqrt(weighted_sq_series())
                + lam_abs * (th1 - gain_stars["theta1"]) ** 2 / (2.0 * rates["d2"])
                + (th3 - gain_stars["theta3"]) ** 2 / (2.0 * rates["d3"])
                + eps2 * times)
    if fid in ("vbar5", "vbar7"):
        norm = "one" if fid == "vbar5" else "inf"
        c4 = _gain_series(traj, "c4")
        return (mu * _norm_series(states, norm)
                + (c4 - gain_stars["c4"]) ** 2 / (2.0 * rates["d2"]))
    if fid in ("vbar6", "vbar8"):
        norm = "one" if fid == "vbar6" else "inf"
        c3 = _gain_series(traj, "c3")
        c4 = _gain_series(traj, "c4")
        return (_norm_series(states, norm)
                + (c3 - gain_stars["c3"]) ** 2 / (2.0 * rates["d1"])
                + (c4 - gain_stars["c4"]) ** 2 / (2.0 * rates["d3"])
                + eps2 * times)
    raise ValueError(f"unknown functional id {functional_id!r}")


_GAIN_NAMES = ("c3", "c4", "theta1", "theta3")
_ALL_IDS = [f"v{i}" for i in range(1, 9)] + [f"vbar{i}" for i in range(1, 9)]
_finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
_positive = st.floats(1e-3, 1e2, allow_nan=False, allow_infinity=False)


@st.composite
def _functional_inputs(draw):
    dim = draw(st.sampled_from([1, 3, 9]))
    rows = draw(st.integers(2, 12))
    # exact zeros (and -0.0) next to ordinary values
    entry = st.one_of(st.just(0.0), st.just(-0.0), _finite)
    states = np.array(draw(st.lists(entry, min_size=rows * dim, max_size=rows * dim)),
                      dtype=float).reshape(rows, dim)
    gains = np.array(draw(st.lists(st.one_of(st.just(0.0), _finite),
                                   min_size=rows * 4, max_size=rows * 4)),
                     dtype=float).reshape(rows, 4)
    h = draw(st.sampled_from([1e-3, 0.01, 0.25]))
    traj = HistoryTrajectory.from_arrays(draw(st.sampled_from([0.0, 1.5])), h, states,
                                         gain_names=_GAIN_NAMES, gains=gains)
    n_nodes = draw(st.sampled_from([k for k in (1, 3) if dim % k == 0]))
    rate = draw(st.sampled_from([RateFunction.power(0.1), RateFunction.power(0.7),
                                 RateFunction.exponential(0.1),
                                 RateFunction.exponential(0.9)]))
    kw = dict(xi=np.array(draw(st.lists(_positive, min_size=n_nodes, max_size=n_nodes))),
              eps2=draw(_positive),
              gain_stars={g: draw(_finite) for g in _GAIN_NAMES},
              rates={d: draw(_positive) for d in ("d1", "d2", "d3")},
              lam_abs=draw(_positive))
    return traj, rate, kw


@settings(max_examples=60, deadline=None)
@given(_functional_inputs())
def test_functional_table_matches_reference_bitwise(inputs):
    traj, rate, kw = inputs
    for fid in _ALL_IDS:
        got = functional_series(traj, fid, rate, **kw)
        want = _reference_functional_series(traj, fid, rate, **kw)
        assert got.dtype == want.dtype and got.shape == want.shape, fid
        assert got.tobytes() == want.tobytes(), fid
    assert functional_series(traj, "V4", rate, **kw).tobytes() == \
        _reference_functional_series(traj, "v4", rate, **kw).tobytes()


def test_functional_table_covers_every_id():
    assert sorted(_FUNCTIONALS) == sorted(_ALL_IDS)
    assert _PHASE2_IDS == _REF_PHASE2_IDS
    assert {f for f, (_, _, pens) in _FUNCTIONALS.items() if pens} == _REF_ADAPTIVE_IDS


@pytest.mark.parametrize("fid", _ALL_IDS)
def test_functional_missing_inputs_raise(fid):
    times = np.arange(0.0, 0.1, 0.01)
    traj = HistoryTrajectory.from_arrays(0.0, 0.01, np.ones((times.size, 3)),
                                         gain_names=_GAIN_NAMES,
                                         gains=np.ones((times.size, 4)))
    full = dict(xi=np.array([0.2, 0.3, 0.5]), eps2=0.1,
                gain_stars={g: 1.0 for g in _GAIN_NAMES},
                rates={"d1": 0.1, "d2": 0.1, "d3": 0.1}, lam_abs=0.5)
    functional_series(traj, fid, RATE, **full)
    needs = []
    if fid in _REF_PHASE2_IDS:
        needs.append("eps2")
    if fid in _REF_ADAPTIVE_IDS:
        needs += ["gain_stars", "rates"]
    if fid in ("vbar1", "vbar2", "vbar3", "vbar4"):
        needs.append("xi")
    if fid in ("vbar3", "vbar4"):
        needs.append("lam_abs")
    for missing in needs:
        kw = dict(full, **{missing: None})
        for impl in (functional_series, _reference_functional_series):
            with pytest.raises(ValueError):
                impl(traj, fid, RATE, **kw)
    bare = HistoryTrajectory.from_arrays(0.0, 0.01, np.ones((times.size, 3)))
    if fid in _REF_ADAPTIVE_IDS:  # no gain columns to penalise
        with pytest.raises(ValueError, match="no gain series"):
            functional_series(bare, fid, RATE, **full)
    with pytest.raises(ValueError, match="unknown functional id"):
        functional_series(traj, fid + "x", RATE, **full)


# -- the loop monitors: reference copies of the RunningWindowSup versions ------

def _loop_trace_functional(traj, functional_id, rate, profile, start_time=None, **kw):
    values = functional_series(traj, functional_id, rate, **kw)
    times = traj.times
    start = rate.default_monitor_start if start_time is None else start_time
    start_idx = int(np.searchsorted(times, start - 1e-12))
    tracker = RunningWindowSup(traj.t0, traj.h, profile)
    sups = np.empty_like(values)
    for k, v in enumerate(values):
        tracker.push(float(v))
        sups[k] = tracker.sup(k)
    contact = (sups - values) <= TRACE_TOL * np.maximum(1.0, np.abs(sups))
    contact[:start_idx] = False
    return LyapunovTrace(functional_id=functional_id.lower(), times=times, values=values,
                         window_sups=sups, contact_mask=contact, start_index=start_idx,
                         norms=_norm_series(traj.states, "two"))


def _loop_contact_point_decrease(trace, traj, zero_tol=1e-9):
    values = trace.values
    out = []
    for k in np.nonzero(trace.contact_mask)[0]:
        if k <= max(0, trace.start_index) or k >= len(values) - 1:
            continue
        if trace.functional_id in _PHASE2_IDS and trace.norms[k] <= zero_tol:
            continue
        dv = (values[k + 1] - values[k - 1]) / (2.0 * traj.h)
        out.append(ContactPoint(time=float(trace.times[k]), dV_dt=float(dv), ok=dv < DERIV_TOL))
    return out


def _loop_detect_phases(traj, profile, norm, eps2, zero_tol=1e-9, start_time=0.0):
    times = traj.times
    norms = _norm_series(traj.states, norm)
    series = norms ** 2 if norm == "two" else norms
    tracker = RunningWindowSup(traj.t0, traj.h, profile)
    T1, t1_idx = math.inf, None
    for k, v in enumerate(series):
        tracker.push(float(v))
        if times[k] >= start_time and tracker.sup(k) <= 1.0:
            t1_idx, T1 = k, float(times[k])
            break
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
    return PhaseReport(T1=T1, T_settle=T_settle, envelope_violations=violations,
                       eps2=eps2, norm=norm)


def _assert_monitors_match_loops(traj, profile, fids, rate, **kw):
    """Each functional's trace and contact points, and each norm's phases,
    equal the loop versions' exactly.  Returns the number of contact points."""
    n_contacts = 0
    for fid in fids:
        for start in (None, 0.0):
            got = trace_functional(traj, fid, rate, profile, start_time=start, **kw)
            want = _loop_trace_functional(traj, fid, rate, profile, start_time=start, **kw)
            assert got.values.tobytes() == want.values.tobytes(), fid
            assert got.window_sups.tobytes() == want.window_sups.tobytes(), fid
            assert got.contact_mask.tobytes() == want.contact_mask.tobytes(), fid
            assert got.start_index == want.start_index
            contacts = contact_point_decrease(got, traj)
            assert contacts == _loop_contact_point_decrease(want, traj), fid
            n_contacts += len(contacts)
    for norm in ("two", "one", "inf"):
        for start in (0.0, 1.0):
            got = detect_phases(traj, profile, norm, 0.09, start_time=start)
            assert got == _loop_detect_phases(traj, profile, norm, 0.09, start_time=start)
    return n_contacts


_NORM_IDS = {"two": ("v1", "v2"), "one": ("v5", "v6"), "inf": ("v7", "v8")}
_ADAPTIVE_IDS = {"two": ("v3", "v4"), "one": ("vbar5", "vbar6"), "inf": ("vbar7", "vbar8")}


@pytest.mark.parametrize("norm", ["two", "one", "inf"])
def test_monitors_match_the_loop_versions_on_example1(norm):
    res = run_example1(norm=norm)
    assert res.phases == _loop_detect_phases(res.traj, res.profile, norm, res.eps2,
                                             start_time=res.rate.default_monitor_start)
    assert _assert_monitors_match_loops(res.traj, res.profile, _NORM_IDS[norm], res.rate,
                                        eps2=res.eps2) > 0


@pytest.mark.parametrize("norm", ["two", "one", "inf"])
def test_monitors_match_the_loop_versions_on_adaptive_example1(norm):
    res = run_example1_adaptive(norm=norm)
    assert res.phases == _loop_detect_phases(res.traj, res.profile, norm, res.eps2,
                                             start_time=res.rate.default_monitor_start)
    c3, c4 = res.traj.gains[-1].tolist()
    kw = dict(eps2=res.eps2, gain_stars={"c3": c3, "c4": c4},
              rates={"d1": 0.1, "d2": 0.1, "d3": 0.1})
    fids = _NORM_IDS[norm] + _ADAPTIVE_IDS[norm]
    assert _assert_monitors_match_loops(res.traj, res.profile, fids, res.rate, **kw) > 0


def test_monitors_match_the_loop_versions_on_the_lorenz_vbar1_trace():
    err = run_example2("adaptive", horizon=5.0).sync.error
    xi = left_eigenvector(LORENZ_A)
    assert _assert_monitors_match_loops(err, DelayProfile.pairwise_sin(3), ("vbar1",),
                                        RATE, xi=xi) > 0


def test_monitor_replays_without_the_running_deque(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "example1_adaptive"]) == 0   # the hook pushes each step
    pushes = []
    push = RunningWindowSup.push
    monkeypatch.setattr(RunningWindowSup, "push",
                        lambda tracker, value: pushes.append(value) or push(tracker, value))
    assert main(["monitor", "example1_adaptive", "trajectory.csv", "--out", "mon.csv"]) == 0
    assert pushes == []
