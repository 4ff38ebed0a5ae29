"""Lyapunov functional traces, contact-point checks and phase detection.

The convergence argument is a two-phase one: phase I drives the delayed
window sup of the norm below 1, phase II drives the norm from 1 to 0 along
the linear envelope 1 - eps2*(t - T1).  The functionals decrease only at
"contact points" where V(t) equals its own windowed supremum W(t); this
module evaluates V and W along a computed trajectory, detects contacts, and
verifies the decrease numerically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .delays import DelayProfile, RateFunction
from .integrate import HistoryTrajectory, row_chunks, window_sups

TRACE_TOL = 1e-9      # relative near-equality tolerance for contact detection
DERIV_TOL = 1e-6      # absolute slack on the contact-point derivative
ENVELOPE_TOL = 1e-6   # slack on the phase-II linear envelope

# A gain penalty (gain, rate key, halved, lambda-weighted) adds
# [lam_abs *] (gain - gain*)^2 / ([2 *] rates[key]).
_C4_HALF = (("c4", "d2", True, False),)
_C3_C4 = (("c3", "d1", True, False), ("c4", "d3", True, False))
# functional id -> (state term, phase, gain penalties).  The state term is
# the squared 2-norm ("two"), the xi-weighted squared 2-norm ("xi"), or the
# 1-/inf-norm.  Phase 1 weights it by mu(t) (a squared term stays squared);
# phase 2 takes the plain norm and adds eps2*t after the penalties.
_FUNCTIONALS = {
    "v1": ("two", 1, ()),
    "v2": ("two", 2, ()),
    "v3": ("two", 1, (("c4", "d2", False, False),)),
    "v4": ("two", 2, _C3_C4),
    "v5": ("one", 1, ()),
    "v6": ("one", 2, ()),
    "v7": ("inf", 1, ()),
    "v8": ("inf", 2, ()),
    "vbar1": ("xi", 1, ()),
    "vbar2": ("xi", 2, ()),
    "vbar3": ("xi", 1, (("theta1", "d1", False, True),)),
    "vbar4": ("xi", 2, (("theta1", "d2", True, True), ("theta3", "d3", True, False))),
    "vbar5": ("one", 1, _C4_HALF),
    "vbar6": ("one", 2, _C3_C4),
    "vbar7": ("inf", 1, _C4_HALF),
    "vbar8": ("inf", 2, _C3_C4),
}
# functional ids that carry the +eps2*t term (phase-II functionals)
_PHASE2_IDS = {fid for fid, (_, phase, _) in _FUNCTIONALS.items() if phase == 2}


@dataclass
class LyapunovTrace:
    functional_id: str
    times: np.ndarray
    values: np.ndarray
    window_sups: np.ndarray
    contact_mask: np.ndarray
    start_index: int
    norms: np.ndarray  # plain 2-norm of the state, for settled-region masks


@dataclass(slots=True)   # one per contact point, tens of thousands a replay
class ContactPoint:
    time: float
    dV_dt: float
    ok: bool


@dataclass
class PhaseReport:
    T1: float                  # +inf when the unit ball is never reached
    T_settle: float            # +inf when the norm never settles to zero
    envelope_violations: int
    eps2: float
    norm: str


# state term -> its value on a block of rows, one float a row: the squared
# 2-norm, the w-weighted squared 2-norm, the 1-norm and the inf-norm
_ROW_TERMS = {
    "two": lambda x, w: (x ** 2).sum(axis=1),
    "xi": lambda x, w: (x ** 2 * w).sum(axis=1),
    "one": lambda x, w: np.abs(x).sum(axis=1),
    "inf": lambda x, w: np.abs(x).max(axis=1),
}


def _row_series(states: np.ndarray, term: str, w: Optional[np.ndarray] = None) -> np.ndarray:
    """A `_ROW_TERMS` term of every row, reduced `row_chunks` at a time into
    the output: no temporary outgrows one chunk of rows, and each row's
    arithmetic is that of the one-shot array formula."""
    reduce = _ROW_TERMS[term]
    out = np.empty(states.shape[0])
    for rows in row_chunks(states.shape[0]):
        out[rows] = reduce(states[rows], w)
    return out


def _norm_series(states: np.ndarray, norm: str) -> np.ndarray:
    if norm not in ("two", "one", "inf"):
        raise ValueError(f"unknown norm {norm!r}")
    out = _row_series(states, norm)
    return np.sqrt(out, out=out) if norm == "two" else out


def _gain_series(traj: HistoryTrajectory, name: str) -> np.ndarray:
    if traj.gains is None or name not in traj.gain_names:
        raise ValueError(f"trajectory carries no gain series named {name!r}")
    return traj.gains[:, traj.gain_names.index(name)]


def functional_series(traj: HistoryTrajectory, functional_id: str,
                      rate: RateFunction, xi: Optional[np.ndarray] = None,
                      eps2: Optional[float] = None,
                      gain_stars: Optional[dict] = None,
                      rates: Optional[dict] = None,
                      lam_abs: Optional[float] = None) -> np.ndarray:
    """Evaluate the selected functional (see `_FUNCTIONALS`) on the whole
    trajectory grid.

    v1/v2 (2-norm), v5/v6 (1-norm), v7/v8 (inf-norm) are the static scalar
    pairs; v3/v4 add the adaptive-gain penalties.  vbar1..vbar4 are the
    xi-weighted network functionals, vbar5..vbar8 the adaptive 1-/inf-norm
    scalar ones.  Adaptive ids need `gain_stars` (limiting gains) and
    `rates` (the d1/d2/d3 used in the run); vbar3/vbar4 additionally need
    lam_abs = |lambda_max({Xi Atilde}^s)|.
    """
    fid = functional_id.lower()
    if fid not in _FUNCTIONALS:
        raise ValueError(f"unknown functional id {functional_id!r}")
    term, phase, penalties = _FUNCTIONALS[fid]
    if phase == 2 and eps2 is None:
        raise ValueError(f"functional {fid!r} requires eps2")
    if penalties and (gain_stars is None or rates is None):
        raise ValueError(f"functional {fid!r} requires gain_stars and rates")
    if term == "xi" and xi is None:
        raise ValueError(f"functional {fid!r} requires the left eigenvector xi")
    if any(lam for *_, lam in penalties) and lam_abs is None:
        raise ValueError(f"{fid} requires lam_abs")

    times, states = traj.times, traj.states
    w = None
    if term == "xi":
        xi = np.asarray(xi, dtype=float)
        width = states.shape[1]
        if xi.size == 0 or width % xi.size:
            raise ValueError(f"xi has {xi.size} entries, which does not divide the "
                             f"state width {width}")
        w = np.repeat(xi, width // xi.size)
    value = _row_series(states, term, w)   # "two" and "xi" squared, as phase 1 weights them
    if phase == 1:
        with np.errstate(over="ignore"):
            mu = np.asarray(rate.mu(times), dtype=float)
        bad = ~np.isfinite(mu)
        if bad.any():
            raise ValueError(f"the {rate.kind} rate {rate.param:g} has no finite mu(t) "
                             f"from t={times[int(np.argmax(bad))]:.6g} on")
        value = mu * value
    elif term in ("two", "xi"):
        value = np.sqrt(value)
    for name, key, halved, lam in penalties:
        pen = (_gain_series(traj, name) - gain_stars[name]) ** 2
        if lam:
            pen = lam_abs * pen
        value = value + pen / (2.0 * rates[key] if halved else rates[key])
    if phase == 2:
        value = value + eps2 * times
    return value


def trace_functional(traj: HistoryTrajectory, functional_id: str,
                     rate: RateFunction, profile: DelayProfile,
                     xi: Optional[np.ndarray] = None,
                     eps2: Optional[float] = None,
                     gain_stars: Optional[dict] = None,
                     rates: Optional[dict] = None,
                     lam_abs: Optional[float] = None,
                     start_time: Optional[float] = None) -> LyapunovTrace:
    """V(t) and its windowed sup W(t) on the trajectory grid.

    The series starts at `start_time` (defaults to the rate's monitor start);
    window sups still look back over the full recorded history, all of them
    in one `window_sups` sweep.
    """
    values = functional_series(traj, functional_id, rate, xi=xi, eps2=eps2,
                               gain_stars=gain_stars, rates=rates, lam_abs=lam_abs)
    times = traj.times
    start = rate.default_monitor_start if start_time is None else start_time
    start_idx = int(np.searchsorted(times, start - 1e-12))

    sups = window_sups(values, traj.t0, traj.h, profile)
    contact = (sups - values) <= TRACE_TOL * np.maximum(1.0, np.abs(sups))
    contact[:start_idx] = False
    return LyapunovTrace(functional_id=functional_id.lower(), times=times,
                         values=values, window_sups=sups, contact_mask=contact,
                         start_index=start_idx,
                         norms=_norm_series(traj.states, "two"))


def contact_point_decrease(trace: LyapunovTrace, traj: HistoryTrajectory,
                           zero_tol: float = 1e-9):
    """Central-difference dV/dt at each contact point; pass iff < DERIV_TOL.

    Phase-II functionals (those carrying +eps2*t) are only meaningful while
    the state is away from the origin, so settled contact points are skipped.
    An empty list is a vacuous pass.
    """
    values = trace.values
    k = np.flatnonzero(trace.contact_mask)
    k = k[(k > max(0, trace.start_index)) & (k < len(values) - 1)]
    if trace.functional_id in _PHASE2_IDS:
        k = k[~(trace.norms[k] <= zero_tol)]
    dv = (values[k + 1] - values[k - 1]) / (2.0 * traj.h)
    return list(map(ContactPoint, trace.times[k].tolist(), dv.tolist(),
                    (dv < DERIV_TOL).tolist()))


def detect_phases(traj: HistoryTrajectory, profile: DelayProfile, norm: str,
                  eps2: float, zero_tol: float = 1e-9,
                  start_time: float = 0.0) -> PhaseReport:
    """Locate the phase boundary T1, the settling time, and envelope breaches.

    T1 is the first grid time at which the window sup of the switching
    functional (squared 2-norm, or the plain 1-/inf-norm) is <= 1.  Settling
    requires the norm to stay <= zero_tol through the end of the horizon.
    Envelope violations are grid points in (T1, T_settle] where the norm
    exceeds 1 - eps2*(t - T1) + ENVELOPE_TOL.
    """
    times = traj.times
    norms = _norm_series(traj.states, norm)
    series = norms ** 2 if norm == "two" else norms

    reached = np.flatnonzero((times >= start_time)
                             & (window_sups(series, traj.t0, traj.h, profile) <= 1.0))
    t1_idx = int(reached[0]) if reached.size else None
    T1 = math.inf if t1_idx is None else float(times[t1_idx])

    above = np.nonzero(norms > zero_tol)[0]
    if above.size == 0:
        T_settle = float(times[0])
        settle_idx = 0
    elif above[-1] == len(norms) - 1:
        T_settle = math.inf
        settle_idx = len(norms) - 1
    else:
        settle_idx = above[-1] + 1
        T_settle = float(times[settle_idx])

    violations = 0
    if t1_idx is not None:
        hi = settle_idx if math.isfinite(T_settle) else len(norms) - 1
        ts = times[t1_idx + 1:hi + 1]
        ns = norms[t1_idx + 1:hi + 1]
        violations = int((ns > 1.0 - eps2 * (ts - T1) + ENVELOPE_TOL).sum())

    return PhaseReport(T1=T1, T_settle=T_settle,
                       envelope_violations=violations, eps2=eps2, norm=norm)
