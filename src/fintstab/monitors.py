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
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .delays import DelayProfile, RateFunction
from .integrate import HistoryTrajectory, RunningWindowSup

TRACE_TOL = 1e-9      # relative near-equality tolerance for contact detection
DERIV_TOL = 1e-6      # absolute slack on the contact-point derivative
ENVELOPE_TOL = 1e-6   # slack on the phase-II linear envelope

# functional ids that carry the +eps2*t term (phase-II functionals)
_PHASE2_IDS = {"v2", "v4", "v6", "v8", "vbar2", "vbar4", "vbar6", "vbar8"}
# functional ids that need adaptive-gain penalty terms
_ADAPTIVE_IDS = {"v3", "v4", "vbar3", "vbar4", "vbar5", "vbar6", "vbar7", "vbar8"}


@dataclass
class LyapunovTrace:
    functional_id: str
    times: np.ndarray
    values: np.ndarray
    window_sups: np.ndarray
    contact_mask: np.ndarray
    start_index: int
    norms: np.ndarray  # plain 2-norm of the state, for settled-region masks

    @property
    def contact_times(self) -> np.ndarray:
        return self.times[self.contact_mask]


@dataclass
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


def _norm_series(states: np.ndarray, norm: str) -> np.ndarray:
    if norm == "two":
        return np.sqrt((states ** 2).sum(axis=1))
    if norm == "one":
        return np.abs(states).sum(axis=1)
    if norm == "inf":
        return np.abs(states).max(axis=1)
    raise ValueError(f"unknown norm {norm!r}")


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
    """Evaluate the selected functional on the whole trajectory grid.

    v1/v2 (2-norm), v5/v6 (1-norm), v7/v8 (inf-norm) are the static scalar
    pairs; v3/v4 add the adaptive-gain penalties.  vbar1..vbar4 are the
    xi-weighted network functionals, vbar5..vbar8 the adaptive 1-/inf-norm
    scalar ones.  Adaptive ids need `gain_stars` (limiting gains) and
    `rates` (the d1/d2/d3 used in the run); vbar3/vbar4 additionally need
    lam_abs = |lambda_max({Xi Atilde}^s)|.
    """
    times = traj.times
    states = traj.states
    fid = functional_id.lower()

    if fid in _PHASE2_IDS and eps2 is None:
        raise ValueError(f"functional {fid!r} requires eps2")
    if fid in _ADAPTIVE_IDS and (gain_stars is None or rates is None):
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


def trace_functional(traj: HistoryTrajectory, functional_id: str,
                     rate: RateFunction, profile: DelayProfile,
                     xi: Optional[np.ndarray] = None,
                     eps2: Optional[float] = None,
                     gain_stars: Optional[dict] = None,
                     rates: Optional[dict] = None,
                     lam_abs: Optional[float] = None,
                     start_time: Optional[float] = None,
                     trace_tol: float = TRACE_TOL) -> LyapunovTrace:
    """V(t) and its windowed sup W(t) on the trajectory grid.

    The series starts at `start_time` (defaults to the rate's monitor start);
    window sups still look back over the full recorded history.
    """
    values = functional_series(traj, functional_id, rate, xi=xi, eps2=eps2,
                               gain_stars=gain_stars, rates=rates, lam_abs=lam_abs)
    times = traj.times
    start = rate.default_monitor_start if start_time is None else start_time
    start_idx = int(np.searchsorted(times, start - 1e-12))

    tracker = RunningWindowSup(traj.t0, traj.h, profile)
    sups = np.empty_like(values)
    for k, v in enumerate(values):
        tracker.push(float(v))
        sups[k] = tracker.sup(k)

    contact = (sups - values) <= trace_tol * np.maximum(1.0, np.abs(sups))
    contact[:start_idx] = False
    return LyapunovTrace(functional_id=functional_id.lower(), times=times,
                         values=values, window_sups=sups, contact_mask=contact,
                         start_index=start_idx,
                         norms=_norm_series(traj.states, "two"))


def contact_point_decrease(trace: LyapunovTrace, traj: HistoryTrajectory,
                           report=None, deriv_tol: float = DERIV_TOL,
                           zero_tol: float = 1e-9,
                           t_max: Optional[float] = None):
    """Central-difference dV/dt at each contact point; pass iff < deriv_tol.

    Phase-II functionals (those carrying +eps2*t) are only meaningful while
    the state is away from the origin, so settled contact points are skipped;
    `t_max` truncates the scan (e.g. at the measured settling time).  An
    empty list is a vacuous pass.
    """
    h = traj.h
    values = trace.values
    out = []
    settled_excluded = trace.functional_id in _PHASE2_IDS
    for k in np.nonzero(trace.contact_mask)[0]:
        if k <= max(0, trace.start_index) or k >= len(values) - 1:
            continue
        t = trace.times[k]
        if t_max is not None and t > t_max:
            continue
        if settled_excluded and trace.norms[k] <= zero_tol:
            continue
        dv = (values[k + 1] - values[k - 1]) / (2.0 * h)
        out.append(ContactPoint(time=float(t), dV_dt=float(dv), ok=dv < deriv_tol))
    return out


def detect_phases(traj: HistoryTrajectory, profile: DelayProfile, norm: str,
                  eps2: float, zero_tol: float = 1e-9,
                  start_time: float = 0.0,
                  envelope_tol: float = ENVELOPE_TOL) -> PhaseReport:
    """Locate the phase boundary T1, the settling time, and envelope breaches.

    T1 is the first grid time at which the window sup of the switching
    functional (squared 2-norm, or the plain 1-/inf-norm) is <= 1.  Settling
    requires the norm to stay <= zero_tol through the end of the horizon.
    Envelope violations are grid points in (T1, T_settle] where the norm
    exceeds 1 - eps2*(t - T1) + envelope_tol.
    """
    times = traj.times
    norms = _norm_series(traj.states, norm)
    series = norms ** 2 if norm == "two" else norms

    tracker = RunningWindowSup(traj.t0, traj.h, profile)
    T1 = math.inf
    t1_idx = None
    for k, v in enumerate(series):
        tracker.push(float(v))
        if times[k] >= start_time and tracker.sup(k) <= 1.0:
            t1_idx = k
            T1 = float(times[k])
            break

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
        violations = int((ns > 1.0 - eps2 * (ts - T1) + envelope_tol).sum())

    return PhaseReport(T1=T1, T_settle=T_settle,
                       envelope_violations=violations, eps2=eps2, norm=norm)
