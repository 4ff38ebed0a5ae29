"""Fixed-step DDE integration with a dense history buffer.

The integrator stores every accepted step (unbounded delays need the whole
history) and resolves delayed states by linear interpolation.  Every lookup
goes through one rule, `grid_rows`; on the fixed grid the delayed times of
step k depend only on k, so a `DelayPlan` computes them block by block and
the step loop only gathers rows (`PlanGather`).  Discontinuous
sign feedback is handled by a zero-band projection: a component whose sign
flipped during a step and whose magnitude stayed inside the one-step sliding
band is set to exactly 0, emulating the ideal sliding mode.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .delays import DelayProfile

_GRID_SNAP = 1e-9  # fraction of h below which a query snaps to the grid point


class DivergenceError(RuntimeError):
    """Non-finite or runaway state detected during integration."""

    def __init__(self, t: float):
        super().__init__(f"state diverged at t={t:.6g}")
        self.blow_up_time = t


class HistoryWindowError(ValueError):
    """Query outside the available history: past the current step, or a
    window reaching before t0 where pre-history is not allowed."""


@dataclass
class IntegratorConfig:
    horizon: float
    h: float = 1e-3
    method: str = "euler"  # "euler" | "rk4_frozen"
    zero_band: Optional[float] = None  # None -> sign_gain * h (auto)
    zero_tol: float = 1e-9
    divergence_limit: float = 1e12

    def __post_init__(self):
        if self.h <= 0.0:
            raise ValueError(f"step size must be > 0, got {self.h}")
        if self.zero_band is not None and self.zero_band < 0.0:
            raise ValueError(f"zero_band must be >= 0, got {self.zero_band}")
        if self.zero_tol <= 0.0:
            raise ValueError(f"zero_tol must be > 0, got {self.zero_tol}")
        if self.method not in ("euler", "rk4_frozen"):
            raise ValueError(f"unknown method {self.method!r}")


def grid_rows(times, t0: float, h: float, last):
    """Lower row, upper row and upper weight of query times on the grid t0 + k*h.

    The single lookup rule of the package: the value at t is
    (1 - w)*x[lo] + w*x[hi] over rows 0..last.  A time within _GRID_SNAP*h of
    a grid point snaps to it (lo = hi, w = 0).  A time before t0 gives
    lo = hi = 0, w = 0; callers resolve it through the initial history, whose
    default (constant extension) is row 0.  A time past row `last` raises
    HistoryWindowError whose `index` is the flat position of the first such
    time.  `last` may be an array broadcast against `times`.
    """
    times = np.asarray(times, dtype=float)
    u = (times - t0) / h
    ahead = u > last + _GRID_SNAP
    if ahead.any():
        i = int(np.argmax(ahead))
        row = np.broadcast_to(last, ahead.shape).flat[i]
        err = HistoryWindowError(f"query at t={times.flat[i]:.6g} beyond recorded "
                                 f"history (current time {t0 + row * h:.6g})")
        err.index = i
        raise err
    lo = np.clip(np.floor(u), 0.0, last)
    frac = u - lo
    up = (frac > 1.0 - _GRID_SNAP) & (lo < last)
    snap = up | (frac < _GRID_SNAP)
    lo += up
    hi = np.where(snap, lo, np.minimum(lo + 1.0, last))
    w = np.where(snap, 0.0, frac)
    return lo.astype(np.intp), hi.astype(np.intp), w


PLAN_BLOCK = 256  # grid steps per filled block; 512 raised peak RSS with no speed gain


class _PlanBlock:
    """Rows of steps start..start+len(lo)-1: lo, hi, w are (steps, components)."""

    def __init__(self, start, times, lo, hi, w, t0):
        self.start = start
        self.stop = start + lo.shape[0]
        self.times = times
        self.lo, self.hi, self.w = lo, hi, w
        self.pre = (times < t0).any(axis=1).tolist()


class DelayPlan:
    """Lookup rows of every grid step's delayed times on the grid t0 + k*h.

    Row k holds grid_rows of t_k - pi_p(t_k) for each delay component p (or of
    t_k - pi(t_k) for the envelope), looked up with last row k: the history
    an integrator holds at step k.  Rows are filled on demand in aligned
    blocks of PLAN_BLOCK steps, so memory stays O(PLAN_BLOCK * components)
    whatever the horizon.  Custom profiles fill a block by evaluating the
    profile once per time.  A row that looks past its own step raises
    HistoryWindowError when it is read.
    """

    def __init__(self, profile: DelayProfile, t0: float, h: float, envelope: bool = False):
        self.profile = profile
        self.t0 = float(t0)
        self.h = float(h)
        self.envelope = envelope
        self._block: Optional[_PlanBlock] = None

    def _delays(self, ts: np.ndarray) -> np.ndarray:
        p = self.profile
        if not self.envelope:
            return p.delay_table(ts)
        if p.envelope_kind == "custom":
            return np.array([[float(p.envelope(t))] for t in ts])
        return np.asarray(p.envelope(ts), dtype=float)[:, None]

    def _fill(self, start: int, stop: int) -> _PlanBlock:
        ks = np.arange(start, stop)
        ts = self.t0 + ks * self.h
        times = ts[:, None] - self._delays(ts)
        try:
            lo, hi, w = grid_rows(times, self.t0, self.h, ks[:, None])
        except HistoryWindowError as exc:
            bad = start + exc.index // times.shape[1]
            if bad == start:
                raise
            return self._fill(start, bad)  # the block ends before the bad row
        return _PlanBlock(start, times, lo, hi, w, self.t0)

    def row(self, k: int):
        """The filled block holding step k, and k's row in it."""
        blk = self._block
        if blk is None or not blk.start <= k < blk.stop:
            start = k - k % PLAN_BLOCK
            blk = self._fill(start, start + PLAN_BLOCK)
            if k >= blk.stop:  # truncated before k: raises on its first bad row
                blk = self._fill(blk.stop, start + PLAN_BLOCK)
            self._block = blk
        return blk, k - blk.start


class PlanGather:
    """A plan's delayed values of a trajectory, one grid step at a time.

    Component p of the plan reads the state columns cols[p]; cols has one row
    per component, or one row per output row when a single shared delay
    component is broadcast.  Flat indices and weights are rebuilt whenever
    the plan hands out another block.
    """

    def __init__(self, cols, stride: int):
        self.cols = np.asarray(cols, dtype=np.intp)
        self.stride = stride
        self._blk: Optional[_PlanBlock] = None

    def _load(self, blk: _PlanBlock):
        self._blk = blk
        self._lo = blk.lo[:, :, None] * self.stride + self.cols
        self._hi = blk.hi[:, :, None] * self.stride + self.cols
        self._wh = blk.w[:, :, None]
        self._wl = 1.0 - self._wh

    def __call__(self, traj: "HistoryTrajectory", k: int,
                 plan: Optional[DelayPlan] = None) -> np.ndarray:
        """Values at step k from row k of `plan` (default traj.plan),
        shape (rows of cols, columns per row)."""
        blk, r = (traj.plan if plan is None else plan).row(k)
        if blk is not self._blk:
            self._load(blk)
        flat = traj._flat
        out = self._wl[r] * flat[self._lo[r]] + self._wh[r] * flat[self._hi[r]]
        if blk.pre[r] and traj.initial_history is not None:
            traj._pre_history_into(out, blk.times[r], self.cols)
        return out


def diag_cols(n_components: int, dim: int) -> np.ndarray:
    """Columns for component i reading state component i (shared delay: all)."""
    if n_components == 1:
        return np.arange(dim)[None, :]
    if n_components != dim:
        raise ValueError(f"{n_components} delay components for a {dim}-dim state")
    return np.arange(dim)[:, None]


class HistoryTrajectory:
    """Dense grid record of a state trajectory with linear interpolation.

    Queries at t < t0 fall back to the initial history function (constant
    extension of the initial state by default), which is how constant-delay
    problems resolve pre-history lookups.  `integrate` attaches its
    DelayPlan as `plan`.
    """

    def __init__(self, t0: float, h: float, initial_state, capacity: int,
                 initial_history: Optional[Callable[[float], np.ndarray]] = None,
                 gain_names: Optional[Sequence[str]] = None):
        x0 = np.atleast_1d(np.asarray(initial_state, dtype=float))
        self.t0 = float(t0)
        self.h = float(h)
        self.dim = x0.size
        self._states = np.empty((capacity + 1, self.dim))
        self._states[0] = x0
        self._flat = self._states.reshape(-1)
        self._filled = 0
        self.initial_history = initial_history
        self.gain_names = tuple(gain_names) if gain_names else ()
        self._gains = (np.empty((capacity + 1, len(self.gain_names)))
                       if self.gain_names else None)
        self.plan: Optional[DelayPlan] = None

    @classmethod
    def from_arrays(cls, t0: float, h: float, states: np.ndarray,
                    gain_names: Optional[Sequence[str]] = None,
                    gains: Optional[np.ndarray] = None) -> "HistoryTrajectory":
        if gains is not None and not gain_names:
            raise ValueError("gains given without gain_names")
        states = np.atleast_2d(np.asarray(states, dtype=float))
        traj = cls(t0, h, states[0], states.shape[0] - 1, gain_names=gain_names)
        traj._states[:] = states
        traj._filled = states.shape[0] - 1
        if gains is not None:
            traj._gains[:] = gains
        return traj

    # -- bookkeeping -------------------------------------------------------

    @property
    def current_time(self) -> float:
        return self.t0 + self._filled * self.h

    @property
    def states(self) -> np.ndarray:
        return self._states[:self._filled + 1]

    @property
    def gains(self) -> Optional[np.ndarray]:
        if self._gains is None:
            return None
        return self._gains[:self._filled + 1]

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.h * np.arange(self._filled + 1)

    def append(self, state: np.ndarray, gains: Optional[np.ndarray] = None):
        self._filled += 1
        self._states[self._filled] = state
        if self._gains is not None:
            self._gains[self._filled] = gains

    # -- interpolation -----------------------------------------------------

    def _pre_history_into(self, out: np.ndarray, times: np.ndarray, cols: np.ndarray):
        """Overwrite the rows of `out` whose query time precedes t0 with the
        initial history (without one, row 0 already is constant extension)."""
        times = np.broadcast_to(times, out.shape[:1])
        for i in np.nonzero(times < self.t0)[0]:
            value = np.atleast_1d(np.asarray(self.initial_history(times[i]), dtype=float))
            out[i] = value[cols[min(i, cols.shape[0] - 1)]]

    def interpolate(self, times, cols) -> np.ndarray:
        """State columns cols[i] at times[i] (shape (len(times), cols per row))."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        cols = np.asarray(cols, dtype=np.intp)
        lo, hi, w = grid_rows(times, self.t0, self.h, self._filled)
        wh = w[:, None]
        out = ((1.0 - wh) * self._flat[lo[:, None] * self.dim + cols]
               + wh * self._flat[hi[:, None] * self.dim + cols])
        if self.initial_history is not None and (times < self.t0).any():
            self._pre_history_into(out, times, cols)
        return out

    def query(self, t: float) -> np.ndarray:
        """Linearly interpolated state at time t <= current_time."""
        return self.interpolate(t, np.arange(self.dim)[None, :])[0]

    def query_diag(self, times: np.ndarray) -> np.ndarray:
        """Component i of the state at its own delayed time times[i]."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        return self.interpolate(times, diag_cols(times.size, self.dim)).ravel()


# -- windowed suprema ------------------------------------------------------

def sq_norm2(x) -> float:
    x = np.asarray(x)
    return float(np.dot(x.ravel(), x.ravel()))


def norm1(x) -> float:
    return float(np.abs(x).sum())


def norm_inf(x) -> float:
    return float(np.abs(x).max())


def weighted_sq(weights) -> Callable[[np.ndarray], float]:
    """Sum_k w_k x_k**2; use np.repeat(xi, n) for node-weighted errors."""
    w = np.asarray(weights, dtype=float)

    def fn(x) -> float:
        x = np.asarray(x).ravel()
        return float(np.dot(w, x * x))

    return fn


def window_sup(traj: HistoryTrajectory, t: float, profile: DelayProfile,
               functional: Callable[[np.ndarray], float],
               allow_prehistory: bool = True) -> float:
    """Supremum of `functional` over [t - pi(t), t].

    Grid points inside the window plus the two boundary interpolants.  A left
    boundary before t0 resolves through the trajectory's initial history
    (constant extension by default) unless `allow_prehistory` is False.
    """
    a = t - float(profile.envelope(t))
    if a < traj.t0 - _GRID_SNAP * traj.h and not allow_prehistory:
        raise HistoryWindowError(f"window [{a:.6g}, {t:.6g}] precedes history start {traj.t0}")
    lo, hi, _ = grid_rows([a, t], traj.t0, traj.h, traj._filled)
    # grid points in the window: from a's upper row to t's lower row
    best = max((functional(traj._states[k]) for k in range(hi[0], lo[1] + 1)),
               default=-math.inf)
    return max(best, functional(traj.query(a)), functional(traj.query(t)))


class RunningWindowSup:
    """Incremental sup of a grid series over the sliding window [t-pi(t), t].

    Both window ends are nondecreasing in t, so a monotone deque gives O(1)
    amortised updates.  The left boundary contributes the series' linear
    interpolant at t - pi(t), read from an envelope DelayPlan; values before
    t0 take the series value at t0 (constant pre-history).
    """

    def __init__(self, t0: float, h: float, profile: DelayProfile):
        self.t0 = t0
        self.h = h
        self.profile = profile
        self.values: list = []
        self._dq: deque = deque()  # indices, values strictly decreasing
        self._plan = DelayPlan(profile, t0, h, envelope=True)
        self._blk: Optional[_PlanBlock] = None

    def push(self, value: float):
        k = len(self.values)
        self.values.append(value)
        while self._dq and self.values[self._dq[-1]] <= value:
            self._dq.pop()
        self._dq.append(k)

    def _load(self, blk: _PlanBlock):
        self._blk = blk
        self._lo = blk.lo[:, 0].tolist()
        self._hi = blk.hi[:, 0].tolist()
        self._wh = blk.w[:, 0].tolist()
        self._wl = (1.0 - blk.w[:, 0]).tolist()

    def sup(self, k: int) -> float:
        """Window sup at grid time t0 + k*h; values[0..k] must be pushed."""
        blk, r = self._plan.row(k)
        if blk is not self._blk:
            self._load(blk)
        lo, hi = self._lo[r], self._hi[r]
        # hi is the first grid point at or after the window's left end
        while self._dq and self._dq[0] < hi:
            self._dq.popleft()
        best = self.values[self._dq[0]] if self._dq else -math.inf
        return max(best, self._wl[r] * self.values[lo] + self._wh[r] * self.values[hi])


# -- integration -----------------------------------------------------------

def _project_zero_band(x_old: np.ndarray, x_new: np.ndarray, band: float) -> np.ndarray:
    if band <= 0.0:
        return x_new
    flipped = (x_old * x_new < 0.0) | ((x_old == 0.0) & (x_new != 0.0))
    hit = flipped & (np.abs(x_new) <= band)
    if hit.any():
        x_new = x_new.copy()
        x_new[hit] = 0.0
    return x_new


def integrate(rhs, initial_state, profile: DelayProfile, config: IntegratorConfig,
              gain_hook=None, t0: float = 0.0,
              initial_history: Optional[Callable[[float], np.ndarray]] = None
              ) -> HistoryTrajectory:
    """Integrate x' = rhs(t, x, traj) on [t0, horizon] with fixed step h.

    `rhs` resolves delayed states from `traj`, which covers the history up to
    the current step start.  The step k call sees traj._filled == k, so it
    can read row k of `traj.plan`: the DelayPlan of `profile` on this grid,
    built here once per call.
    `gain_hook`, when given, is an object with attributes `names`, `gains`,
    `sign_gain` and a method `step(t, x, traj)`; it is invoked once per
    accepted step and its gain trajectory is recorded alongside the states.

    rk4_frozen freezes the step-start time inside all internal stages, so
    delayed arguments are evaluated at the step's start.  That makes it
    first order on delayed problems (the pantograph oracle in the tests
    measures order 1.0 for both methods); it is fourth order only when no
    delayed argument enters the right-hand side.
    """
    x = np.atleast_1d(np.asarray(initial_state, dtype=float)).copy()
    h = config.h
    n_steps = int(round((config.horizon - t0) / h))
    if n_steps <= 0:
        raise ValueError("horizon must exceed start time by at least one step")
    gain_names = gain_hook.names if gain_hook is not None else None
    traj = HistoryTrajectory(t0, h, x, n_steps, initial_history=initial_history,
                             gain_names=gain_names)
    traj.plan = DelayPlan(profile, t0, h)
    if gain_hook is not None:
        traj._gains[0] = gain_hook.gains

    limit = config.divergence_limit
    for k in range(n_steps):
        t = t0 + k * h
        if config.method == "euler":
            dx = rhs(t, x, traj)
            x_new = x + h * np.asarray(dx, dtype=float)
        else:  # rk4_frozen: time (hence delays) frozen at step start
            k1 = np.asarray(rhs(t, x, traj), dtype=float)
            k2 = np.asarray(rhs(t, x + 0.5 * h * k1, traj), dtype=float)
            k3 = np.asarray(rhs(t, x + 0.5 * h * k2, traj), dtype=float)
            k4 = np.asarray(rhs(t, x + h * k3, traj), dtype=float)
            x_new = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        if config.zero_band is not None:
            band = config.zero_band
        elif gain_hook is not None:
            band = gain_hook.sign_gain * h
        else:
            band = 0.0
        x_new = _project_zero_band(x, x_new, band)

        if not np.isfinite(x_new).all() or np.abs(x_new).max() > limit:
            raise DivergenceError(t + h)

        gains = None
        if gain_hook is not None:
            gain_hook.step(t, x, traj)
            gains = gain_hook.gains
        traj.append(x_new, gains)
        x = x_new
    return traj


def delayed_linear_rhs(c1: float, c2: float, profile: DelayProfile,
                       control: Optional[Callable[[float, np.ndarray], np.ndarray]] = None):
    """Right-hand side p' = c1*p + c2*p(t - Pi(t)) + u(t, p).

    The rhs is evaluated at the trajectory's current step, t = traj.current_time,
    which is where `integrate` calls it.  The delayed state is that step's row
    of `traj.plan` when the plan is for `profile` itself, and of a DelayPlan
    of `profile` on the trajectory's grid otherwise (a trajectory without a
    plan, or one integrated with another profile object).
    """
    seen = plan = gather = None

    def rhs(t, p, traj):
        nonlocal seen, plan, gather
        if traj is not seen:
            seen, plan = traj, traj.plan
            if plan is None or plan.profile is not profile:
                plan = DelayPlan(profile, traj.t0, traj.h)
            gather = PlanGather(diag_cols(profile.n_components, traj.dim), traj.dim)
        delayed = gather(traj, traj._filled, plan).ravel()
        dp = c1 * p + c2 * delayed
        if control is not None:
            dp = dp + control(t, p)
        return dp

    return rhs
