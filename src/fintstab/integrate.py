"""Fixed-step DDE integration with a dense history buffer.

The integrator stores every accepted step (unbounded delays need the whole
history) and resolves delayed states by linear interpolation.  Every lookup
goes through one rule, `grid_rows`, and one formula,
`HistoryTrajectory._lookup`; on the fixed grid the delayed times of step k
depend only on k, so a `DelayPlan` computes them block by block, and
`BlockRows` turns each block into per-step rows once.  Discontinuous sign
feedback is handled by a zero-band projection: a component whose sign
flipped during a step and whose magnitude stayed inside the one-step sliding
band is set to exactly 0, emulating the ideal sliding mode.
"""
from __future__ import annotations

import math
from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .delays import DelayProfile

_GRID_SNAP = 1e-9  # fraction of h below which a query snaps to the grid point
_STEP_RATIO_TOL = 1e-9  # horizon/h must be this close to a whole number


class DivergenceError(RuntimeError):
    """Non-finite or runaway state detected during integration."""

    def __init__(self, t: float):
        super().__init__(f"state diverged at t={t:.6g}")
        self.blow_up_time = t


class HistoryWindowError(ValueError):
    """Query past the recorded history: a time after the current step."""


@dataclass
class IntegratorConfig:
    """A fixed-step run on [0, horizon] in `n_steps` steps of h: a horizon off
    the grid (by over 1e-9 steps) raises a ValueError, it is never rounded."""

    horizon: float
    h: float = 1e-3
    zero_band: Optional[float] = None  # None -> sign_gain * h (auto)
    zero_tol: float = 1e-9
    divergence_limit: float = 1e12
    n_steps: int = field(init=False, repr=False)

    def __post_init__(self):
        if not self.h > 0.0:
            raise ValueError(f"step size must be > 0, got {self.h}")
        ratio = self.horizon / self.h
        if not (math.isfinite(ratio) and abs(ratio - round(ratio)) <= _STEP_RATIO_TOL):
            raise ValueError(f"horizon {self.horizon:g} is not a whole number of steps "
                             f"h = {self.h:g}")
        self.n_steps = int(round(ratio))
        if self.n_steps <= 0:
            raise ValueError("horizon must be at least one step")
        if self.n_steps >= np.iinfo(np.intp).max:  # n_steps + 1 history rows
            raise ValueError(f"horizon {self.horizon:g} is {self.n_steps:.3g} steps of "
                             f"h = {self.h:g}: too many to record")
        if self.zero_band is not None and self.zero_band < 0.0:
            raise ValueError(f"zero_band must be >= 0, got {self.zero_band}")
        if self.zero_tol <= 0.0:
            raise ValueError(f"zero_tol must be > 0, got {self.zero_tol}")


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
    """Rows of steps start..start+len(lo)-1: times, lo, hi, w are (steps,
    components), and reach[r] is the highest history row row r reads."""

    def __init__(self, start, times, lo, hi, w, reach):
        self.start = start
        self.stop = start + lo.shape[0]
        self.times = times
        self.lo, self.hi, self.w = lo, hi, w
        self.reach = reach

    def values(self, traj: "HistoryTrajectory", cols) -> np.ndarray:
        """traj's state columns cols at the block's times: `HistoryTrajectory._lookup`."""
        return traj._lookup(self.times, self.lo, self.hi, self.w, cols)


class DelayPlan:
    """Lookup rows of every grid step's delayed times on the grid t0 + k*h.

    Row k holds grid_rows of t_k - pi_p(t_k) for each delay component p (or of
    t_k - pi(t_k) for the envelope), looked up with last row k: the history
    an integrator holds at step k.  Rows are computed on demand in aligned
    runs of PLAN_BLOCK steps, so memory stays O(PLAN_BLOCK * components)
    whatever the horizon; custom profiles evaluate the profile once per time.
    `row` hands a run out in complete blocks: a block starting at step s
    ends before its first row that reads past row s, so every row a block
    reads is recorded once step s is reached.  A row that looks past its own
    step raises HistoryWindowError when it is read.
    """

    def __init__(self, profile: DelayProfile, t0: float, h: float, envelope: bool = False):
        self.profile = profile
        self.t0 = float(t0)
        self.h = float(h)
        self.envelope = envelope
        self._run: Optional[_PlanBlock] = None

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
            return self._fill(start, bad)  # the run ends before the bad row
        return _PlanBlock(start, times, lo, hi, w, hi.max(axis=1))

    def row(self, k: int) -> _PlanBlock:
        """The complete block starting at step k: rows from k up to, not
        including, the first that reads past row k."""
        run = self._run
        if run is None or not run.start <= k < run.stop:
            start = k - k % PLAN_BLOCK
            run = self._fill(start, start + PLAN_BLOCK)
            if k >= run.stop:  # truncated before k: raises on its first bad row
                run = self._fill(run.stop, start + PLAN_BLOCK)
            self._run = run
        i = k - run.start
        ahead = run.reach[i:] > k
        j = i + int(ahead.argmax()) if ahead.any() else len(run.reach)
        return _PlanBlock(k, run.times[i:j], run.lo[i:j], run.hi[i:j], run.w[i:j],
                          run.reach[i:j])


class BlockRows:
    """Step k's row of a per-step quantity, built one plan block at a time:
    `row(k)` off the cached block cuts the block starting at k, `plan.row(k)`,
    and calls `make(blk)` once for that block's list of rows.  A block reads
    only rows recorded at its first step, so this equals building each row at
    its own step bitwise.  A method, not `__call__`, which costs twice as much."""

    def __init__(self, plan: DelayPlan, make: Callable[[_PlanBlock], list]):
        self.plan, self.make = plan, make
        self.start, self.rows = 0, []

    def row(self, k: int):
        r = k - self.start
        if not 0 <= r < len(self.rows):
            self.start, self.rows, r = k, self.make(self.plan.row(k)), 0
        return self.rows[r]


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

    def _lookup(self, times, lo, hi, w, cols) -> np.ndarray:
        """State columns at `times` from their grid rows (lo, hi, w), all of
        one shape whose last axis runs over the rows of cols (or broadcasts
        against them): (1 - w)*x[lo] + w*x[hi] over cols, shape (..., rows
        of cols, columns per row).  Every entry whose time precedes t0 then
        reads the initial history, one call per time (without one, row 0
        already is constant extension)."""
        wh = w[..., None]
        flat = self._flat
        out = ((1.0 - wh) * flat[lo[..., None] * self.dim + cols]
               + wh * flat[hi[..., None] * self.dim + cols])
        if self.initial_history is not None:
            for idx in zip(*np.nonzero(times < self.t0)):
                value = np.atleast_1d(np.asarray(self.initial_history(times[idx]),
                                                 dtype=float))
                r = slice(None) if times.shape[-1] == 1 else idx[-1]  # shared: every row
                out[idx[:-1] + (r,)] = value[cols[r]]
        return out

    def query(self, t: float) -> np.ndarray:
        """The state at time t <= current_time: `query_diag` of one time."""
        return self.query_diag(t)

    def query_diag(self, times: np.ndarray) -> np.ndarray:
        """Component i of the state at its own delayed time times[i]; one
        time reads every component."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        lo, hi, w = grid_rows(times, self.t0, self.h, self._filled)
        return self._lookup(times, lo, hi, w, diag_cols(times.size, self.dim)).ravel()


# -- windowed suprema ------------------------------------------------------

def sq_norm2(x) -> float:
    x = np.asarray(x)
    return float(np.dot(x.ravel(), x.ravel()))


def norm1(x) -> float:
    return float(np.abs(x).sum())


def norm_inf(x) -> float:
    return float(np.abs(x).max())


class RunningWindowSup:
    """Incremental sup of a grid series over the sliding window [t-pi(t), t],
    for the adaptive hook, which sees one value a step (a recorded series
    takes `window_sups`).

    Both window ends are nondecreasing in t, so a monotone deque gives O(1)
    amortised updates.  The left boundary contributes the series' linear
    interpolant at t - pi(t), read from an envelope DelayPlan; values before
    t0 take the series value at t0 (constant pre-history).  The pushed values
    are kept as C doubles, 8 bytes a step: an unbounded delay's window may
    reach back to any of them.
    """

    def __init__(self, t0: float, h: float, profile: DelayProfile):
        self.values = array("d")
        self._dq: deque = deque()  # indices, values strictly decreasing
        self._left = BlockRows(DelayPlan(profile, t0, h, envelope=True), _window_rows)

    def push(self, value: float):
        k = len(self.values)
        self.values.append(value)
        while self._dq and self.values[self._dq[-1]] <= value:
            self._dq.pop()
        self._dq.append(k)

    def sup(self, k: int) -> float:
        """Window sup at grid time t0 + k*h; values[0..k] must be pushed."""
        lo, hi, wl, wh = self._left.row(k)
        # hi is the first grid point at or after the window's left end
        while self._dq and self._dq[0] < hi:
            self._dq.popleft()
        best = self.values[self._dq[0]] if self._dq else -math.inf
        return max(best, wl * self.values[lo] + wh * self.values[hi])


def _window_rows(blk: _PlanBlock) -> list:
    """(lo, hi, 1 - w, w) of each step of an envelope block, as Python numbers."""
    w = blk.w[:, 0]
    return list(zip(blk.lo[:, 0].tolist(), blk.hi[:, 0].tolist(), (1.0 - w).tolist(),
                    w.tolist()))


ROW_CHUNK = 4096  # rows a whole-series pass takes at a time: its temporaries stay this size


def row_chunks(n: int) -> list:
    """Slices of ROW_CHUNK rows (read at call time) that cover rows 0..n-1 in order."""
    return [slice(s, min(s + ROW_CHUNK, n)) for s in range(0, n, ROW_CHUNK)]


def window_sups(values, t0: float, h: float, profile: DelayProfile) -> np.ndarray:
    """`RunningWindowSup.sup(k)` for every k of a recorded series, bitwise, in
    O(n log n) NumPy work and O(n) memory.

    The envelope rows come from aligned `DelayPlan._fill` runs of
    ROW_CHUNK steps: offline every value is known, so no complete blocks
    are cut.  The deque's window is [H_k, k] with H_k the running max of the
    rows' hi; its max is the larger of two power-of-two ranges of a sparse
    table (Bender & Farach-Colton, LATIN 2000), built one level at a time
    and queried by the windows of that level.  The deque keeps the last of
    equal values, and which of +0.0 and -0.0 `np.maximum` returns varies by
    build, so a zero max takes the sign of the window's last zero.  A NaN
    or infinite value raises ValueError: there NumPy's max and the deque's
    comparisons disagree.
    """
    v = np.asarray(values, dtype=float)
    bad = ~np.isfinite(v)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"window sup of the non-finite value {float(v[i])!r} at row {i}")
    n = v.shape[0]
    plan = DelayPlan(profile, t0, h, envelope=True)
    left = np.empty(n, dtype=np.intp)   # hi, then H_k
    bound = np.empty(n)                 # the left boundary's interpolant
    start = 0
    while start < n:
        blk = plan._fill(start, min(start - start % ROW_CHUNK + ROW_CHUNK, n))
        lo, hi, w = blk.lo[:, 0], blk.hi[:, 0], blk.w[:, 0]
        bound[start:blk.stop] = (1.0 - w) * v[lo] + w * v[hi]
        left[start:blk.stop] = hi
        start = blk.stop
    np.maximum.accumulate(left, out=left)
    ks = np.arange(n)
    level = np.frexp(ks + 1 - left)[1] - 1   # floor(log2(window length)), exact
    best = np.empty(n)
    table = v   # table[i] = max(v[i : i + 2**j]) at level j
    for j in range(int(level.max(initial=0)) + 1):
        if j:
            table = np.maximum(table[:-(1 << (j - 1))], table[1 << (j - 1):])
        q = np.flatnonzero(level == j)
        best[q] = np.maximum(table[left[q]], table[q + 1 - (1 << j)])
    zero = v == 0.0
    if np.signbit(v[zero]).any():
        best = np.where(best == 0.0, v[np.maximum.accumulate(np.where(zero, ks, 0))], best)
    return np.where(bound > best, bound, best)   # max(best, bound), as Python takes it


# -- integration -----------------------------------------------------------

def _band_hits(x_old, x_new, band: float) -> list:
    """Indices of the components the zero band hits, on sequences of floats:
    0 < |b| <= band and (a*b < 0 or a == 0), a the component before the step
    and b after it.  A NaN fails both comparisons, so it is never hit."""
    return [i for i, (a, b) in enumerate(zip(x_old, x_new))
            if 0.0 < abs(b) <= band and (a * b < 0.0 or a == 0.0)]


def _project_zero_band(x_old: np.ndarray, x_new: np.ndarray, band: float) -> np.ndarray:
    """x_new with every component b that flipped sign (or left 0) during the
    step and stays within `band` of 0 set to exactly 0 (see `_band_hits`).

    Returns x_new itself when nothing is hit, and a zeroed copy otherwise.
    The rule runs on the states' Python floats: the states hold 1 to 9
    components, where one NumPy reduction costs more than the whole loop
    (the loop costs about 0.1 us a component, so NumPy wins from about 30).
    """
    hits = _band_hits(x_old.tolist(), x_new.tolist(), band)
    if not hits:
        return x_new
    x_new = x_new.copy()
    for i in hits:  # item writes: a fancy-index write costs twice as much here
        x_new[i] = 0.0
    return x_new


def _floats(v, n: int) -> list:
    """An rhs or control result that is not a list of n floats, as one: an
    array of shape (n,) is converted once, and anything else is broadcast to
    (n,) as NumPy broadcasts it against an n-component state."""
    v = np.asarray(v, dtype=float)
    return (v if v.shape == (n,) else np.broadcast_to(v, (n,))).tolist()


def integrate(rhs, initial_state, profile: DelayProfile, config: IntegratorConfig,
              gain_hook=None,
              initial_history: Optional[Callable[[float], np.ndarray]] = None
              ) -> HistoryTrajectory:
    """Integrate x' = rhs(t, x, traj) on [0, horizon] in config.n_steps
    explicit Euler steps of h, each followed by the zero-band projection.  A
    step whose new state has a NaN, an infinite or a component above
    `divergence_limit` in magnitude raises DivergenceError at that step's end.
    The step is one-stage on purpose: the zero band is a one-step sliding
    band, and the stages of a multi-stage step chatter across the sign switch
    unseen by it, settling late or never.

    `x` is the recorded history row of the step's start, a read-only 1-d
    array: writing into it raises ValueError.  `rhs` may return a NumPy
    array or a list of floats.  A list of one float per component is used
    as it is, an array of the state's shape is converted once, and any
    other value is broadcast against the state as NumPy broadcasts it.

    The states are small (1 to 9 components), so a step costs a fixed Python
    and NumPy overhead, not arithmetic.  The loop therefore keeps the state
    as a list of Python floats and writes each step's history row once: the
    Euler update, the zero-band and divergence tests are float operations,
    bitwise equal to the elementwise NumPy ones.  The band is set once per
    call, or per step from the hook's sign gain.  A step that the band hits
    is projected by `_project_zero_band`, the projection's one entry point,
    on arrays.

    `rhs` resolves delayed states from `traj`, which covers the history up to
    the current step start.  The step k call sees traj._filled == k, so it
    can read row k of `traj.plan`: the DelayPlan of `profile` on this grid,
    built here once per call.
    `gain_hook`, when given, is an object with attributes `names`, `gains`,
    `sign_gain` and a method `step(t, x, traj)`; it is invoked once per
    accepted step, after the rhs and with the same `x`, and its gain
    trajectory is recorded alongside the states.
    """
    x0 = np.atleast_1d(np.asarray(initial_state, dtype=float))
    h, n_steps = config.h, config.n_steps
    gain_names = gain_hook.names if gain_hook is not None else None
    traj = HistoryTrajectory(0.0, h, x0, n_steps, initial_history=initial_history,
                             gain_names=gain_names)
    traj.plan = DelayPlan(profile, 0.0, h)
    states, all_gains = traj._states, traj._gains
    if gain_hook is not None:
        all_gains[0] = gain_hook.gains
    rows = states.view()
    rows.flags.writeable = False
    n = traj.dim
    xs = states[0].tolist()

    limit = config.divergence_limit
    band = config.zero_band
    hook_band = band is None and gain_hook is not None
    if band is None:
        band = 0.0
    for k in range(n_steps):
        t = k * h
        x = rows[k]
        dx = rhs(t, x, traj)
        if type(dx) is not list or len(dx) != n:
            dx = _floats(dx, n)
        x_new = [a + h * b for a, b in zip(xs, dx)]

        if hook_band:
            band = gain_hook.sign_gain * h
        if band > 0.0 and _band_hits(xs, x_new, band):
            x_new = _project_zero_band(x, np.array(x_new), band).tolist()

        for v in x_new:  # NaN and +-inf fail the comparison as well
            if not abs(v) <= limit:
                raise DivergenceError(t + h)

        if gain_hook is not None:
            gain_hook.step(t, x, traj)
            all_gains[k + 1] = gain_hook.gains
        states[k + 1] = x_new
        traj._filled = k + 1
        xs = x_new
    return traj


def delayed_linear_rhs(c1: float, c2: float, profile: DelayProfile,
                       control: Optional[Callable[[float, list], Sequence[float]]] = None):
    """Right-hand side p' = c1*p + c2*p(t - Pi(t)) + u(t, p), returned as a
    list of floats.  `control` gets the state as a list of floats and may
    return an array or a list of floats (broadcast like an rhs result).

    The rhs is evaluated at the trajectory's current step, t = traj.current_time,
    which is where `integrate` calls it.  The delayed state is that step's row
    of `traj.plan` when the plan is for `profile` itself, and of a DelayPlan
    of `profile` on the trajectory's grid otherwise (a trajectory without a
    plan, or one integrated with another profile object).
    """
    seen = scaled = None  # c2 times the delayed values, a row per step

    def rhs(t, p, traj):
        nonlocal seen, scaled
        if traj is not seen:
            seen, plan = traj, traj.plan
            if plan is None or plan.profile is not profile:
                plan = DelayPlan(profile, traj.t0, traj.h)
            cols = diag_cols(profile.n_components, traj.dim)
            # bound as defaults: a closure over traj and cols costs rhs two cells a call
            scaled = BlockRows(plan, lambda blk, traj=traj, cols=cols: (
                c2 * blk.values(traj, cols).reshape(blk.stop - blk.start, -1)).tolist())
        d = scaled.row(traj._filled)
        ps = p.tolist()
        if control is None:
            return [c1 * a + b for a, b in zip(ps, d)]
        u = control(t, ps)
        if type(u) is not list or len(u) != len(ps):
            u = _floats(u, len(ps))
        return [c1 * a + b + c for a, b, c in zip(ps, d, u)]

    return rhs
