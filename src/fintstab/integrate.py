"""Fixed-step DDE integration with a dense history buffer.

The integrator stores every accepted step (unbounded delays need the whole
history) and resolves delayed states by linear interpolation.  Every lookup
goes through one rule, `grid_rows`, and one formula,
`HistoryTrajectory._lookup`; on the fixed grid the delayed times of step k
depend only on k, so `DelayedRows`, which each delayed reader builds for
itself, computes them block by block (`delay_rows`) and turns each block into
per-step rows once, and both window sups read the envelope's rows from
`envelope_rows`.
Discontinuous sign feedback is handled by a zero-band projection: a
component whose sign flipped during a step and whose magnitude stayed inside
the one-step sliding band is set to exactly 0, emulating the ideal sliding
mode.
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
    zero_band: Optional[float] = None  # None: the hook's sign gain * h, no band without one
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
        if self.zero_band is not None and not 0.0 <= self.zero_band < math.inf:
            raise ValueError(f"zero_band must be finite and >= 0, got {self.zero_band}")
        if not 0.0 < self.zero_tol < math.inf:
            raise ValueError(f"zero_tol must be finite and > 0, got {self.zero_tol}")
        if not self.divergence_limit > 0.0:   # +inf: no limit
            raise ValueError(f"divergence_limit must be > 0, finite or inf, "
                             f"got {self.divergence_limit}")


def grid_rows(times, t0: float, h: float, last):
    """Lower row, upper row and upper weight of query times on the grid t0 + k*h.

    The single lookup rule of the package: the value at t is
    (1 - w)*x[lo] + w*x[hi] over rows 0..last.  A time within _GRID_SNAP*h of
    a grid point snaps to it (lo = hi, w = 0).  A time before t0 gives
    lo = hi = 0, w = 0: row 0, the constant extension of the initial state,
    is the pre-history.  A time past row `last` raises HistoryWindowError.
    `last` may be an array broadcast against `times`.
    """
    times = np.asarray(times, dtype=float)
    u = (times - t0) / h
    ahead = u > last + _GRID_SNAP
    if ahead.any():
        i = int(np.argmax(ahead))
        row = np.broadcast_to(last, ahead.shape).flat[i]
        raise HistoryWindowError(f"query at t={times.flat[i]:.6g} beyond recorded "
                                 f"history (current time {t0 + row * h:.6g})")
    lo = np.clip(np.floor(u), 0.0, last)
    frac = u - lo
    up = (frac > 1.0 - _GRID_SNAP) & (lo < last)
    snap = up | (frac < _GRID_SNAP)
    lo += up
    hi = np.where(snap, lo, np.minimum(lo + 1.0, last))
    w = np.where(snap, 0.0, frac)
    return lo.astype(np.intp), hi.astype(np.intp), w


PLAN_BLOCK = 256  # grid steps per filled block; 512 raised peak RSS with no speed gain


class DelayedRows:
    """Step k's row of a per-step quantity read at the delayed times t_k -
    pi_p(t_k) of `profile`'s components on the grid t0 + k*h.

    `row(k)` off the cached block cuts the block starting at k and calls
    `make(lo, hi, w)` once on its grid rows (`delay_rows`), for that block's
    list of rows.  Rows are filled in aligned runs of PLAN_BLOCK steps, so
    memory stays O(PLAN_BLOCK * components).  A block ends at its run's end or before its
    first row that reads past row k (any/argmax: in floats nothing proves
    the reach monotone), so it reads only rows recorded at its first step,
    bitwise as if each row were built at its own step.  A method, not
    `__call__`, which costs twice as much.
    """

    def __init__(self, profile: DelayProfile, t0: float, h: float,
                 make: Callable[[np.ndarray, np.ndarray, np.ndarray], list]):
        self.profile, self.t0, self.h, self.make = profile, float(t0), float(h), make
        self.start, self.rows = 0, []
        self._run = None  # (start, lo, hi, w, reach): reach[r] is row r's highest read

    def row(self, k: int):
        r = k - self.start
        if not 0 <= r < len(self.rows):
            self.start, self.rows, r = k, self.make(*self._cut(k)), 0
        return self.rows[r]

    def _cut(self, k: int) -> tuple:
        """(lo, hi, w) of the block starting at step k."""
        run = self._run
        if run is None or not run[0] <= k < run[0] + PLAN_BLOCK:
            start = k - k % PLAN_BLOCK
            lo, hi, w = delay_rows(self.profile, self.t0, self.h, start, start + PLAN_BLOCK)
            run = self._run = (start, lo, hi, w, hi.max(axis=1))
        start, lo, hi, w, reach = run
        i = k - start
        ahead = reach[i:] > k
        j = i + int(ahead.argmax()) if ahead.any() else PLAN_BLOCK
        return lo[i:j], hi[i:j], w[i:j]


def delay_rows(profile: DelayProfile, t0: float, h: float, start: int, stop: int):
    """grid_rows of the delayed times t_k - pi_p(t_k) of `profile`'s components
    for steps start..stop-1, each (steps, components) and looked up with last
    row k: no row reads past its step."""
    ks = np.arange(start, stop)
    ts = t0 + ks * h
    return grid_rows(ts[:, None] - profile.delay_table(ts), t0, h, ks[:, None])


def envelope_rows(profile: DelayProfile, t0: float, h: float, start: int, stop: int):
    """1-d grid_rows of the envelope's delayed times t_k - pi(t_k) for steps
    start..stop-1, each looked up with last row k: no row reads past its step."""
    ks = np.arange(start, stop)
    ts = t0 + ks * h
    return grid_rows(ts - profile.envelope(ts), t0, h, ks)


def diag_cols(n_components: int, dim: int) -> np.ndarray:
    """Columns for component i reading state component i (shared delay: all)."""
    if n_components == 1:
        return np.arange(dim)[None, :]
    if n_components != dim:
        raise ValueError(f"{n_components} delay components for a {dim}-dim state")
    return np.arange(dim)[:, None]


class HistoryTrajectory:
    """Dense grid record of a state trajectory and its gains, with linear
    interpolation.

    A query at t < t0 reads row 0, the constant extension of the initial
    state, which is how constant-delay problems resolve pre-history lookups.
    A delayed reader builds its own DelayedRows on the trajectory's grid.
    """

    def __init__(self, t0: float, h: float, initial_state, capacity: int,
                 gain_names: Optional[Sequence[str]] = None):
        x0 = np.atleast_1d(np.asarray(initial_state, dtype=float))
        self.t0 = float(t0)
        self.h = float(h)
        self.dim = x0.size
        self._states = np.empty((capacity + 1, self.dim))
        self._states[0] = x0
        self._flat = self._states.reshape(-1)
        self._filled = 0
        self.gain_names = tuple(gain_names) if gain_names else ()
        self._gains = (np.empty((capacity + 1, len(self.gain_names)))
                       if self.gain_names else None)

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

    # -- interpolation -----------------------------------------------------

    def _lookup(self, lo, hi, w, cols) -> np.ndarray:
        """State columns from their grid rows (lo, hi, w), all of one shape
        whose last axis runs over the rows of cols (or broadcasts against
        them): (1 - w)*x[lo] + w*x[hi] over cols, shape (..., rows of cols,
        columns per row)."""
        wh = w[..., None]
        flat = self._flat
        return ((1.0 - wh) * flat[lo[..., None] * self.dim + cols]
                + wh * flat[hi[..., None] * self.dim + cols])

    def query(self, t: float) -> np.ndarray:
        """The state at time t <= current_time: `query_diag` of one time."""
        return self.query_diag(t)

    def query_diag(self, times: np.ndarray) -> np.ndarray:
        """Component i of the state at its own delayed time times[i]; one
        time reads every component."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        lo, hi, w = grid_rows(times, self.t0, self.h, self._filled)
        return self._lookup(lo, hi, w, diag_cols(times.size, self.dim)).ravel()


# -- windowed suprema ------------------------------------------------------

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
    interpolant at t - pi(t), read from `envelope_rows` one aligned run of
    PLAN_BLOCK rows at a time, whatever the delay; values before
    t0 take the series value at t0 (constant pre-history).  The pushed values
    are kept as C doubles, 8 bytes a step: an unbounded delay's window may
    reach back to any of them.
    """

    def __init__(self, t0: float, h: float, profile: DelayProfile):
        self.values = array("d")
        self._dq: deque = deque()  # indices, values strictly decreasing
        self._grid = (profile, float(t0), float(h))
        self._start, self._rows = 0, []   # the cached run's (lo, hi, 1 - w, w) rows

    def push(self, value: float):
        k = len(self.values)
        self.values.append(value)
        while self._dq and self.values[self._dq[-1]] <= value:
            self._dq.pop()
        self._dq.append(k)

    def sup(self, k: int) -> float:
        """Window sup at grid time t0 + k*h; values[0..k] must be pushed."""
        r = k - self._start
        if not 0 <= r < len(self._rows):
            self._start = start = k - k % PLAN_BLOCK
            lo, hi, w = envelope_rows(*self._grid, start, start + PLAN_BLOCK)
            self._rows = list(zip(lo.tolist(), hi.tolist(), (1.0 - w).tolist(), w.tolist()))
            r = k - start
        lo, hi, wl, wh = self._rows[r]
        # hi is the first grid point at or after the window's left end
        while self._dq and self._dq[0] < hi:
            self._dq.popleft()
        best = self.values[self._dq[0]] if self._dq else -math.inf
        return max(best, wl * self.values[lo] + wh * self.values[hi])


ROW_CHUNK = 4096  # rows a whole-series pass takes at a time: its temporaries stay this size


def row_chunks(n: int) -> list:
    """Slices of ROW_CHUNK rows (read at call time) that cover rows 0..n-1 in order."""
    return [slice(s, min(s + ROW_CHUNK, n)) for s in range(0, n, ROW_CHUNK)]


def window_sups(values, t0: float, h: float, profile: DelayProfile) -> np.ndarray:
    """`RunningWindowSup.sup(k)` for every k of a recorded series, bitwise, in
    O(n log n) NumPy work and O(n) memory.

    The envelope rows come from `envelope_rows` in runs of ROW_CHUNK steps:
    offline every value is known, so no complete blocks are cut.  The
    deque's window is [H_k, k] with H_k the running max of the rows' hi; its
    max is the larger of two power-of-two ranges of a sparse table (Bender &
    Farach-Colton, LATIN 2000), built one level at a time and queried by the
    windows of that level.  The deque keeps the last of
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
    left = np.empty(n, dtype=np.intp)   # hi, then H_k
    bound = np.empty(n)                 # the left boundary's interpolant
    for rows in row_chunks(n):
        lo, hi, w = envelope_rows(profile, t0, h, rows.start, rows.stop)
        bound[rows] = (1.0 - w) * v[lo] + w * v[hi]
        left[rows] = hi
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


def _first_read(k: int, slope: float, lag_steps: float) -> int:
    """floor((t_k - pi(t_k))/h) - 1 for the affine envelope pi(t) = q*t + lag
    (slope = 1 - q, lag_steps = lag/h): no step after k, nor the envelope
    window of one, reads a history row below it.  The -1 absorbs the
    rounding that separates this from the grid rows' own floor."""
    return math.floor(slope * k - lag_steps) - 1


def _next_rest_step(m: int, slope: float, lag_steps: float) -> int:
    """The first step j with _first_read(j - 1) > m: from there on no step
    reads row m, so a rest test before j would find it again."""
    return 1 + math.ceil((m + 2 + lag_steps) / slope)


def _rest_blocker(states: np.ndarray, gains: Optional[np.ndarray], k: int, first: int):
    """The last row of first..k that keeps a run from resting at step k, or
    None: row k when one of its components is -0.0 or its gains differ from
    row k-1's, else the last row with a nonzero (or NaN) component."""
    if np.signbit(states[k]).any() or (gains is not None
                                       and not (gains[k] == gains[k - 1]).all()):
        return k
    moving = np.flatnonzero(states[first:k + 1].any(axis=1))
    return first + int(moving[-1]) if moving.size else None


def _cross_sliding(at_rest, traj: HistoryTrajectory, k: int, j: int, band: float) -> int:
    """Take steps k..j-1 of a static run whose state at step k is +0.0 as
    array passes of ROW_CHUNK steps, and return the first step not taken:
    the first one the zero band does not catch, or j.  traj._filled is set
    to it.

    A caught step records +0.0, so a pass writes zeros into its rows after
    its first before `at_rest` reads them; rows after the first uncaught step
    are past traj._filled and rewritten by the steps that follow.  Step i's
    new state is 0.0 + h*v_i from its zero-state values v_i.  It is caught
    when every component satisfies |x| <= band (a NaN or inf is not), and
    the caught steps of a pass are zeroed by one `_project_zero_band` call
    from zeros, so its hits are counted as stepping counts them.
    """
    states, n, h = traj._states, traj.dim, traj.h
    for start in range(k, j, ROW_CHUNK):
        stop = min(start + ROW_CHUNK, j)
        states[start + 1:stop + 1] = 0.0
        x_new = 0.0 + h * at_rest(start, stop, traj)
        caught = (np.abs(x_new) <= band).all(axis=1)
        u = stop - start if caught.all() else int(caught.argmin())
        if u:
            states[start + 1:start + u + 1] = _project_zero_band(
                np.zeros(u * n), x_new[:u].ravel(), band).reshape(u, n)
        traj._filled = start + u
        if start + u < stop:
            return start + u
    return j


def integrate(rhs, initial_state, profile: DelayProfile, config: IntegratorConfig,
              gain_hook=None, at_rest=None) -> HistoryTrajectory:
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
    the current step start, and reads row 0 before t = 0.  The step k call
    sees traj._filled == k, so it can read row k of its own DelayedRows on
    traj's grid; `integrate` reads `profile` only for the rest rule below.
    `gain_hook`, when given, is an object with attributes `names`, `gains`
    (one value per name), `sign_gain` and a method `step(t, x, traj)`; it is
    invoked once per accepted step, after the rhs and with the same `x`, and
    its gains are recorded alongside the states.

    `at_rest`, when given, is the rhs's zero-state values:
    `at_rest(start, stop, traj)` returns a (stop - start, dim) array v such
    that at a +0.0 state, with the rows up to each step as `traj` holds them,
    the rhs of step i returns v[i - start] plus a +-0.0 per component
    (`delayed_linear_rhs` under the sign law supplies it).  Passing it also
    promises that `rhs` returns exact zeros whenever the state and every
    history row it reads are exactly zero, that it reads no earlier than
    t - pi(t) of `profile`'s envelope, and that the hook's gains do not move
    while its window holds only zeros (the scalar sign law, static or
    adaptive, keeps it).  It is an argument, not read off `rhs`, so a
    wrapped rhs keeps it.  The default None steps every step.

    The rest rule.  Every envelope is affine, so t - pi(t) never decreases,
    and once the state at step k is +0.0, every row from
    `_first_read(k - 1)` to k is exactly zero and the gains of step k equal
    those of step k - 1, every later step would compute +0.0 from zeros: the
    run is at rest.  The loop then fills rows k+1..n_steps with zeros and
    the gains of step k, sets `_filled = n_steps` and returns, bitwise equal
    to stepping on.  The skipped steps call neither `rhs` nor the hook, so
    the hook's window is not advanced past step k - 1 and the hook keeps the
    mode of that step (at the origin).  The test costs one integer compare
    a step, and a truth test of the state's floats from `rest_at` on: rows
    are scanned with NumPy only at a zero state from `rest_at`, the first
    step that reads none of the last blocking row found
    (`_next_rest_step`), so a proportional delay scans O(log n) times and a
    moving state never.

    The sliding tail.  A static run (no hook, a fixed band > 0) whose state
    is +0.0 at a scan that finds a blocking row is in sliding mode: the
    delayed term still reads the moving past, and the band zeroes each step.
    It takes the steps up to the next scan, `rest_at` (or n_steps), as array
    passes (`_cross_sliding`) and steps on one step at a time from the
    first step the band does not catch, which the loop recomputes.  This is
    bitwise equal to stepping: at +0.0 the rhs's c1*0.0 and sign-law terms
    are +-0.0, which leave a nonzero delayed value d unchanged, so the step
    computes 0.0 + h*d as the pass does, and a zero d of either sign gives
    +0.0 both ways.  A caught step's band hits are its nonzero components
    either way.  A -0.0 component never takes the pass: -0.0 + h*(-0.0) is
    -0.0.
    """
    x0 = np.atleast_1d(np.asarray(initial_state, dtype=float))
    h, n_steps = config.h, config.n_steps
    gain_names = gain_hook.names if gain_hook is not None else None
    traj = HistoryTrajectory(0.0, h, x0, n_steps, gain_names=gain_names)
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
    rest_at = n_steps   # the next step that may find the run at rest; n_steps: none
    if at_rest is not None:
        slope, lag_steps = 1.0 - profile.q, profile.lag / h
        rest_at = 1
    slides = at_rest is not None and gain_hook is None and band > 0.0
    k = 0
    while k < n_steps:
        if k >= rest_at and not any(xs):
            first = _first_read(k - 1, slope, lag_steps)
            m = _rest_blocker(states, all_gains, k, max(first, 0))
            if m is None:
                states[k + 1:] = 0.0
                if all_gains is not None:
                    all_gains[k + 1:] = all_gains[k]
                traj._filled = n_steps
                return traj
            rest_at = max(_next_rest_step(m, slope, lag_steps), k + 1)
            if slides and not np.signbit(states[k]).any():
                k = _cross_sliding(at_rest, traj, k, min(rest_at, n_steps), band)
                continue   # xs stays all +0.0: every step taken recorded zeros
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
        k += 1
    return traj


def delayed_linear_rhs(c1: float, c2: float, profile: DelayProfile,
                       control: Optional[Callable[[float, list], Sequence[float]]] = None):
    """Right-hand side p' = c1*p + c2*p(t - Pi(t)) + u(t, p), returned as a
    list of floats.  `control` gets the state as a list of floats and may
    return an array or a list of floats (broadcast like an rhs result).

    The rhs is evaluated at the trajectory's current step, t = traj.current_time,
    which is where `integrate` calls it.  The delayed state is that step's row
    of `DelayedRows` of `profile` on the trajectory's grid, built the first
    time the rhs sees the trajectory, whatever profile it is integrated under.

    `rhs.at_rest(start, stop, traj)` is c2 times the delayed values of steps
    start..stop-1, one row per step, looked up by `delay_rows` with each
    step's rows up to its own, as `DelayedRows` cuts them: the rhs at a +0.0
    state, up to the +-0.0 of c1*0.0 and of a control that returns +-0.0
    there, as the sign law does.  It is `integrate`'s `at_rest` for such a
    control.
    """
    seen = scaled = None  # c2 times the delayed values, a row per step

    def delayed(lo, hi, w, traj, cols):
        return c2 * traj._lookup(lo, hi, w, cols).reshape(len(lo), -1)

    def rhs(t, p, traj):
        nonlocal seen, scaled
        if traj is not seen:
            seen, cols = traj, diag_cols(profile.n_components, traj.dim)

            # bound as defaults: a closure over traj and cols costs rhs two cells a call
            def make(lo, hi, w, traj=traj, cols=cols):
                return delayed(lo, hi, w, traj, cols).tolist()

            scaled = DelayedRows(profile, traj.t0, traj.h, make)
        d = scaled.row(traj._filled)
        ps = p.tolist()
        if control is None:
            return [c1 * a + b for a, b in zip(ps, d)]
        u = control(t, ps)
        if type(u) is not list or len(u) != len(ps):
            u = _floats(u, len(ps))
        return [c1 * a + b + c for a, b, c in zip(ps, d, u)]

    def at_rest(start, stop, traj):
        return delayed(*delay_rows(profile, traj.t0, traj.h, start, stop), traj,
                       diag_cols(profile.n_components, traj.dim))

    rhs.at_rest = at_rest
    return rhs
