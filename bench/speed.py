"""CPU-speed sampling for timed regions on a machine whose speed drifts.

On a shared machine one CPU can run the same Python code at half speed for
seconds or minutes at a time, depending on what else the host runs; CPU time
drifts with wall time, so neither can be compared across runs.  `Probe`
measures the speed of the CPU the process is running on while the timed code
runs: an interval timer interrupts the process every PERIOD_S, and the
handler times a fixed pure-Python reference loop (no imports, so sampling can
start before numpy is imported).  Each interval between samples is divided by
the reference sample that ends it, and the sum times NOMINAL_S is the lap's
time at a fixed reference speed.  Dividing interval by interval, rather than
the whole lap by the mean sample, follows speed changes within a lap.  The
reference loop runs no fintstab code, so a change to the package moves only
the measured intervals.
"""
from __future__ import annotations

import signal
from time import perf_counter

PERIOD_S = 0.02
REF_ITERS = 1000
# about one reference sample on an unloaded 2-core Intel Xeon VM with
# CPython 3.11; it only fixes the unit of normalised times
NOMINAL_S = 3.5e-4


class _Gain:
    c3 = 2.1
    c4 = 3.5


def _reference_loop():
    """A fixed mix of float arithmetic, calls, attribute and container access."""
    g = _Gain()
    p, buf, seen = 1.5, [], {}
    for k in range(REF_ITERS):
        u = -(1.0 if p > 0.0 else -1.0) * (g.c3 + g.c4 * abs(p))
        p = 0.999 * p + 1e-3 * u
        buf.append(p)
        seen[k & 7] = p
        if len(buf) > 16:
            buf.pop(0)
    return p


class Lap:
    def __init__(self, wall: float, ref: float, normalized: float):
        self.wall = wall              # raw seconds, sampling included
        self.ref = ref                # mean reference sample during the lap
        self.normalized = normalized  # seconds of own work at reference speed


class Probe:
    """Samples reference speed from start() to stop(); lap() splits the record."""

    def __init__(self):
        self._last_ref = None
        self._previous = None
        self._reset()

    def _reset(self):
        self._t = self._mark = perf_counter()
        self._spent = 0.0
        self._units = 0.0     # sum of interval / reference sample
        self._n = 0

    def _handler(self, signum, frame):
        t = perf_counter()
        _reference_loop()
        end = perf_counter()
        ref = end - t
        self._units += (t - self._mark) / ref
        self._spent += ref
        self._n += 1
        self._last_ref = ref
        self._mark = end

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        self._reset()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def lap(self) -> Lap:
        """The record since the previous lap (or start); the tail after the
        last sample is divided by that sample, or by a fresh one if none."""
        now = perf_counter()
        if self._last_ref is None:
            _reference_loop()
            t = perf_counter()
            _reference_loop()
            self._last_ref = perf_counter() - t
        units = self._units + (now - self._mark) / self._last_ref
        ref = self._spent / self._n if self._n else self._last_ref
        lap = Lap(now - self._t, ref, units * NOMINAL_S)
        self._reset()
        return lap
