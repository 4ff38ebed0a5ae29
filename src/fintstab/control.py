"""Control laws: static sign feedback, adaptive gain rules, network control.

All adaptive rules share the same three-way switch on the windowed supremum
of a norm functional of the state:

    sup > 1             -> grow the linear gain fast (mu-weighted), sign gain frozen
    0 < sup <= 1        -> grow the sign gain at a constant rate, linear gain slowly
    sup == 0            -> everything frozen (the system has settled)

Gains start at 0 and are advanced by one explicit Euler step per accepted
integrator step, coupled with the state at O(h).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .delays import DelayProfile, RateFunction
from .integrate import HistoryTrajectory, RunningWindowSup, norm1, norm_inf

MODE_ABOVE_ONE = "above_one"
MODE_IN_UNIT_BALL = "in_unit_ball"
MODE_AT_ORIGIN = "at_origin"

# the unsquared switching functionals; `step` computes the squared two-norm itself
_NORM_FUNCS = {"one": norm1, "inf": norm_inf}


def _require_finite(**params: float):
    """ValueError naming the first parameter that is NaN or infinite."""
    for name, v in params.items():
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")


@dataclass
class StaticScalarGains:
    """Gains of p' = c1 p + c2 p(t-Pi) - diag(sgn p)(c3 1 + c4 |p|)."""

    c1: float
    c2: float
    c3: float
    c4: float

    def __post_init__(self):
        _require_finite(c1=self.c1, c2=self.c2, c3=self.c3, c4=self.c4)
        if self.c3 < 0.0 or self.c4 < 0.0:
            raise ValueError("control gains c3, c4 must be >= 0")


def _sgn(v: float) -> float:
    """np.sign of one float: +0.0 at +-0.0 and NaN at NaN.  The float control
    laws take their signs from it, so they are bitwise equal to np.sign."""
    return 1.0 if v > 0.0 else -1.0 if v < 0.0 else 0.0 if v == 0.0 else v


def _sign_law(p, c3: float, c4: float) -> list:
    """[-sgn(v)(c3 + c4 |v|) for v in p] as a list of floats, bitwise equal to
    -np.sign(p) * (c3 + c4 * np.abs(p)): the control at +-0.0 is -0.0, and
    NaN at NaN.  `p` is a list of floats or a 1-d array."""
    if type(p) is not list:
        p = np.asarray(p, dtype=float).tolist()
    return [-_sgn(v) * (c3 + c4 * abs(v)) for v in p]


def static_scalar_control(p, gains: StaticScalarGains) -> list:
    """Componentwise -sgn(p_i)(c3 + c4 |p_i|) by `_sign_law`; -0.0 where p_i = 0."""
    return _sign_law(p, gains.c3, gains.c4)


def gain_rates(value: float, mu: float, wsup: float, rates, squared: bool,
               zero_tol: float = 1e-9):
    """(d(linear gain)/dt, d(sign gain)/dt, mode): the three-way switch.

    `value` is the switching functional at the step (the squared 2-norm when
    `squared`, else the plain 1- or inf-norm), `wsup` its window sup, and
    `rates` = (linear rate above one, linear rate in the ball, sign rate in
    the ball).  The origin's threshold is zero_tol on the norm, so zero_tol**2
    on a squared functional; the boundary sup == 1 belongs to the unit ball.
    """
    if wsup <= (zero_tol ** 2 if squared else zero_tol):
        return 0.0, 0.0, MODE_AT_ORIGIN
    if wsup > 1.0:
        return rates[0] * mu * value, 0.0, MODE_ABOVE_ONE
    return rates[1] * (math.sqrt(value) if squared else value), rates[2], MODE_IN_UNIT_BALL


@dataclass
class NetworkControlSpec:
    """Network controller: single-node pinning, full per-node feedback, or
    none (kind "none": the error system runs uncontrolled)."""

    kind: str  # "pinning" | "full" | "none"
    theta3: float = 0.0
    theta4: float = 0.0  # full-node only
    sigma: float = 1.0  # pinning strength on node 1

    def __post_init__(self):
        if self.kind not in ("pinning", "full", "none"):
            raise ValueError(f"unknown control kind {self.kind!r}")
        _require_finite(theta3=self.theta3, theta4=self.theta4, sigma=self.sigma)
        if self.kind == "pinning" and self.sigma <= 0.0:
            raise ValueError("pinning strength sigma must be > 0")
        if self.theta3 < 0.0 or self.theta4 < 0.0:
            raise ValueError("theta3 and theta4 must be >= 0")


def pinning_control(e: np.ndarray, sigma: float, theta1: float,
                    theta3: float) -> np.ndarray:
    """u_1 = -theta1*sigma*e_1 - theta3*sgn(e_1); u_i = -theta3*sgn(e_i)."""
    e = np.asarray(e, dtype=float)
    u = -theta3 * np.sign(e)
    u[0] = u[0] - theta1 * sigma * e[0]
    return u


def full_node_control(e: np.ndarray, theta3: float, theta4: float) -> np.ndarray:
    """u_i = -theta3*sgn(e_i) - theta4*e_i on every node."""
    e = np.asarray(e, dtype=float)
    return -theta3 * np.sign(e) - theta4 * e


# The network's error system adds its feedback to the rest of the rhs on lists
# of floats.  Each law below is out + u, bitwise equal to out + the array law
# above: the same operations in the same order, with signs from _sgn.

def _add_pinning(out: list, e: list, n: int, sigma: float, theta1: float,
                 theta3: float) -> list:
    """out + pinning_control(e, ...) on flat node-major floats (n per node)."""
    ts = theta1 * sigma
    return [o + (-theta3 * _sgn(v) - ts * v if i < n else -theta3 * _sgn(v))
            for i, (o, v) in enumerate(zip(out, e))]


def _add_full_node(out: list, e: list, theta3: float, theta4: float) -> list:
    """out + full_node_control(e, theta3, theta4) on floats."""
    return [o + (-theta3 * _sgn(v) - theta4 * v) for o, v in zip(out, e)]


class AdaptiveHook:
    """Per-step gain updater: one linear and one sign gain under `gain_rates`.

    Tracks the switching functional's window sup incrementally and exposes
    the protocol `integrate` expects (names / gains / sign_gain / step).
    `gains` is the one list of the gains, Python floats in `names` order:
    `step` updates it in place once per step, the integrator records it, and
    `sign_gain` and the control laws read it.  Gains start at 0.
    """

    def __init__(self, names, lin: int, rates, rate: RateFunction,
                 profile: DelayProfile, norm: str = "two", zero_tol: float = 1e-9):
        if not all(0.0 < r < math.inf for r in rates):
            raise ValueError("adaptive rates d1, d2, d3 must be finite and positive")
        if norm != "two" and norm not in _NORM_FUNCS:
            raise ValueError(f"unknown norm {norm!r}")
        self.names = tuple(names)
        self._lin, self._sign = lin, 1 - lin
        self.rates = tuple(rates)
        self.rate = rate
        self.profile = profile
        self.zero_tol = zero_tol
        self.gains = [0.0, 0.0]
        self.mode = MODE_ABOVE_ONE
        self._functional = _NORM_FUNCS.get(norm)
        self._squared = norm == "two"
        self._tracker: Optional[RunningWindowSup] = None

    @property
    def state(self):
        """The hook itself, so the switch mode reads as `hook.state.mode`."""
        return self

    @property
    def sign_gain(self) -> float:
        return self.gains[self._sign]

    def step(self, t: float, x: np.ndarray, traj: HistoryTrajectory):
        if self._tracker is None:
            self._tracker = RunningWindowSup(traj.t0, traj.h, self.profile)
        k = len(self._tracker.values)
        if x.size == 1:  # v*v and |v| on the float equal the NumPy reductions bitwise
            v = x.item()
            value = v * v if self._squared else abs(v)
        elif self._squared:  # the squared two-norm: one BLAS dot on the 1-d row
            value = float(x.dot(x))
        else:
            value = self._functional(x)
        self._tracker.push(value)
        d_lin, d_sign, self.mode = gain_rates(value, self.rate.mu(t), self._tracker.sup(k),
                                              self.rates, self._squared, self.zero_tol)
        g = self.gains
        g[self._lin] += traj.h * d_lin
        g[self._sign] += traj.h * d_sign


# The subclasses bind `step` in their own bodies: the bench's tracer looks the
# hook methods up in each class's __dict__.

class ScalarAdaptiveHook(AdaptiveHook):
    """Scalar rules on (c3, c4): d1 grows c3 in the unit ball, d2 grows c4
    above one and d3 grows c4 in the ball."""

    step = AdaptiveHook.step

    def __init__(self, d1: float, d2: float, d3: float, rate: RateFunction,
                 profile: DelayProfile, norm: str = "two", zero_tol: float = 1e-9):
        super().__init__(("c3", "c4"), 1, (d2, d3, d1), rate, profile, norm, zero_tol)

    def control(self, t, p) -> list:
        c3, c4 = self.gains
        return _sign_law(p, c3, c4)


class NetworkAdaptiveHook(AdaptiveHook):
    """Network rules on (linear gain, theta3) over sum_i e_i^T e_i: d1 grows
    the linear gain above one, d2 grows it in the ball and d3 grows theta3
    there.  The linear gain is theta1 in the pinning variant theta1_theta3
    and theta4 in the full-node variant theta3_theta4."""

    step = AdaptiveHook.step

    def __init__(self, d1: float, d2: float, d3: float, rate: RateFunction,
                 profile: DelayProfile, variant: str = "theta3_theta4",
                 zero_tol: float = 1e-9):
        if variant not in ("theta1_theta3", "theta3_theta4"):
            raise ValueError(f"unknown adaptive variant {variant!r}")
        self.variant = variant
        lin_name = "theta1" if variant == "theta1_theta3" else "theta4"
        super().__init__((lin_name, "theta3"), 0, (d1, d2, d3), rate, profile,
                         zero_tol=zero_tol)
