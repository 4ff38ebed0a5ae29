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
from typing import Dict, Optional

import numpy as np

from .delays import DelayProfile, RateFunction
from .integrate import (HistoryTrajectory, RunningWindowSup, norm1, norm_inf,
                        sq_norm2)

MODE_ABOVE_ONE = "above_one"
MODE_IN_UNIT_BALL = "in_unit_ball"
MODE_AT_ORIGIN = "at_origin"

_NORM_FUNCS = {"two": sq_norm2, "one": norm1, "inf": norm_inf}
_NORM_SQUARED = {"two": True, "one": False, "inf": False}


@dataclass
class StaticScalarGains:
    """Gains of p' = c1 p + c2 p(t-Pi) - diag(sgn p)(c3 1 + c4 |p|)."""

    c1: float
    c2: float
    c3: float
    c4: float

    def __post_init__(self):
        if self.c3 < 0.0 or self.c4 < 0.0:
            raise ValueError("control gains c3, c4 must be >= 0")


def static_scalar_control(p: np.ndarray, gains: StaticScalarGains) -> np.ndarray:
    """Componentwise -sgn(p_i)(c3 + c4 |p_i|); zero where p_i = 0."""
    p = np.asarray(p, dtype=float)
    return -np.sign(p) * (gains.c3 + gains.c4 * np.abs(p))


@dataclass
class AdaptiveGainState:
    """Time-varying gains plus the window-sup switching mode."""

    gains: Dict[str, float]
    d1: float
    d2: float
    d3: float
    mode: str = MODE_ABOVE_ONE

    def __post_init__(self):
        if min(self.d1, self.d2, self.d3) <= 0.0:
            raise ValueError("adaptive rates d1, d2, d3 must be positive")


def _switch_mode(wsup: float, zero_threshold: float) -> str:
    if wsup <= zero_threshold:
        return MODE_AT_ORIGIN
    if wsup > 1.0:
        return MODE_ABOVE_ONE
    return MODE_IN_UNIT_BALL


def scalar_gain_rates(p: np.ndarray, mu_t: float, wsup: float,
                      d1: float, d2: float, d3: float, norm: str = "two",
                      zero_tol: float = 1e-9):
    """(dc3/dt, dc4/dt, mode) for the scalar adaptive rules.

    The switching functional is p^T p for the 2-norm variant and the plain
    norm for the 1-/inf-norm variants; the boundary sup == 1 belongs to the
    unit-ball branch.
    """
    func = _NORM_FUNCS[norm]
    zero_threshold = zero_tol ** 2 if _NORM_SQUARED[norm] else zero_tol
    mode = _switch_mode(wsup, zero_threshold)
    if mode == MODE_AT_ORIGIN:
        return 0.0, 0.0, mode
    value = func(p)
    if mode == MODE_ABOVE_ONE:
        return 0.0, d2 * mu_t * value, mode
    p_norm = math.sqrt(value) if _NORM_SQUARED[norm] else value
    return d1, d3 * p_norm, mode


def network_gain_rates(sum_sq: float, mu_t: float, wsup: float,
                       d1: float, d2: float, d3: float,
                       zero_tol: float = 1e-9):
    """(d(linear gain)/dt, d(theta3)/dt, mode) for the network rules.

    The switching functional is sum_i e_i^T e_i; the "linear" gain is theta1
    in the coupling-adaptation variant and theta4 in the node-feedback
    variant, both following the same rule shape.
    """
    mode = _switch_mode(wsup, zero_tol ** 2)
    if mode == MODE_AT_ORIGIN:
        return 0.0, 0.0, mode
    if mode == MODE_ABOVE_ONE:
        return d1 * mu_t * sum_sq, 0.0, mode
    return d2 * math.sqrt(sum_sq), d3, mode


@dataclass
class NetworkControlSpec:
    """Network controller: single-node pinning or full per-node feedback."""

    kind: str  # "pinning" | "full"
    theta3: float = 0.0
    theta4: float = 0.0  # full-node only
    sigma: float = 1.0  # pinning strength on node 1

    def __post_init__(self):
        if self.kind not in ("pinning", "full", "none"):
            raise ValueError(f"unknown control kind {self.kind!r}")
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


class ScalarAdaptiveHook:
    """Per-step gain updater for the scalar adaptive rules.

    Owns (c3, c4), tracks the switching window sup incrementally and exposes
    the protocol `integrate` expects (names / gains / sign_gain / step).
    """

    names = ("c3", "c4")

    def __init__(self, d1: float, d2: float, d3: float, rate: RateFunction,
                 profile: DelayProfile, norm: str = "two", zero_tol: float = 1e-9,
                 c3: float = 0.0, c4: float = 0.0):
        self.state = AdaptiveGainState(gains={"c3": c3, "c4": c4},
                                       d1=d1, d2=d2, d3=d3)
        self.rate = rate
        self.profile = profile
        self.norm = norm
        self.zero_tol = zero_tol
        self._functional = _NORM_FUNCS[norm]
        self._tracker: Optional[RunningWindowSup] = None

    @property
    def gains(self) -> np.ndarray:
        return np.array([self.state.gains["c3"], self.state.gains["c4"]])

    @property
    def sign_gain(self) -> float:
        return self.state.gains["c3"]

    def control(self, t, p):
        g = self.state.gains
        return -np.sign(p) * (g["c3"] + g["c4"] * np.abs(p))

    def step(self, t: float, x: np.ndarray, traj: HistoryTrajectory):
        if self._tracker is None:
            self._tracker = RunningWindowSup(traj.t0, traj.h, self.profile)
        k = len(self._tracker.values)
        self._tracker.push(self._functional(x))
        wsup = self._tracker.sup(k)
        dc3, dc4, mode = scalar_gain_rates(x, self.rate.mu(t), wsup,
                                           self.state.d1, self.state.d2,
                                           self.state.d3, norm=self.norm,
                                           zero_tol=self.zero_tol)
        self.state.gains["c3"] += traj.h * dc3
        self.state.gains["c4"] += traj.h * dc4
        self.state.mode = mode


class NetworkAdaptiveHook:
    """Per-step gain updater for the adaptive network rules."""

    def __init__(self, d1: float, d2: float, d3: float, rate: RateFunction,
                 profile: DelayProfile, variant: str = "theta3_theta4",
                 zero_tol: float = 1e-9):
        if variant not in ("theta1_theta3", "theta3_theta4"):
            raise ValueError(f"unknown adaptive variant {variant!r}")
        self.variant = variant
        self.lin_name = "theta1" if variant == "theta1_theta3" else "theta4"
        self.names = (self.lin_name, "theta3")
        self.state = AdaptiveGainState(gains={self.lin_name: 0.0, "theta3": 0.0},
                                       d1=d1, d2=d2, d3=d3)
        self.rate = rate
        self.profile = profile
        self.zero_tol = zero_tol
        self._tracker: Optional[RunningWindowSup] = None

    @property
    def gains(self) -> np.ndarray:
        return np.array([self.state.gains[self.lin_name], self.state.gains["theta3"]])

    @property
    def sign_gain(self) -> float:
        return self.state.gains["theta3"]

    def step(self, t: float, x: np.ndarray, traj: HistoryTrajectory):
        if self._tracker is None:
            self._tracker = RunningWindowSup(traj.t0, traj.h, self.profile)
        k = len(self._tracker.values)
        sum_sq = sq_norm2(x)
        self._tracker.push(sum_sq)
        wsup = self._tracker.sup(k)
        d_lin, d_th3, mode = network_gain_rates(sum_sq, self.rate.mu(t), wsup,
                                                self.state.d1, self.state.d2,
                                                self.state.d3, zero_tol=self.zero_tol)
        self.state.gains[self.lin_name] += traj.h * d_lin
        self.state.gains["theta3"] += traj.h * d_th3
        self.state.mode = mode
