"""Delay profiles and rate functions for delayed-system analysis.

A delay profile describes per-component lags pi_i(t) together with a common
envelope pi(t) >= pi_i(t).  A rate function mu(t) is the nondecreasing weight
whose asymptotic constants

    beta = limsup mu'(t)/mu(t),   1 + eta = limsup mu(t)/mu(t - pi(t))

enter every stability condition.  Closed-form (beta, eta) are provided for the
two families with known analytic limits: power-law mu with proportional
delays, and exponential mu with constant delays.  Any other pairing must be
supplied with (beta, eta) by the caller.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


class NoClosedFormError(ValueError):
    """Raised when no analytic (beta, eta) exists for a (rate, profile) pair."""


@dataclass(frozen=True)
class DelayProfile:
    """Family of component delays pi_i(t) bounded by an envelope pi(t).

    ``envelope_kind`` is one of "proportional" (pi(t) = q*t), "constant"
    (pi(t) = pi) or "custom"; closed-form asymptotics exist only for the
    first two.
    """

    kind: str
    envelope_kind: str
    envelope_param: Optional[float]
    n_components: int = 1
    # per-component proportional coefficients, pi_i(t) = coefficients[i] * t
    coefficients: Optional[np.ndarray] = None
    _envelope_fn: Optional[Callable[[float], float]] = field(default=None, repr=False)
    _component_fn: Optional[Callable[[int, float], float]] = field(default=None, repr=False)

    # -- constructors ------------------------------------------------------

    @classmethod
    def proportional(cls, q: float, n_components: int = 1) -> "DelayProfile":
        """pi_i(t) = q*t for every component, 0 < q < 1."""
        if not 0.0 < q < 1.0:
            raise ValueError(f"proportional ratio must lie in (0,1), got {q}")
        return cls(kind="proportional", envelope_kind="proportional",
                   envelope_param=q, n_components=n_components)

    @classmethod
    def constant(cls, pi_value: float, n_components: int = 1) -> "DelayProfile":
        """pi_i(t) = pi for every component, pi >= 0."""
        if pi_value < 0.0:
            raise ValueError(f"constant delay must be >= 0, got {pi_value}")
        return cls(kind="constant", envelope_kind="constant",
                   envelope_param=pi_value, n_components=n_components)

    @classmethod
    def per_component_proportional(cls, coefficients,
                                   envelope_q: Optional[float] = None) -> "DelayProfile":
        """pi_i(t) = c_i * t with 0 <= c_i <= envelope_q < 1."""
        coeffs = np.asarray(coefficients, dtype=float)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("coefficients must be a non-empty 1-d sequence")
        q = float(coeffs.max()) if envelope_q is None else float(envelope_q)
        if not 0.0 < q < 1.0:
            raise ValueError(f"envelope ratio must lie in (0,1), got {q}")
        if coeffs.min() < 0.0 or coeffs.max() > q:
            raise ValueError("component coefficients must lie in [0, envelope_q]")
        return cls(kind="per_component", envelope_kind="proportional",
                   envelope_param=q, n_components=coeffs.size, coefficients=coeffs)

    @classmethod
    def pairwise_sin(cls, n_nodes: int, base: float = 0.5,
                     depth: float = 0.1, envelope_q: float = 0.5) -> "DelayProfile":
        """Pair-indexed family pi_ij(t) = base*(1 - depth*|sin(i+2j)|)*t.

        Indices i, j run 1..n_nodes; pair (i, j) maps to flat component
        (i-1)*n_nodes + (j-1).
        """
        coeffs = np.empty(n_nodes * n_nodes)
        for i in range(1, n_nodes + 1):
            for j in range(1, n_nodes + 1):
                coeffs[(i - 1) * n_nodes + (j - 1)] = base * (1.0 - depth * abs(math.sin(i + 2 * j)))
        return cls.per_component_proportional(coeffs, envelope_q=envelope_q)

    @classmethod
    def custom(cls, envelope: Callable[[float], float],
               component: Optional[Callable[[int, float], float]] = None,
               n_components: int = 1) -> "DelayProfile":
        """Arbitrary callables; simulation only, no closed-form asymptotics."""
        return cls(kind="custom", envelope_kind="custom", envelope_param=None,
                   n_components=n_components, _envelope_fn=envelope,
                   _component_fn=component)

    # -- evaluation --------------------------------------------------------

    def envelope(self, t):
        """Common envelope pi(t); accepts scalars or arrays."""
        if self.envelope_kind == "proportional":
            return self.envelope_param * np.asarray(t, dtype=float) if np.ndim(t) else self.envelope_param * float(t)
        if self.envelope_kind == "constant":
            if np.ndim(t):
                return np.full(np.shape(t), self.envelope_param)
            return self.envelope_param
        return self._envelope_fn(t)

    def delay(self, i: int, t: float) -> float:
        """Component delay pi_i(t)."""
        if t < 0.0:
            raise ValueError(f"delay queried at negative time t={t}")
        if not 0 <= i < self.n_components:
            raise IndexError(f"component index {i} out of range [0, {self.n_components})")
        if self.kind == "proportional":
            return self.envelope_param * t
        if self.kind == "constant":
            return self.envelope_param
        if self.kind == "per_component":
            return float(self.coefficients[i]) * t
        if self._component_fn is not None:
            return self._component_fn(i, t)
        return self.envelope(t)

    def delays_at(self, t: float) -> np.ndarray:
        """All component delays at time t as a vector."""
        return self.delay_table([t])[0]

    def delay_table(self, ts) -> np.ndarray:
        """Component delays at every time in ts, one row per time."""
        ts = np.asarray(ts, dtype=float)
        if ts.size and ts.min() < 0.0:
            raise ValueError(f"delay queried at negative time t={ts.min()}")
        shape = (ts.size, self.n_components)
        if self.kind == "proportional":
            return np.broadcast_to((self.envelope_param * ts)[:, None], shape).copy()
        if self.kind == "constant":
            return np.full(shape, self.envelope_param)
        if self.kind == "per_component":
            return ts[:, None] * self.coefficients
        return np.array([[self.delay(i, t) for i in range(self.n_components)]
                         for t in ts]).reshape(shape)


@dataclass(frozen=True)
class RateFunction:
    """Nondecreasing weight mu(t), either t**rho or exp(varpi*t)."""

    kind: str  # "power" | "exponential"
    param: float

    @classmethod
    def power(cls, rho: float) -> "RateFunction":
        if rho <= 0.0:
            raise ValueError(f"power exponent must be > 0, got {rho}")
        return cls(kind="power", param=rho)

    @classmethod
    def exponential(cls, varpi: float) -> "RateFunction":
        if varpi <= 0.0:
            raise ValueError(f"exponential rate must be > 0, got {varpi}")
        return cls(kind="exponential", param=varpi)

    def mu(self, t):
        # The adaptive hooks pass one Python float per step: skip np.ndim for
        # it, and keep libm pow, since NumPy's SIMD np.power differs from it in
        # the last bit at some grid times (mu filled per block would move gains).
        if type(t) is not float and np.ndim(t):
            return np.power(t, self.param) if self.kind == "power" else np.exp(self.param * np.asarray(t))
        return float(t) ** self.param if self.kind == "power" else math.exp(self.param * t)

    def mu_dot(self, t):
        if self.kind == "power":
            return self.param * np.power(t, self.param - 1.0)
        return self.param * self.mu(t)

    @property
    def default_monitor_start(self) -> float:
        # t**rho vanishes at t=0, so mu-weighted functionals start at t=1
        return 1.0 if self.kind == "power" else 0.0


def asymptotics(rate: RateFunction, profile: DelayProfile) -> tuple:
    """Analytic (beta, eta) for the two compatible (rate, profile) families.

    Power-law mu with a proportional envelope q*t gives beta = 0 and
    1 + eta = (1-q)**(-rho); exponential mu with a constant envelope pi gives
    beta = varpi and 1 + eta = exp(varpi*pi).  Anything else has no closed
    form here and must be handled by the caller.
    """
    if rate.kind == "power" and profile.envelope_kind == "proportional":
        q = profile.envelope_param
        return 0.0, (1.0 - q) ** (-rate.param) - 1.0
    if rate.kind == "exponential" and profile.envelope_kind == "constant":
        pi_value = profile.envelope_param
        return rate.param, math.exp(rate.param * pi_value) - 1.0
    raise NoClosedFormError(
        f"no closed-form asymptotics for rate kind {rate.kind!r} with "
        f"envelope kind {profile.envelope_kind!r}; supply (beta, eta) manually")
