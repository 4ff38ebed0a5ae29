"""Delay profiles and rate functions for delayed-system analysis.

A delay profile describes per-component lags pi_i(t) together with a common
envelope pi(t) >= pi_i(t).  A rate function mu(t) is the nondecreasing weight
whose asymptotic constants

    beta = limsup mu'(t)/mu(t),   1 + eta = limsup mu(t)/mu(t - pi(t))

enter every stability condition.  Every profile is affine, and every (rate,
profile) pairing has closed-form (beta, eta): power-law mu under either
envelope (proportional or constant), exponential mu under a constant delay,
and exponential mu under a proportional envelope, where eta is infinite.
Only a 1 + eta beyond the float range has none.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


class NoClosedFormError(ValueError):
    """Raised when 1 + eta of a (rate, profile) pair overflows a float."""


@dataclass(frozen=True)
class DelayProfile:
    """Family of component delays pi_i(t) bounded by an envelope pi(t).

    Every profile is affine: pi_i(t) = slopes[i]*t + lag under the envelope
    pi(t) = q*t + lag, with lag = 0 for the proportional families and
    q = slopes = 0 for a constant delay.  The constructors keep 0 <= slopes
    <= q < 1 and a finite lag >= 0, so a delayed time t - pi_i(t) never lies
    after t and never decreases.  `slopes` is a tuple of floats, so profiles
    compare and hash by value.
    """

    n_components: int
    slopes: tuple
    q: float = 0.0
    lag: float = 0.0

    # -- constructors ------------------------------------------------------

    @classmethod
    def proportional(cls, q: float, n_components: int = 1) -> "DelayProfile":
        """pi_i(t) = q*t for every component, 0 < q < 1."""
        if not 0.0 < q < 1.0:
            raise ValueError(f"proportional ratio must lie in (0,1), got {q}")
        return cls(n_components=n_components, slopes=(float(q),) * n_components, q=q)

    @classmethod
    def constant(cls, pi_value: float, n_components: int = 1) -> "DelayProfile":
        """pi_i(t) = pi for every component, pi finite and >= 0."""
        if not 0.0 <= pi_value < math.inf:
            raise ValueError(f"constant delay must be finite and >= 0, got {pi_value}")
        return cls(n_components=n_components, slopes=(0.0,) * n_components, lag=pi_value)

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
        if not ((coeffs >= 0.0) & (coeffs <= q)).all():   # NaN fails both
            raise ValueError("component coefficients must lie in [0, envelope_q]")
        return cls(n_components=coeffs.size, slopes=tuple(coeffs.tolist()), q=q)

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

    @property
    def envelope_kind(self) -> str:
        """"proportional" (pi(t) = q*t) or "constant" (pi(t) = lag)."""
        return "proportional" if self.q else "constant"

    # -- evaluation --------------------------------------------------------

    def envelope(self, t):
        """Common envelope pi(t); accepts scalars or arrays."""
        if np.ndim(t):
            return self.q * np.asarray(t, dtype=float) + self.lag
        return self.q * float(t) + self.lag

    def delays_at(self, t: float) -> np.ndarray:
        """All component delays at time t as a vector."""
        return self.delay_table([t])[0]

    def delay_table(self, ts) -> np.ndarray:
        """Component delays at every time in ts, one row per time."""
        ts = np.asarray(ts, dtype=float)
        if ts.size and ts.min() < 0.0:
            raise ValueError(f"delay queried at negative time t={ts.min()}")
        return ts[:, None] * np.array(self.slopes) + self.lag


@dataclass(frozen=True)
class RateFunction:
    """Nondecreasing weight mu(t), either t**rho or exp(varpi*t)."""

    kind: str  # "power" | "exponential"
    param: float

    @classmethod
    def power(cls, rho: float) -> "RateFunction":
        if not 0.0 < rho < math.inf:
            raise ValueError(f"power exponent must be finite and > 0, got {rho}")
        return cls(kind="power", param=rho)

    @classmethod
    def exponential(cls, varpi: float) -> "RateFunction":
        if not 0.0 < varpi < math.inf:
            raise ValueError(f"exponential rate must be finite and > 0, got {varpi}")
        return cls(kind="exponential", param=varpi)

    def mu(self, t):
        # The adaptive hooks pass one Python float per step: skip np.ndim for
        # it, and keep libm pow, since NumPy's SIMD np.power differs from it in
        # the last bit at some grid times (mu filled per block would move gains).
        if type(t) is not float and np.ndim(t):
            return np.power(t, self.param) if self.kind == "power" else np.exp(self.param * np.asarray(t))
        return float(t) ** self.param if self.kind == "power" else math.exp(self.param * t)

    @property
    def default_monitor_start(self) -> float:
        # t**rho vanishes at t=0, so mu-weighted functionals start at t=1
        return 1.0 if self.kind == "power" else 0.0


def asymptotics(rate: RateFunction, profile: DelayProfile) -> tuple:
    """Analytic (beta, eta) of a rate under an affine envelope q*t + lag.

    Power-law mu gives beta = 0 and 1 + eta = (1-q)**(-rho), so eta = 0 for
    a constant delay (q = 0); exponential mu gives beta = varpi and
    1 + eta = exp(varpi*pi) under a constant envelope pi, and eta = inf
    under a proportional one, where mu(t)/mu(t - pi(t)) = exp(varpi*(q*t +
    lag)) is unbounded.  A finite 1 + eta beyond the float range raises
    NoClosedFormError.
    """
    try:
        if rate.kind == "power":
            return 0.0, (1.0 - profile.q) ** (-rate.param) - 1.0
        if profile.envelope_kind == "constant":
            return rate.param, math.exp(rate.param * profile.lag) - 1.0
        return rate.param, math.inf
    except OverflowError:
        raise NoClosedFormError(f"1 + eta overflows a float for the {rate.kind} rate "
                                f"{rate.param:g}") from None
