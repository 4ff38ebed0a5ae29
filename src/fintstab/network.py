"""Drive/response coupled networks with asynchronous proportional delays.

The drive network is integrated once, without control or zero-band
projection, and frozen; the response is obtained by integrating the error
system directly against the drive's dense history (the controllers depend
only on the error, so this is equivalent to integrating the response and
subtracting, up to discretisation).  This is outer synchronization: the
response locks onto the drive network.  A Lorenz three-node preset
reproduces the reference configuration exactly.

The delayed coupling theta2 * sum_j b_ij g(x_j(t - pi_ij(t))) has one
formula over a step axis, `_coupling`, which the right-hand sides evaluate
for a whole `DelayedRows` block of steps at once and turn into float rows once.
The rest of a step runs on Python floats, bitwise equal to the NumPy forms:
f takes and gives node rows, the controls keep their array forms' operation
order, and only the sum A @ X stays in NumPy (BLAS may fuse its multiply-adds).

A settled error costs one coupling row a step.  After the settling time the
error is exactly zero while the delayed coupling still reads the moving
past.  An adaptive run is the static law at the hook's gains, so one law
acts on a step, pinning or full, at the gains acting on it.  At an error
row whose floats are all +-0.0, x + e is x, so f(x + e) - f(x) is +0.0;
theta1 (A e) is +-0.0; and the law adds -theta3 sgn(0) and a finite gain
times +-0.0.  The full sum is then the coupling row plus 0.0 (-0.0 becomes
+0.0), and the error rhs returns that without calling f, A @ E or the law.
This is bitwise the full rhs under every control, given that f acts on each
node row alone (so f(x_k) is what the drive's step k computed, finite since
the drive did not diverge) and that the parameters are finite (the
constructors reject NaN and inf).  Two cases stay on the full path: a drive
row with a -0.0 component, where -0.0 + 0.0 is +0.0 and x + e is not x, and
an acting gain theta1, theta1 * sigma, theta3 or theta4 that is not finite,
where inf * 0 is NaN.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .conditions import _validate_coupling_matrix
from .control import (NetworkAdaptiveHook, NetworkControlSpec, _add_full_node,
                      _add_pinning, _require_finite)
from .delays import DelayProfile
from .integrate import (DelayedRows, HistoryTrajectory, IntegratorConfig, integrate,
                        row_chunks)

_flat = itertools.chain.from_iterable  # rows -> their floats, row by row


@dataclass
class NetworkModel:
    N: int
    n: int
    A: np.ndarray               # Metzler, zero row sums
    B: np.ndarray               # delayed-coupling matrix, arbitrary
    theta1: float
    theta2: float
    # node rows in (lists of n floats), rows out (list or array); acts on each
    # row alone, which the settled-error rule relies on
    f: Callable[[list], list]
    g: Callable[[np.ndarray], np.ndarray]   # componentwise, vectorised
    L_f: float
    L_g: float
    delays: DelayProfile        # pair family, flat index (i-1)*N + (j-1)

    def __post_init__(self):
        self.A = _validate_coupling_matrix(self.A)
        self.B = np.asarray(self.B, dtype=float)
        if self.B.shape != (self.N, self.N):
            raise ValueError(f"B must be {self.N}x{self.N}, got {self.B.shape}")
        if not np.isfinite(self.B).all():
            raise ValueError("B's entries must be finite")
        _require_finite(theta1=self.theta1, theta2=self.theta2, L_f=self.L_f, L_g=self.L_g)
        if self.L_f < 0.0 or self.L_g < 0.0:
            raise ValueError(f"L_f and L_g must be finite and >= 0, got {self.L_f}, {self.L_g}")
        if self.delays.n_components not in (1, self.N * self.N):
            raise ValueError("delay profile must be shared or indexed per pair (i,j)")

    def pair_delay_times(self, t: float) -> np.ndarray:
        """Delayed argument times t - pi_ij(t) as an (N, N) matrix."""
        d = self.delays.delays_at(t)
        if d.size == 1:
            return np.full((self.N, self.N), t - d[0])
        return t - d.reshape(self.N, self.N)


@dataclass
class SyncExperiment:
    model: NetworkModel
    drive_init: np.ndarray                  # (N, n)
    response_init: np.ndarray               # (N, n)
    control: NetworkControlSpec = field(default_factory=lambda: NetworkControlSpec(kind="none"))
    integrator: IntegratorConfig = field(default_factory=lambda: IntegratorConfig(horizon=10.0))
    adaptive_hook: Optional[NetworkAdaptiveHook] = None

    def __post_init__(self):
        m = self.model
        self.drive_init = np.asarray(self.drive_init, dtype=float)
        self.response_init = np.asarray(self.response_init, dtype=float)
        if not self.drive_init.shape == self.response_init.shape == (m.N, m.n):
            raise ValueError(f"drive and response initial states must be ({m.N}, {m.n})")


@dataclass
class SyncResult:
    drive: HistoryTrajectory      # the drive network, integrated without control
    response: HistoryTrajectory
    error: HistoryTrajectory


def _node_cols(N: int, n: int) -> np.ndarray:
    """Pair (i, j) reads node j's n columns of an (N*n)-dim network state."""
    return np.tile(np.arange(N * n).reshape(N, n), (N, 1))


def _coupling(model: NetworkModel, XD: np.ndarray, ED: Optional[np.ndarray] = None):
    """theta2 * sum_j b_ij g(XD[s, i, j]), or with the error's values ED
    theta2 * sum_j b_ij (g(XD + ED) - g(XD)), for gathered blocks
    (steps, N*N, n); the result is (steps, N, n).  g is elementwise: the
    error's two terms are one call on [XD + ED, XD]."""
    XD = XD.reshape(-1, model.N, model.N, model.n)
    if ED is None:
        G = model.g(XD)
    else:
        gx = model.g(np.stack((XD + ED.reshape(XD.shape), XD)))
        G = gx[0] - gx[1]
    return model.theta2 * np.einsum("ij,sijk->sik", model.B, G)


def _coupling_rows(model: NetworkModel, xtraj: HistoryTrajectory,
                   etraj: Optional[HistoryTrajectory] = None) -> DelayedRows:
    """Step k's coupling as N*n floats, node by node: `_coupling` of xtraj's
    delayed values (and etraj's, on the same grid) over each block of
    DelayedRows of the model's delays on that grid."""
    cols = _node_cols(model.N, model.n)

    def make(lo, hi, w):
        ev = None if etraj is None else etraj._lookup(lo, hi, w, cols)
        vals = _coupling(model, xtraj._lookup(lo, hi, w, cols), ev)
        return vals.reshape(len(vals), -1).tolist()

    return DelayedRows(model.delays, xtraj.t0, xtraj.h, make)


def _rows(v) -> list:
    """f's result as rows of floats: an array is converted with one tolist()."""
    return v if type(v) is list else np.asarray(v, dtype=float).tolist()


def _drive_rhs(model: NetworkModel):
    """Network field f(x_i) + theta1 (A x)_i + coupling_i on the state's floats:
    one f call on the N node rows and one NumPy product A @ X a step, as
    `A.dot` (the same BLAS product with less dispatch; its sums need not
    equal Python's), returned as N*n floats."""
    N, n = model.N, model.n
    A, theta1 = model.A, model.theta1
    seen = coupling = None

    def rhs(t, X, traj):
        nonlocal seen, coupling
        if traj is not seen:
            seen, coupling = traj, _coupling_rows(model, traj)
        Xn = X.reshape(N, n)
        fx = _rows(model.f(Xn.tolist()))
        ax = A.dot(Xn).ravel().tolist()
        c = coupling.row(traj._filled)
        return [p + theta1 * a + d for p, a, d in zip(_flat(fx), ax, c)]

    return rhs


def _error_rhs(model: NetworkModel, drive: HistoryTrajectory,
               control: NetworkControlSpec, hook: Optional[NetworkAdaptiveHook]):
    """Error dynamics at step k on Python floats: the drive's row k is its state
    at t_k, and both delayed lookups read row k of one DelayedRows on the error
    integration's grid (the drive was integrated on the same grid).

    The law is picked once, by a hook's variant (theta1_theta3 pins,
    theta3_theta4 feeds every node back) or else `control.kind`, and each
    step reads the gains acting on it: the spec's (model.theta1, theta3,
    theta4), with the hook's two gains in place of the ones it adapts.  So an
    adaptive step is the static step at the hook's gains.

    f is called once on the 2N node rows [x + e; x] and the two halves
    subtracted; g is called in `_coupling`, for a whole block at a time.
    A @ E is one NumPy call, as in `_drive_rhs`.

    A settled error (every float of row k +-0.0) returns the coupling row
    plus 0.0 and skips f, A @ E and the law, except at a drive row with a
    -0.0 component or when theta1, theta1 * sigma, theta3 or theta4 is not
    finite; the module docstring says why that is the full rhs bitwise.  A
    moving step pays one truth test of the error's floats for it.
    """
    N, n = model.N, model.n
    A, sigma = model.A, control.sigma
    spec_gains = (model.theta1, control.theta3, control.theta4)
    law = control.kind if hook is None else (
        "pinning" if hook.variant == "theta1_theta3" else "full")
    seen = coupling = None
    states = drive._states
    drive_nodes = states.reshape(-1, N, n)
    neg_zero = np.signbit(states) & (states == 0.0)
    neg_zero_rows = set(np.flatnonzero(neg_zero.any(axis=1)).tolist())

    def rhs(t, E, etraj):
        nonlocal seen, coupling
        if etraj is not seen:
            seen, coupling = etraj, _coupling_rows(model, drive, etraj)
        k = etraj._filled
        theta1, theta3, theta4 = spec_gains
        if hook is not None:
            if law == "pinning":
                theta1, theta3 = hook.gains
            else:
                theta4, theta3 = hook.gains
        es = E.tolist()
        if (not any(es) and k not in neg_zero_rows
                and all(map(math.isfinite, (theta1, theta1 * sigma, theta3, theta4)))):
            return [d + 0.0 for d in coupling.row(k)]
        En, Xn = E.reshape(N, n), drive_nodes[k]
        fx = _rows(model.f((Xn + En).tolist() + Xn.tolist()))
        ae = A.dot(En).ravel().tolist()
        c = coupling.row(k)
        out = [p - q + theta1 * a + d
               for p, q, a, d in zip(_flat(fx[:N]), _flat(fx[N:]), ae, c)]
        if law == "pinning":
            return _add_pinning(out, es, n, sigma, theta1, theta3)
        if law == "full":
            return _add_full_node(out, es, theta3, theta4)
        return out

    return rhs


def simulate_sync(exp: SyncExperiment) -> SyncResult:
    """Co-integrate the drive network and the error system.

    The drive is uncontrolled, so it never takes the zero-band projection.
    The error system's zero band, when the integrator config leaves it
    unset, is the sign gain times h: the hook's theta3 under adaptive
    control, the static theta3 under pinning or full control, and 0 without
    control.  A `theta1_theta3` hook pins node 1 with the spec's sigma, so it
    needs a pinning spec (ValueError otherwise); a `theta3_theta4` hook takes
    the place of any spec's static feedback.  Neither integration rests at
    zero: the drive's f is arbitrary.  Once the error is exactly zero, an
    error step costs its delayed coupling row alone (see `_error_rhs`),
    under every control.
    """
    hook = exp.adaptive_hook
    if (hook is not None and hook.variant == "theta1_theta3"
            and exp.control.kind != "pinning"):
        raise ValueError(f"a theta1_theta3 adaptive hook pins node 1 and needs a "
                         f"pinning control spec, got kind {exp.control.kind!r}")
    model = exp.model
    cfg = exp.integrator
    drive = integrate(_drive_rhs(model), exp.drive_init.ravel(), model.delays,
                      replace(cfg, zero_band=0.0))
    rhs = _error_rhs(model, drive, exp.control, hook)
    if cfg.zero_band is None and hook is None and exp.control.kind != "none":
        cfg = replace(cfg, zero_band=exp.control.theta3 * cfg.h)
    e0 = exp.response_init.ravel() - drive.states[0]
    error = integrate(rhs, e0, model.delays, cfg, gain_hook=hook)
    response = HistoryTrajectory(drive.t0, drive.h, exp.response_init.ravel(), error._filled)
    np.add(drive.states, error.states, out=response._states)   # written once, in place
    response._filled = error._filled
    return SyncResult(drive=drive, response=response, error=error)


def error_index_series(drive: HistoryTrajectory, response: HistoryTrajectory,
                       N: int, n: int):
    """(E1, E2, ||E||_2) series over the shared grid, reduced `row_chunks` at
    a time into the three outputs: no temporary outgrows one chunk of rows,
    and each row's arithmetic is that of the one-shot array formula."""
    X = drive.states.reshape(-1, N, n)
    Y = response.states.reshape(-1, N, n)
    e1, e2, outer = np.empty(len(X)), np.empty(len(X)), np.empty(len(X))
    for rows in row_chunks(len(X)):
        x, y = X[rows], Y[rows]
        e1[rows] = np.linalg.norm(x[:, 1:] - x[:, :1], axis=2).sum(axis=1)
        e2[rows] = np.linalg.norm(y[:, 1:] - y[:, :1], axis=2).sum(axis=1)
        outer[rows] = np.sqrt(((y - x) ** 2).sum(axis=(1, 2)))
    return e1, e2, outer


# -- Lorenz three-node preset ------------------------------------------------

LORENZ_A = np.array([[-5.0, 2.0, 3.0],
                     [1.0, -4.0, 3.0],
                     [1.0, 2.0, -3.0]])
LORENZ_B = np.array([[1.0, -1.0, 1.0],
                     [1.0, 1.0, -1.0],
                     [-1.0, 1.0, 1.0]])
LORENZ_DRIVE_INIT = np.array([[-1.5771, 0.5080, 0.2820],
                              [0.0335, -1.3337, 1.1275],
                              [0.3502, -0.2991, 0.0229]])
LORENZ_RESPONSE_INIT = np.array([[-0.8479, -1.1201, 2.5260],
                                 [1.6555, 0.3075, -1.2571],
                                 [-0.8655, -0.1765, 0.7914]])
# pair delays pi_ij(t) = 0.5 (1 - 0.1 |sin(i + 2j)|) t under the envelope t/2
LORENZ_DELAYS = DelayProfile.pairwise_sin(3, base=0.5, depth=0.1, envelope_q=0.5)
# trajectory-bounding box on which the Lorenz Lipschitz constant below holds
LORENZ_BOX = np.array([[-25.0, 25.0], [-30.0, 30.0], [0.0, 55.0]])


def _lorenz_rows(rows: list) -> list:
    return [[10.0 * (b - a), 28.0 * a - b - a * c, a * b - (8.0 / 3.0) * c]
            for a, b, c in rows]


def lorenz_rhs(x):
    """Classic Lorenz field (sigma=10, rho=28, beta=8/3), rows in, rows out.

    A list of rows (lists of three floats) gives a list of rows, computed on
    Python floats: the step loops pass a few 3-vectors, where NumPy's
    per-call overhead outweighs the arithmetic.  Anything else (an array, a
    flat or a deeper nested list) is read as an array and gives an array of
    its shape, over the last axis.  Each row takes the elementwise array
    form's operations in its order, so is bitwise equal."""
    if (type(x) is list and x and type(x[0]) is list and len(x[0]) == 3
            and type(x[0][0]) is not list):
        return _lorenz_rows(x)
    x = np.asarray(x, dtype=float)
    return np.array(_lorenz_rows(x.reshape(-1, 3).tolist())).reshape(x.shape)


def sin_plus_linear(x: np.ndarray) -> np.ndarray:
    """Componentwise sin(x) + 2x; Lipschitz constant sup|cos + 2| = 3."""
    return np.sin(x) + 2.0 * np.asarray(x, dtype=float)


def lorenz_jacobian_norm(x: np.ndarray) -> float:
    J = np.array([[-10.0, 10.0, 0.0],
                  [28.0 - x[2], -1.0, -x[0]],
                  [x[1], x[0], -8.0 / 3.0]])
    return float(np.linalg.norm(J, 2))


def lorenz_lipschitz_bound(box: np.ndarray = LORENZ_BOX) -> float:
    """Max spectral norm of the Lorenz Jacobian over the bounding box.  J(x)
    is affine in x, so its norm is convex and peaks at a corner of the box."""
    return max(lorenz_jacobian_norm(np.array(c)) for c in itertools.product(*box))


def lorenz_preset(horizon: float = 20.0, h: float = 5e-4,
                  control: Optional[NetworkControlSpec] = None,
                  adaptive_hook: Optional[NetworkAdaptiveHook] = None) -> SyncExperiment:
    """Three coupled Lorenz oscillators with pairwise proportional delays."""
    model = NetworkModel(N=3, n=3, A=LORENZ_A, B=LORENZ_B,
                         theta1=0.1, theta2=1.0,
                         f=lorenz_rhs, g=sin_plus_linear,
                         L_f=lorenz_lipschitz_bound(), L_g=3.0,
                         delays=LORENZ_DELAYS)
    return SyncExperiment(model=model, drive_init=LORENZ_DRIVE_INIT.copy(),
                          response_init=LORENZ_RESPONSE_INIT.copy(),
                          control=control or NetworkControlSpec(kind="none"),
                          integrator=IntegratorConfig(horizon=horizon, h=h),
                          adaptive_hook=adaptive_hook)
