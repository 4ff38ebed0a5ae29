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
for a whole plan block at once and turn into float rows once (`BlockRows`).
The rest of a step runs on Python floats, bitwise equal to the NumPy forms:
f takes and gives node rows, the controls keep their array forms' operation
order, and only the sum A @ X stays in NumPy (BLAS may fuse its multiply-adds).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .conditions import _validate_coupling_matrix
from .control import (NetworkAdaptiveHook, NetworkControlSpec, _add_full_node,
                      _add_pinning, _sgn)
from .delays import DelayProfile
from .integrate import (BlockRows, HistoryTrajectory, IntegratorConfig, integrate,
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
    f: Callable[[list], list]   # node rows in (lists of n floats), rows out (list or array)
    g: Callable[[np.ndarray], np.ndarray]   # componentwise, vectorised
    L_f: float
    L_g: float
    delays: DelayProfile        # pair family, flat index (i-1)*N + (j-1)

    def __post_init__(self):
        self.A = _validate_coupling_matrix(self.A)
        self.B = np.asarray(self.B, dtype=float)
        if self.B.shape != (self.N, self.N):
            raise ValueError(f"B must be {self.N}x{self.N}, got {self.B.shape}")
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
    gain_names: tuple = ()


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


def _coupling_rows(model: NetworkModel, plan, xtraj: HistoryTrajectory,
                   etraj: Optional[HistoryTrajectory] = None) -> BlockRows:
    """Step k's coupling as N*n floats, node by node: `_coupling` of xtraj's
    delayed values (and etraj's) over each block of plan."""
    cols = _node_cols(model.N, model.n)

    def make(blk):
        ev = None if etraj is None else blk.values(etraj, cols)
        vals = _coupling(model, blk.values(xtraj, cols), ev)
        return vals.reshape(len(vals), -1).tolist()

    return BlockRows(plan, make)


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
            seen, coupling = traj, _coupling_rows(model, traj.plan, traj)
        Xn = X.reshape(N, n)
        fx = _rows(model.f(Xn.tolist()))
        ax = A.dot(Xn).ravel().tolist()
        c = coupling.row(traj._filled)
        return [p + theta1 * a + d for p, a, d in zip(_flat(fx), ax, c)]

    return rhs


def _static_control(out: list, e: list, model: NetworkModel,
                    control: NetworkControlSpec) -> list:
    """out plus the static pinning or full-node feedback on the error e, on floats."""
    if control.kind == "pinning":
        return _add_pinning(out, e, model.n, control.sigma, model.theta1, control.theta3)
    if control.kind == "full":
        return _add_full_node(out, e, control.theta3, control.theta4)
    return out


def _error_rhs(model: NetworkModel, drive: HistoryTrajectory,
               control: NetworkControlSpec, hook: Optional[NetworkAdaptiveHook]):
    """Error dynamics at step k on Python floats: the drive's row k is its state
    at t_k, and both delayed lookups read row k of the error integration's
    plan (the drive was integrated on the same grid).

    f is called once on the 2N node rows [x + e; x] and the two halves
    subtracted; g is called in `_coupling`, for a whole plan block at a time.
    A @ E is one NumPy call, as in `_drive_rhs`.  The controls read the hook's
    float gains.
    """
    N, n = model.N, model.n
    A, theta1 = model.A, model.theta1
    seen = coupling = None
    adapt_coupling = hook is not None and hook.variant == "theta1_theta3"
    drive_nodes = drive._states.reshape(-1, N, n)

    def rhs(t, E, etraj):
        nonlocal seen, coupling
        if etraj is not seen:
            seen, coupling = etraj, _coupling_rows(model, etraj.plan, drive, etraj)
        k = etraj._filled
        En, Xn = E.reshape(N, n), drive_nodes[k]
        fx = _rows(model.f((Xn + En).tolist() + Xn.tolist()))
        ae = A.dot(En).ravel().tolist()
        c = coupling.row(k)
        out = [p - q + theta1 * a + d
               for p, q, a, d in zip(_flat(fx[:N]), _flat(fx[N:]), ae, c)]

        es = E.tolist()
        if hook is None:
            return _static_control(out, es, model, control)
        lin, theta3 = hook._g
        if adapt_coupling:
            # coupling adaptation acts through the pinned matrix Atilde
            dl, ls = lin - theta1, lin * control.sigma
            return [(o + dl * a - ls * v if i < n else o + dl * a) - theta3 * _sgn(v)
                    for i, (o, v, a) in enumerate(zip(out, es, ae))]
        return _add_full_node(out, es, theta3, lin)

    return rhs


def simulate_sync(exp: SyncExperiment) -> SyncResult:
    """Co-integrate the drive network and the error system.

    The drive is uncontrolled, so it never takes the zero-band projection.
    The error system's zero band, when the integrator config leaves it
    unset, is the sign gain times h: the hook's theta3 under adaptive
    control, the static theta3 under pinning or full control, and 0 without
    control.
    """
    model = exp.model
    cfg = exp.integrator
    drive = integrate(_drive_rhs(model), exp.drive_init.ravel(), model.delays,
                      replace(cfg, zero_band=0.0))
    hook = exp.adaptive_hook
    rhs = _error_rhs(model, drive, exp.control, hook)
    if cfg.zero_band is None and hook is None and exp.control.kind != "none":
        cfg = replace(cfg, zero_band=exp.control.theta3 * cfg.h)
    e0 = exp.response_init.ravel() - drive.states[0]
    error = integrate(rhs, e0, model.delays, cfg, gain_hook=hook)
    response = HistoryTrajectory(drive.t0, drive.h, exp.response_init.ravel(), error._filled)
    np.add(drive.states, error.states, out=response._states)   # written once, in place
    response._filled = error._filled
    return SyncResult(drive=drive, response=response, error=error,
                      gain_names=error.gain_names)


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
    cfg = IntegratorConfig(horizon=horizon, h=h, zero_band=None, zero_tol=1e-9)
    return SyncExperiment(model=model, drive_init=LORENZ_DRIVE_INIT.copy(),
                          response_init=LORENZ_RESPONSE_INIT.copy(),
                          control=control or NetworkControlSpec(kind="none"),
                          integrator=cfg, adaptive_hook=adaptive_hook)
