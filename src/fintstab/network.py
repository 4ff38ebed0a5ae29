"""Drive/response coupled networks with asynchronous proportional delays.

The drive network is integrated once and frozen; the response is obtained by
integrating the error system directly against the drive's dense history (the
controllers depend only on the error, so this is equivalent to integrating
the response and subtracting, up to discretisation).  A Lorenz three-node
preset reproduces the reference configuration exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .conditions import _validate_coupling_matrix, left_eigenvector
from .control import (NetworkAdaptiveHook, NetworkControlSpec,
                      full_node_control, pinning_control)
from .delays import DelayProfile
from .integrate import HistoryTrajectory, IntegratorConfig, PlanGather, integrate


@dataclass
class NetworkModel:
    N: int
    n: int
    A: np.ndarray               # Metzler, zero row sums
    B: np.ndarray               # delayed-coupling matrix, arbitrary
    theta1: float
    theta2: float
    f: Callable[[np.ndarray], np.ndarray]   # vectorised over leading axes
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
    mode: str                               # "outer" | "inner"
    response_init: np.ndarray               # (N, n)
    drive_init: Optional[np.ndarray] = None  # (N, n), outer mode
    reference_init: Optional[np.ndarray] = None  # (n,), inner mode
    control: NetworkControlSpec = field(default_factory=lambda: NetworkControlSpec(kind="none"))
    integrator: IntegratorConfig = field(default_factory=lambda: IntegratorConfig(horizon=10.0))
    adaptive_hook: Optional[NetworkAdaptiveHook] = None

    def __post_init__(self):
        m = self.model
        self.response_init = np.asarray(self.response_init, dtype=float)
        if self.response_init.shape != (m.N, m.n):
            raise ValueError(f"response initial states must be ({m.N}, {m.n})")
        if self.mode == "outer":
            if self.drive_init is None:
                raise ValueError("outer mode needs drive initial states")
            self.drive_init = np.asarray(self.drive_init, dtype=float)
            if self.drive_init.shape != (m.N, m.n):
                raise ValueError(f"drive initial states must be ({m.N}, {m.n})")
        elif self.mode == "inner":
            if self.reference_init is None:
                raise ValueError("inner mode needs a reference initial state")
            self.reference_init = np.asarray(self.reference_init, dtype=float)
            if self.reference_init.shape != (m.n,):
                raise ValueError(f"reference initial state must be ({m.n},)")
        else:
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass
class SyncResult:
    drive: HistoryTrajectory      # drive network, or tiled reference (inner)
    response: HistoryTrajectory
    error: HistoryTrajectory
    gain_names: tuple = ()
    inner_residual: Optional[dict] = None  # row/col residuals of the inner-sync constraint


def _node_cols(N: int, n: int) -> np.ndarray:
    """Pair (i, j) reads node j's n columns of an (N*n)-dim network state."""
    return np.tile(np.arange(N * n).reshape(N, n), (N, 1))


def _reference_cols(N: int, n: int) -> np.ndarray:
    """Pair (i, j) reads the whole n-dim reference state."""
    return np.tile(np.arange(n), (N * N, 1))


def _delayed_reference(traj: HistoryTrajectory, tq: np.ndarray, N: int, n: int) -> np.ndarray:
    """phi(tq[i, j]) tiled over j, as an (N, N, n) array (inner mode)."""
    return traj.interpolate(np.ravel(tq), _reference_cols(N, n)).reshape(N, N, n)


def _drive_rhs(model: NetworkModel):
    N, n = model.N, model.n
    nodes = PlanGather(_node_cols(N, n), N * n)

    def rhs(t, X, traj):
        Xn = X.reshape(N, n)
        out = model.f(Xn) + model.theta1 * (model.A @ Xn)
        xd = nodes(traj, traj._filled).reshape(N, N, n)
        out += model.theta2 * np.einsum("ij,ijk->ik", model.B, model.g(xd))
        return out.ravel()

    return rhs


def _reference_rhs(model: NetworkModel):
    def rhs(t, phi, traj):
        return model.f(phi)

    return rhs


def _error_rhs(model: NetworkModel, base_traj: HistoryTrajectory,
               mode: str, control: NetworkControlSpec,
               hook: Optional[NetworkAdaptiveHook]):
    """Error dynamics at step k: the base's row k is its state at t_k, and
    both delayed lookups read row k of the error integration's plan (the base
    was integrated on the same grid).

    f and g are elementwise, so each is called once on a stacked buffer,
    [x + e, x] and [xd + ed, xd], and the two halves subtracted.  The base
    has its own PlanGather, since a gather caches one trajectory's block;
    the base is fully recorded, so its blocks take the block path.
    """
    N, n = model.N, model.n
    nodes = PlanGather(_node_cols(N, n), N * n)
    if mode == "inner":
        base_gather = PlanGather(_reference_cols(N, n), n)
    else:
        base_gather = PlanGather(_node_cols(N, n), N * n)
    fbuf = np.empty((2, N, n))
    gbuf = np.empty((2, N, N, n))

    def rhs(t, E, etraj):
        k = etraj._filled
        En = E.reshape(N, n)
        x_now = base_traj._states[k]
        if mode != "inner":
            x_now = x_now.reshape(N, n)
        np.add(x_now, En, out=fbuf[0])
        fbuf[1] = x_now
        fx = model.f(fbuf)
        out = (fx[0] - fx[1]) + model.theta1 * (model.A @ En)

        xd = base_gather(base_traj, k, etraj.plan).reshape(N, N, n)
        np.add(xd, nodes(etraj, k).reshape(N, N, n), out=gbuf[0])
        gbuf[1] = xd
        gx = model.g(gbuf)
        out += model.theta2 * np.einsum("ij,ijk->ik", model.B, gx[0] - gx[1])

        if hook is not None:
            g = hook.state.gains
            if hook.variant == "theta1_theta3":
                # coupling adaptation acts through the pinned matrix Atilde
                out += (g["theta1"] - model.theta1) * (model.A @ En)
                out[0] -= g["theta1"] * control.sigma * En[0]
                out -= g["theta3"] * np.sign(En)
            else:
                out += full_node_control(En, g["theta3"], g["theta4"])
        elif control.kind == "pinning":
            out += pinning_control(En, control.sigma, model.theta1, control.theta3)
        elif control.kind == "full":
            out += full_node_control(En, control.theta3, control.theta4)
        return out.ravel()

    return rhs


def simulate_sync(exp: SyncExperiment) -> SyncResult:
    """Co-integrate the drive (or reference) and the error system."""
    model = exp.model
    cfg = exp.integrator
    if exp.mode == "outer":
        base = integrate(_drive_rhs(model), exp.drive_init.ravel(), model.delays, cfg)
        e0 = (exp.response_init - exp.drive_init).ravel()
    else:
        base = integrate(_reference_rhs(model), exp.reference_init, model.delays, cfg)
        e0 = (exp.response_init - exp.reference_init[None, :]).ravel()

    hook = exp.adaptive_hook
    rhs = _error_rhs(model, base, exp.mode, exp.control, hook)
    error = integrate(rhs, e0, model.delays, cfg, gain_hook=hook)

    if exp.mode == "outer":
        resp_states = base.states + error.states
    else:
        resp_states = np.tile(base.states, (1, model.N)) + error.states
    response = HistoryTrajectory.from_arrays(base.t0, base.h, resp_states)

    residual = None
    if exp.mode == "inner":
        residual = inner_sync_residual(model, base)
    return SyncResult(drive=base, response=response, error=error,
                      gain_names=error.gain_names, inner_residual=residual)


def simulate_response_directly(exp: SyncExperiment, drive: HistoryTrajectory) -> HistoryTrajectory:
    """Integrate the response network itself (static control from e = y - x).

    Reference path for the consistency check against the error-system
    integration; no zero-band projection is applied to the raw response.
    """
    model = exp.model
    N, n = model.N, model.n
    control = exp.control
    cfg = exp.integrator
    nodes = PlanGather(_node_cols(N, n), N * n)

    def rhs(t, Y, ytraj):
        Yn = Y.reshape(N, n)
        out = model.f(Yn) + model.theta1 * (model.A @ Yn)
        yd = nodes(ytraj, ytraj._filled).reshape(N, N, n)
        out += model.theta2 * np.einsum("ij,ijk->ik", model.B, model.g(yd))
        e = Yn - drive.query(t).reshape(N, n)
        if control.kind == "pinning":
            out += pinning_control(e, control.sigma, model.theta1, control.theta3)
        elif control.kind == "full":
            out += full_node_control(e, control.theta3, control.theta4)
        return out.ravel()

    cfg_plain = IntegratorConfig(horizon=cfg.horizon, h=cfg.h, method=cfg.method,
                                 zero_band=0.0, zero_tol=cfg.zero_tol)
    return integrate(rhs, exp.response_init.ravel(), model.delays, cfg_plain)


def inner_sync_residual(model: NetworkModel, reference: HistoryTrajectory,
                        n_samples: int = 64) -> dict:
    """Residuals of sum_i b_ij g(phi(t - pi_ij(t))) = 0 along the reference.

    Both the row-sum and column-sum readings are reported; the constraint is
    monitored, not enforced.
    """
    N, n = model.N, model.n
    times = np.linspace(reference.t0, reference.current_time, n_samples)
    row_max = col_max = 0.0
    for t in times:
        tq = model.pair_delay_times(t)
        phi_d = _delayed_reference(reference, tq, N, n)
        gvals = model.g(phi_d)                      # (N, N, n), index [i, j]
        row = np.einsum("ij,ijk->ik", model.B, gvals)   # sum over j
        col = np.einsum("ij,ijk->jk", model.B, gvals)   # sum over i
        row_max = max(row_max, float(np.abs(row).max()))
        col_max = max(col_max, float(np.abs(col).max()))
    return {"row_max": row_max, "col_max": col_max}


def error_indices(drive: HistoryTrajectory, response: HistoryTrajectory,
                  t: float, N: int, n: int):
    """(E1, E2, ||E||_2): inner spreads of each network plus the outer error.

    E1/E2 sum the node-to-node-1 distances (the 3-node indices generalise to
    sum_{i>=2} ||x_i - x_1||_2).
    """
    x = drive.query(t).reshape(N, n)
    y = response.query(t).reshape(N, n)
    e1 = float(sum(np.linalg.norm(x[i] - x[0]) for i in range(1, N)))
    e2 = float(sum(np.linalg.norm(y[i] - y[0]) for i in range(1, N)))
    outer = float(math.sqrt(((y - x) ** 2).sum()))
    return e1, e2, outer


def error_index_series(drive: HistoryTrajectory, response: HistoryTrajectory,
                       N: int, n: int):
    """Vectorised (E1, E2, ||E||_2) series over the whole shared grid."""
    X = drive.states.reshape(-1, N, n)
    Y = response.states.reshape(-1, N, n)
    e1 = np.linalg.norm(X[:, 1:] - X[:, :1], axis=2).sum(axis=1)
    e2 = np.linalg.norm(Y[:, 1:] - Y[:, :1], axis=2).sum(axis=1)
    outer = np.sqrt(((Y - X) ** 2).sum(axis=(1, 2)))
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
# trajectory-bounding box on which the Lorenz Lipschitz constant below holds
LORENZ_BOX = np.array([[-25.0, 25.0], [-30.0, 30.0], [0.0, 55.0]])


def lorenz_rhs(x: np.ndarray) -> np.ndarray:
    """Classic Lorenz field (sigma=10, rho=28, beta=8/3) over the last axis.

    Computed per row on Python floats: the step loops pass a few 3-vectors,
    where NumPy's per-call overhead outweighs the arithmetic.  Each row takes
    the elementwise array form's operations in its order, so is bitwise equal."""
    x = np.asarray(x, dtype=float)
    return np.array([(10.0 * (b - a), 28.0 * a - b - a * c, a * b - (8.0 / 3.0) * c)
                     for a, b, c in x.reshape(-1, 3).tolist()]).reshape(x.shape)


def sin_plus_linear(x: np.ndarray) -> np.ndarray:
    """Componentwise sin(x) + 2x; Lipschitz constant sup|cos + 2| = 3."""
    return np.sin(x) + 2.0 * np.asarray(x, dtype=float)


def lorenz_jacobian_norm(x: np.ndarray) -> float:
    J = np.array([[-10.0, 10.0, 0.0],
                  [28.0 - x[2], -1.0, -x[0]],
                  [x[1], x[0], -8.0 / 3.0]])
    return float(np.linalg.norm(J, 2))


def lorenz_lipschitz_bound(box: np.ndarray = LORENZ_BOX, grid: int = 9) -> float:
    """Max spectral norm of the Lorenz Jacobian over the bounding box."""
    axes = [np.linspace(lo, hi, grid) for lo, hi in box]
    best = 0.0
    for a in axes[0]:
        for b in axes[1]:
            for c in axes[2]:
                best = max(best, lorenz_jacobian_norm(np.array([a, b, c])))
    return best


def estimate_lipschitz(fn: Callable[[np.ndarray], np.ndarray], lo, hi,
                       n_samples: int = 2000, seed: int = 0) -> float:
    """Sampled two-point Lipschitz estimate of fn on the box [lo, hi]."""
    rng = np.random.default_rng(seed)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    xs = rng.uniform(lo, hi, size=(n_samples, lo.size))
    ys = rng.uniform(lo, hi, size=(n_samples, lo.size))
    num = np.linalg.norm(fn(xs) - fn(ys), axis=1)
    den = np.linalg.norm(xs - ys, axis=1)
    mask = den > 1e-12
    return float((num[mask] / den[mask]).max())


def lorenz_preset(horizon: float = 20.0, h: float = 5e-4,
                  control: Optional[NetworkControlSpec] = None,
                  adaptive_hook: Optional[NetworkAdaptiveHook] = None) -> SyncExperiment:
    """Three coupled Lorenz oscillators with pairwise proportional delays."""
    delays = DelayProfile.pairwise_sin(3, base=0.5, depth=0.1, envelope_q=0.5)
    model = NetworkModel(N=3, n=3, A=LORENZ_A, B=LORENZ_B,
                         theta1=0.1, theta2=1.0,
                         f=lorenz_rhs, g=sin_plus_linear,
                         L_f=lorenz_lipschitz_bound(), L_g=3.0,
                         delays=delays)
    cfg = IntegratorConfig(horizon=horizon, h=h, zero_band=None, zero_tol=1e-9)
    return SyncExperiment(model=model, mode="outer",
                          drive_init=LORENZ_DRIVE_INIT.copy(),
                          response_init=LORENZ_RESPONSE_INIT.copy(),
                          control=control or NetworkControlSpec(kind="none"),
                          integrator=cfg, adaptive_hook=adaptive_hook)
