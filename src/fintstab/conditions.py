"""Feasibility checks for the finite-time stability sufficient conditions.

Each theorem splits into an epsilon-tradeoff condition (left-hand side must
be negative, minimised over eps1 > 0 in closed form) and a sign-gain margin
condition (the sign gain must dominate the delayed coupling).  A
ConditionReport bundles the verdict, the optimal eps1, and the admissible
eps2 margin that bounds the phase-II settling time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from .control import NetworkControlSpec, StaticScalarGains

if TYPE_CHECKING:
    from .network import NetworkModel

METZLER_TOL = 1e-12


class InfeasibleError(ValueError):
    """A bound was requested from an infeasible condition report."""


@dataclass
class ConditionReport:
    theorem_id: str
    lhs: float
    feasible: bool
    eps1_optimal: float
    epsilon2_max: float         # violation margin of the sign-gain condition
    c4_threshold: Optional[float] = None  # linear-gain boundary at the eps1 used
    details: dict = field(default_factory=dict)


def optimal_eps1(a: float, b: float):
    """Minimiser of a*eps + b/eps over eps > 0: eps* = sqrt(b/a), min 2*sqrt(ab)."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"optimal_eps1 needs a > 0 and b > 0, got a={a}, b={b}")
    return math.sqrt(b / a), 2.0 * math.sqrt(a * b)


def check_scalar_theorem(gains: StaticScalarGains, m: int, beta: float,
                         eta: float, norm: str = "two",
                         eps1: Optional[float] = None) -> ConditionReport:
    """Feasibility of the scalar theorem in the requested norm.

    two:       beta + 2(c1-c4) + |c2| eps1 + |c2| m (1+eta)/eps1 < 0
    one, inf:  beta + (c1-c4) + |c2| w (1+eta) < 0    (no eps1 trade-off)
    plus |c2| - c3 < 0 in every norm, with settling margin w (c3 - |c2|) in
    the one and inf norms: w = m in the 1-norm, which sums m components, and
    w = 1 in the inf-norm.  At c2 = 0 no norm has a delayed term, whatever
    eta (an infinite eta makes every other lhs inf).
    """
    if eps1 is not None and not eps1 > 0.0:
        raise ValueError(f"eps1 must be > 0, got {eps1}")
    if m < 1:
        raise ValueError(f"dimension m must be >= 1, got {m}")
    if eta < 0.0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    c1, c2, c3, c4 = gains.c1, gains.c2, gains.c3, gains.c4
    ac2 = abs(c2)

    if norm == "two":
        if ac2 == 0.0:
            eps_opt = math.nan
            delay_term = 0.0
        else:
            a = ac2
            b = ac2 * m * (1.0 + eta)
            eps_opt, min_term = optimal_eps1(a, b)
            delay_term = min_term if eps1 is None else a * eps1 + b / eps1
        lhs = beta + 2.0 * (c1 - c4) + delay_term
        c4_threshold = c1 + 0.5 * (beta + delay_term)
        sign_margin = c3 - ac2
    elif norm in ("one", "inf"):
        w = m if norm == "one" else 1
        eps_opt = math.nan
        delay_term = ac2 * w * (1.0 + eta) if ac2 else 0.0
        lhs = beta + (c1 - c4) + delay_term
        c4_threshold = c1 + beta + delay_term
        sign_margin = w * (c3 - ac2)
    else:
        raise ValueError(f"unknown norm {norm!r}")

    sign_ok = (c3 - ac2) > 0.0  # condition |c2| - c3 < 0 in all norms
    feasible = lhs < 0.0 and sign_ok
    return ConditionReport(theorem_id=f"scalar_{norm}_norm", lhs=lhs,
                           feasible=feasible, eps1_optimal=eps_opt,
                           epsilon2_max=sign_margin, c4_threshold=c4_threshold,
                           details={"beta": beta, "eta": eta, "m": m})


def _validate_coupling_matrix(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"coupling matrix must be square, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("coupling matrix entries must be finite")
    off = A - np.diag(np.diag(A))
    if off.min() < -METZLER_TOL:
        raise ValueError("coupling matrix is not Metzler (negative off-diagonal entry)")
    row_sums = A.sum(axis=1)
    if np.abs(row_sums).max() > METZLER_TOL * max(1.0, np.abs(A).max()):
        raise ValueError(f"coupling matrix row sums are not zero (max |sum| = {np.abs(row_sums).max():.3g})")
    return A


def left_eigenvector(A: np.ndarray) -> np.ndarray:
    """Positive left null vector xi of a Metzler zero-row-sum matrix, sum 1.

    Computed from the SVD null space of A^T; a non-positive component signals
    a reducible matrix.
    """
    A = _validate_coupling_matrix(A)
    _, s, vt = np.linalg.svd(A.T)
    xi = vt[-1]
    if abs(xi.sum()) < 1e-12:
        raise ValueError("degenerate null vector; coupling matrix likely reducible")
    xi = xi / xi.sum()
    if xi.min() <= 1e-10:
        raise ValueError("left eigenvector has a non-positive component; "
                         "coupling matrix is reducible")
    residual = np.abs(xi @ A).max()
    if residual > 1e-10:
        raise ValueError(f"left eigenvector residual too large: {residual:.3g}")
    return xi


def lambda_max_sym(A: np.ndarray, xi: np.ndarray, sigma: float = 1.0,
                   theta1: float = 0.0, theta4: float = 0.0,
                   which: str = "tilde") -> float:
    """Largest eigenvalue of the symmetric part of Xi*M.

    tilde: M = A - diag(sigma, 0, ..., 0) (pinned coupling)
    hat:   M = theta1*A - theta4*I        (full-node feedback, as integrated)
    """
    A = np.asarray(A, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if xi.shape[0] != A.shape[0]:
        raise ValueError("dimension mismatch between xi and A")
    if which == "tilde":
        M = A.copy()
        M[0, 0] -= sigma
    elif which == "hat":
        M = theta1 * A - theta4 * np.eye(A.shape[0])
    else:
        raise ValueError(f"unknown variant {which!r}")
    XiM = xi[:, None] * M
    S = 0.5 * (XiM + XiM.T)
    return float(np.linalg.eigvalsh(S)[-1])


def check_network_theorem(model: "NetworkModel", control: NetworkControlSpec,
                          beta: float, eta: float,
                          eps1: Optional[float] = None) -> ConditionReport:
    """Feasibility of the outer-synchronization theorem for the network
    `model` under `control`: pinning control takes the pinned-coupling
    condition, full-node control the full-node one, and none the full-node
    one with theta3 = theta4 = 0, the feedback its run applies, whatever
    gains its spec holds.

    lhs = beta + 2 L_f + th2 bmax N eps1 + 2 lam + th2 bmax N^2 n L_g^2
          / (eps1 min_i xi_i) * (1+eta)
    with xi the left eigenvector of A, lam = theta1 * lambda_max({Xi Atilde}^s)
    for pinning and lam = lambda_max({Xi Ahat}^s) for full-node control; the
    sign condition is th2 bmax N L_g - theta3 < 0.
    """
    if eps1 is not None and not eps1 > 0.0:
        raise ValueError(f"eps1 must be > 0, got {eps1}")
    xi = left_eigenvector(model.A)
    bmax = float(np.abs(model.B).max())
    xi_min = float(xi.min())
    N, n, theta2 = model.N, model.n, model.theta2
    variant = "pinning" if control.kind == "pinning" else "full"
    theta3, theta4 = ((0.0, 0.0) if control.kind == "none"
                      else (control.theta3, control.theta4))
    if variant == "pinning":
        lam_term = 2.0 * model.theta1 * lambda_max_sym(model.A, xi, sigma=control.sigma,
                                                       which="tilde")
    else:
        lam_term = 2.0 * lambda_max_sym(model.A, xi, theta1=model.theta1,
                                        theta4=theta4, which="hat")

    base = beta + 2.0 * model.L_f + lam_term
    if theta2 == 0.0 or bmax == 0.0:
        lhs = base
        eps_opt = math.nan
    else:
        a = theta2 * bmax * N
        b = theta2 * bmax * N ** 2 * n * model.L_g ** 2 * (1.0 + eta) / xi_min
        eps_opt, min_term = optimal_eps1(a, b)
        lhs = base + (min_term if eps1 is None else a * eps1 + b / eps1)

    sign_margin = theta3 - theta2 * bmax * N * model.L_g
    feasible = lhs < 0.0 and sign_margin > 0.0
    return ConditionReport(theorem_id=f"network_{variant}", lhs=lhs,
                           feasible=feasible, eps1_optimal=eps_opt,
                           epsilon2_max=sign_margin,
                           details={"lambda_term": lam_term, "bmax": bmax,
                                    "xi_min": xi_min,
                                    "theta3_required": theta2 * bmax * N * model.L_g})


def settling_bound(report: ConditionReport, T1: float, kappa: float = 0.9) -> float:
    """Phase-II settling bound T2 = T1 + 1/eps2 with eps2 = kappa * margin.

    kappa must lie strictly inside (0, 1): the proofs require eps2 strictly
    smaller than the sign-gain margin.
    """
    if not report.feasible:
        raise InfeasibleError(f"condition {report.theorem_id} is infeasible "
                              f"(lhs={report.lhs:.4g}, epsilon2_max={report.epsilon2_max:.4g})")
    if not 0.0 < kappa < 1.0:
        raise ValueError(f"kappa must lie in (0,1), got {kappa}")
    if not math.isfinite(T1):
        raise ValueError("T1 must be finite")
    eps2 = kappa * report.epsilon2_max
    return T1 + 1.0 / eps2
