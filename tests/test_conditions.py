import math

import numpy as np
import pytest

from fintstab.conditions import (InfeasibleError, NetworkConditionParams,
                                 adaptive_settling_bound,
                                 check_network_theorem, check_scalar_theorem,
                                 lambda_max_sym, left_eigenvector,
                                 optimal_eps1, settling_bound)
from fintstab.control import StaticScalarGains
from fintstab.delays import DelayProfile, RateFunction, asymptotics
from fintstab.network import LORENZ_A, LORENZ_B

ETA_HALF = 2 ** 0.1 - 1.0  # proportional q=0.5 with mu = t^0.1


def test_optimal_eps1_values():
    assert optimal_eps1(1.0, 1.0) == (1.0, 2.0)
    assert optimal_eps1(2.0, 8.0) == (2.0, 8.0)
    eps, val = optimal_eps1(2.0, 2.0 * 2 ** 0.1)
    assert eps == pytest.approx(2 ** 0.05, rel=1e-14)
    assert val == pytest.approx(4 * 2 ** 0.05, rel=1e-14)
    with pytest.raises(ValueError):
        optimal_eps1(0.0, 1.0)


def test_scalar_two_norm_threshold():
    g = StaticScalarGains(1.0, 2.0, 2.1, 3.5)
    rep = check_scalar_theorem(g, 1, 0.0, ETA_HALF, norm="two", eps1=2 ** 0.05)
    assert rep.c4_threshold == pytest.approx(1.0 + 2 ** 1.05, abs=1e-6)
    assert rep.feasible
    assert rep.epsilon2_max == pytest.approx(0.1, rel=1e-12)
    assert rep.lhs == pytest.approx(2 * (1 - 3.5) + 4 * 2 ** 0.05, rel=1e-12)
    assert rep.lhs == pytest.approx(-0.859, abs=1e-3)


def test_scalar_two_norm_optimal_eps1_default():
    g = StaticScalarGains(1.0, 2.0, 2.1, 3.5)
    rep = check_scalar_theorem(g, 1, 0.0, ETA_HALF, norm="two")
    assert rep.eps1_optimal == pytest.approx(2 ** 0.05, rel=1e-12)
    # first-order optimality: perturbing eps1 cannot lower the lhs
    for fac in (1 - 1e-3, 1 + 1e-3):
        pert = check_scalar_theorem(g, 1, 0.0, ETA_HALF, norm="two",
                                    eps1=rep.eps1_optimal * fac)
        assert pert.lhs >= rep.lhs - 1e-12


def test_scalar_delay_free_degenerate():
    # c2 = 0: feasible iff c4 > c1 and c3 > 0
    g = StaticScalarGains(1.0, 0.0, 0.5, 2.0)
    rep = check_scalar_theorem(g, 1, 0.0, 0.0, norm="two")
    assert rep.feasible
    g2 = StaticScalarGains(1.0, 0.0, 0.5, 0.5)
    assert not check_scalar_theorem(g2, 1, 0.0, 0.0, norm="two").feasible
    g3 = StaticScalarGains(1.0, 0.0, 0.0, 2.0)
    assert not check_scalar_theorem(g3, 1, 0.0, 0.0, norm="two").feasible


def test_one_norm_settling_margin_carries_m():
    g = StaticScalarGains(0.0, 1.0, 2.0, 5.0)
    rep = check_scalar_theorem(g, 3, 0.0, 0.0, norm="one")
    assert rep.epsilon2_max == pytest.approx(3 * (2.0 - 1.0))
    assert rep.lhs == pytest.approx(0.0 + (0.0 - 5.0) + 1.0 * 3 * 1.0)


def test_inf_norm_lhs():
    g = StaticScalarGains(0.0, 1.0, 2.0, 5.0)
    rep = check_scalar_theorem(g, 3, 0.0, 0.0, norm="inf")
    assert rep.lhs == pytest.approx(-5.0 + 1.0)
    assert rep.epsilon2_max == pytest.approx(1.0)


def _corollary(g, delay, rate, eps1=None):
    """The delay-class corollary: the two-norm theorem at the closed-form (beta, eta)."""
    beta, eta = asymptotics(rate, delay)
    return check_scalar_theorem(g, 1, beta, eta, norm="two", eps1=eps1)


def test_corollary_proportional_matches_theorem():
    g = StaticScalarGains(1.0, 2.0, 2.1, 3.5)
    rep = _corollary(g, DelayProfile.proportional(0.5), RateFunction.power(0.1),
                     eps1=2 ** 0.05)
    direct = check_scalar_theorem(g, 1, 0.0, ETA_HALF, norm="two", eps1=2 ** 0.05)
    assert rep.lhs == pytest.approx(direct.lhs, rel=1e-14)
    assert rep.feasible == direct.feasible


def test_corollary_constant_delay():
    # pi = 1, varpi = 0.1, c1 = 0, c2 = 1, optimal eps1:
    # lhs = 0.1 - 2 c4 + 2 e^{0.05}
    g = StaticScalarGains(0.0, 1.0, 2.0, 3.0)
    rep = _corollary(g, DelayProfile.constant(1.0), RateFunction.exponential(0.1))
    assert rep.lhs == pytest.approx(0.1 - 2 * 3.0 + 2 * math.exp(0.05), rel=1e-12)


def test_corollary_zero_delay_limit():
    g = StaticScalarGains(1.0, 1.0, 2.0, 4.0)
    rep = _corollary(g, DelayProfile.constant(0.0), RateFunction.exponential(1e-9))
    # condition collapses towards 2(c1 - c4) + 2|c2|
    assert rep.lhs == pytest.approx(2 * (1.0 - 4.0) + 2.0, abs=1e-6)


def test_left_eigenvector_lorenz_matrix():
    xi = left_eigenvector(LORENZ_A)
    assert np.abs(xi - np.array([1 / 6, 1 / 3, 1 / 2])).max() < 1e-10
    assert np.abs(xi @ LORENZ_A).max() <= 1e-10
    assert abs(xi.sum() - 1.0) <= 1e-12
    assert xi.min() > 0.0


def test_left_eigenvector_symmetric_and_ring():
    assert np.allclose(left_eigenvector(np.array([[-1.0, 1.0], [1.0, -1.0]])),
                       [0.5, 0.5])
    ring = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]])
    assert np.allclose(left_eigenvector(ring), [1 / 3, 1 / 3, 1 / 3])


def test_left_eigenvector_rejects_bad_matrices():
    with pytest.raises(ValueError):
        left_eigenvector(np.array([[-1.0, 0.5], [1.0, -1.0]]))  # row sums != 0
    with pytest.raises(ValueError):
        left_eigenvector(np.array([[1.0, -1.0], [-1.0, 1.0]]))  # not Metzler


def test_lambda_max_tilde_negative_lemma():
    xi = left_eigenvector(LORENZ_A)
    for sigma in (0.1, 1.0, 10.0):
        assert lambda_max_sym(LORENZ_A, xi, sigma=sigma, which="tilde") < 0.0
    # sigma = 0 restores the zero eigenvalue
    assert lambda_max_sym(LORENZ_A, xi, sigma=0.0, which="tilde") == pytest.approx(0.0, abs=1e-12)


def test_lambda_max_tilde_random_metzler():
    rng = np.random.default_rng(42)
    for _ in range(20):
        N = int(rng.integers(2, 7))
        A = rng.uniform(0.1, 2.0, (N, N))
        np.fill_diagonal(A, 0.0)
        A -= np.diag(A.sum(axis=1))
        xi = left_eigenvector(A)
        sigma = float(rng.uniform(0.1, 10.0))
        assert lambda_max_sym(A, xi, sigma=sigma, which="tilde") < 0.0


def test_lambda_max_hat_diagonal_case():
    xi = left_eigenvector(LORENZ_A)
    val = lambda_max_sym(LORENZ_A, xi, theta1=0.0, theta4=1.0, which="hat")
    assert val == pytest.approx(xi.max(), rel=1e-12)


def _lorenz_params(theta3=10.0, theta4=0.0):
    xi = left_eigenvector(LORENZ_A)
    return NetworkConditionParams(L_f=60.0, L_g=3.0, theta1=0.1, theta2=1.0,
                                  theta3=theta3, N=3, n=3, B=LORENZ_B, xi=xi,
                                  beta=0.0, eta=ETA_HALF, theta4=theta4,
                                  sigma=1.0, A=LORENZ_A)


def test_network_sign_condition_threshold():
    rep = check_network_theorem(_lorenz_params(theta3=10.0), variant="pinning")
    assert rep.details["theta3_required"] == pytest.approx(9.0)
    assert rep.epsilon2_max == pytest.approx(1.0)
    rep2 = check_network_theorem(_lorenz_params(theta3=9.0), variant="pinning")
    assert rep2.epsilon2_max == pytest.approx(0.0)
    assert not rep2.feasible


def test_network_theta3_scaling():
    # theta3 enters only the sign condition, never the eps-condition lhs
    a = check_network_theorem(_lorenz_params(theta3=10.0), variant="pinning")
    b = check_network_theorem(_lorenz_params(theta3=20.0), variant="pinning")
    assert a.lhs == pytest.approx(b.lhs, rel=1e-14)
    assert a.epsilon2_max == pytest.approx(1.0)
    assert b.epsilon2_max == pytest.approx(11.0)


def test_network_theta2_zero_drops_delay_terms():
    params = _lorenz_params(theta3=1.0)
    params.theta2 = 0.0
    rep = check_network_theorem(params, variant="pinning")
    lam = rep.details["lambda_term"]
    assert rep.lhs == pytest.approx(0.0 + 2 * 60.0 + lam)


@pytest.mark.parametrize("eps1", [-1.0, 0.0])
def test_eps1_must_be_positive(eps1):
    # Example 1 with c4 = 2 is infeasible: two-norm lhs 2.141 at the optimal
    # eps1.  eps1 = -1 used to give lhs -6.144 (feasible), and eps1 = 0 a
    # ZeroDivisionError; the theorems hold for eps1 > 0 only.
    g = StaticScalarGains(1.0, 2.0, 2.1, 2.0)
    beta, eta = asymptotics(RateFunction.power(0.1), DelayProfile.proportional(0.5))
    assert check_scalar_theorem(g, 1, beta, eta).lhs == pytest.approx(2.141, abs=1e-3)
    for norm in ("two", "one", "inf"):
        with pytest.raises(ValueError, match="eps1 must be > 0"):
            check_scalar_theorem(g, 1, beta, eta, norm=norm, eps1=eps1)
    for variant in ("pinning", "full"):
        with pytest.raises(ValueError, match="eps1 must be > 0"):
            check_network_theorem(_lorenz_params(), variant=variant, eps1=eps1)
    assert check_scalar_theorem(g, 1, beta, eta, eps1=1e-6).feasible is False


def test_settling_bound_arithmetic():
    g = StaticScalarGains(1.0, 2.0, 2.1, 3.5)
    rep = check_scalar_theorem(g, 1, 0.0, ETA_HALF, norm="two")
    assert rep.epsilon2_max == pytest.approx(0.1)
    assert settling_bound(rep, 5.0, kappa=0.9) == pytest.approx(5.0 + 1.0 / 0.09)
    # kappa -> 1 approaches the tightest admissible bound
    assert settling_bound(rep, 5.0, kappa=1.0 - 1e-12) == pytest.approx(5.0 + 1.0 / rep.epsilon2_max, rel=1e-9)
    with pytest.raises(ValueError):
        settling_bound(rep, 5.0, kappa=1.0)


def test_settling_bound_infeasible():
    g = StaticScalarGains(1.0, 2.0, 2.0, 3.5)  # c3 = |c2|: zero margin
    rep = check_scalar_theorem(g, 1, 0.0, ETA_HALF, norm="two")
    assert not rep.feasible
    with pytest.raises(InfeasibleError):
        settling_bound(rep, 5.0)


def test_adaptive_settling_bound():
    g = StaticScalarGains(1.0, 2.0, 2.1, 3.5)
    rep = check_scalar_theorem(g, 1, 0.0, ETA_HALF, norm="two")
    t4 = adaptive_settling_bound(rep, T3=3.0, c3_star=2.1, c4_star=3.5,
                                 d1=0.1, d3=0.1, kappa=0.9)
    eps2 = 0.9 * rep.epsilon2_max
    expected = 3.0 + (1.0 + 2.1 ** 2 / 0.2 + 3.5 ** 2 / 0.2) / eps2
    assert t4 == pytest.approx(expected, rel=1e-12)
