import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fintstab.conditions import (InfeasibleError, check_network_theorem,
                                 check_scalar_theorem, lambda_max_sym,
                                 left_eigenvector, optimal_eps1, settling_bound)
from fintstab.cli import EXAMPLE2
from fintstab.config import adaptive_hook, load_config
from fintstab.control import (NetworkAdaptiveHook, NetworkControlSpec, StaticScalarGains,
                              static_scalar_control)
from fintstab.delays import DelayProfile, RateFunction, asymptotics
from fintstab.integrate import HistoryTrajectory, delayed_linear_rhs
from fintstab.network import (LORENZ_A, LORENZ_BOX, NetworkModel, _error_rhs,
                              lorenz_jacobian_norm, lorenz_lipschitz_bound, lorenz_preset,
                              sin_plus_linear)

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


@pytest.mark.parametrize("norm", ["two", "one", "inf"])
@pytest.mark.parametrize("eps1", [None, 0.7])
def test_infinite_eta(norm, eps1):
    # eta = inf (an exponential rate under a proportional delay): a delayed
    # term makes the lhs inf and the report infeasible, with the sign margin
    # kept; at c2 = 0 there is no delayed term, so the lhs is the delay-free one
    beta = 0.3
    rep = check_scalar_theorem(StaticScalarGains(1.0, 2.0, 2.1, 3.5), 2, beta, math.inf,
                               norm=norm, eps1=eps1)
    assert rep.lhs == rep.c4_threshold == math.inf and not rep.feasible
    assert rep.epsilon2_max == pytest.approx((2 if norm == "one" else 1) * 0.1)
    free = StaticScalarGains(1.0, 0.0, 2.1, 3.5)
    rep = check_scalar_theorem(free, 2, beta, math.inf, norm=norm, eps1=eps1)
    assert rep.lhs == check_scalar_theorem(free, 2, beta, 0.0, norm=norm, eps1=eps1).lhs
    assert rep.lhs == beta + (2.0 if norm == "two" else 1.0) * (1.0 - 3.5)
    assert rep.feasible and math.isfinite(rep.c4_threshold)


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


def _separate_one_inf_terms(c1, c2, c3, c4, m, beta, eta, norm):
    """(lhs, c4_threshold, epsilon2_max) of the 1- and inf-norm theorems as
    two separate formulas, each in its own operation order."""
    ac2 = abs(c2)
    if norm == "one":
        delay_term = ac2 * m * (1.0 + eta) if ac2 else 0.0
        margin = m * (c3 - ac2)
    else:
        delay_term = ac2 * (1.0 + eta) if ac2 else 0.0
        margin = c3 - ac2
    return beta + (c1 - c4) + delay_term, c1 + beta + delay_term, margin


_gain = st.floats(0.0, 1e3) | st.sampled_from([0.0, 2.1, 3.5])


@settings(max_examples=300, deadline=None)
@given(c1=st.floats(-1e3, 1e3), c2=st.sampled_from([0.0, -0.0]) | st.floats(-1e3, 1e3),
       c3=_gain, c4=_gain, m=st.integers(1, 64), beta=st.floats(-10.0, 10.0),
       eta=st.floats(0.0, 1e3) | st.sampled_from([0.0, ETA_HALF, math.inf]))
def test_one_and_inf_norm_reports_are_their_separate_formulas_bitwise(c1, c2, c3, c4, m,
                                                                      beta, eta):
    """The one branch that serves both norms, with weight w = m or 1, gives
    the lhs, c4 threshold and sign margin of the two separate formulas bit
    for bit, at c2 = +-0.0 and at an infinite eta too."""
    gains = StaticScalarGains(c1, c2, c3, c4)
    for norm in ("one", "inf"):
        rep = check_scalar_theorem(gains, m, beta, eta, norm=norm)
        want = _separate_one_inf_terms(c1, c2, c3, c4, m, beta, eta, norm)
        got = (rep.lhs, rep.c4_threshold, rep.epsilon2_max)
        assert got == want
        assert [v.hex() for v in got] == [v.hex() for v in want]
        assert math.isnan(rep.eps1_optimal)
        assert rep.feasible == (want[0] < 0.0 and c3 - abs(c2) > 0.0)


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
    # M = theta1*A - theta4*I with theta1 = 0, theta4 = 1 is -I: Xi*M = -Xi
    xi = left_eigenvector(LORENZ_A)
    val = lambda_max_sym(LORENZ_A, xi, theta1=0.0, theta4=1.0, which="hat")
    assert val == pytest.approx(-xi.min(), rel=1e-12)


# the Lorenz preset's network with L_f = 60, beta = 0 and eta = ETA_HALF
LORENZ_60 = replace(lorenz_preset().model, L_f=60.0)


def _pinning(theta3=10.0):
    return NetworkControlSpec(kind="pinning", theta3=theta3, sigma=1.0)


def test_network_sign_condition_threshold():
    rep = check_network_theorem(LORENZ_60, _pinning(theta3=10.0), 0.0, ETA_HALF)
    assert rep.details["theta3_required"] == pytest.approx(9.0)
    assert rep.epsilon2_max == pytest.approx(1.0)
    rep2 = check_network_theorem(LORENZ_60, _pinning(theta3=9.0), 0.0, ETA_HALF)
    assert rep2.epsilon2_max == pytest.approx(0.0)
    assert not rep2.feasible


def test_network_theta3_scaling():
    # theta3 enters only the sign condition, never the eps-condition lhs
    a = check_network_theorem(LORENZ_60, _pinning(theta3=10.0), 0.0, ETA_HALF)
    b = check_network_theorem(LORENZ_60, _pinning(theta3=20.0), 0.0, ETA_HALF)
    assert a.lhs == pytest.approx(b.lhs, rel=1e-14)
    assert a.epsilon2_max == pytest.approx(1.0)
    assert b.epsilon2_max == pytest.approx(11.0)


def test_network_theta2_zero_drops_delay_terms():
    model = replace(LORENZ_60, theta2=0.0)
    rep = check_network_theorem(model, _pinning(theta3=1.0), 0.0, ETA_HALF)
    lam = rep.details["lambda_term"]
    assert rep.lhs == pytest.approx(0.0 + 2 * 60.0 + lam)


def test_network_condition_variant_follows_the_control_kind():
    ids = {kind: check_network_theorem(LORENZ_60, NetworkControlSpec(kind=kind, theta3=10.0),
                                       0.0, ETA_HALF).theorem_id
           for kind in ("pinning", "full", "none")}
    assert ids == {"pinning": "network_pinning", "full": "network_full",
                   "none": "network_full"}


def test_kind_none_certifies_no_feedback_whatever_gains_its_spec_holds():
    """A kind none run adds no feedback, so its condition takes theta3 = theta4
    = 0: gains set on the spec must not make it feasible."""
    model = lorenz_preset().model
    bare = check_network_theorem(model, NetworkControlSpec("none"), 0.0, ETA_HALF)
    loaded = check_network_theorem(model, NetworkControlSpec("none", theta3=100.0,
                                                             theta4=1000.0), 0.0, ETA_HALF)
    assert loaded == bare
    assert (loaded.theorem_id, loaded.feasible) == ("network_full", False)
    assert loaded.lhs == pytest.approx(235.97, abs=0.005)


# -- the condition's linear term against the integrated error dynamics ---------

def _zero_field(rows):
    return [[0.0] * len(r) for r in rows]


def _implemented_operator(model, control, hook=None):
    """The linear closed-loop operator L that `_error_rhs` integrates (under
    the adaptive `hook`'s gains, when given), probed with f = 0 and
    theta2 = 0 on the unit error vectors.  Its sign feedback is the same
    -theta3 sgn(e_j) at e_j and 2 e_j, so the difference of the two rhs
    values is L's column j."""
    probe = replace(model, f=_zero_field, theta2=0.0)
    dim = model.N * model.n
    drive = HistoryTrajectory(0.0, 0.01, np.zeros(dim), 1)
    rhs = _error_rhs(probe, drive, control, hook)

    def at(e):
        etraj = HistoryTrajectory(0.0, 0.01, e, 1)
        return np.array(rhs(0.0, etraj.states[0], etraj))

    return np.column_stack([at(2.0 * e) - at(e) for e in np.eye(dim)])


def _implemented_lambda_term(model, control, hook=None):
    """2 lambda_max({(Xi x I_n) L}^s) of the implemented operator L."""
    xi = left_eigenvector(model.A)
    XL = np.kron(np.diag(xi), np.eye(model.n)) @ _implemented_operator(model, control, hook)
    return 2.0 * float(np.linalg.eigvalsh(0.5 * (XL + XL.T))[-1])


def _assert_lambda_term_is_implemented(model, control, hook=None):
    """The condition's lambda term is the implemented one.  Under an adaptive
    hook its gains are frozen at [lin, 0] and the condition reads theta1 = lin:
    the pinning law adapts theta1, whose pinned node takes lin * sigma."""
    checked = model if hook is None else replace(model, theta1=hook.gains[0])
    rep = check_network_theorem(checked, control, 0.0, ETA_HALF)
    want = _implemented_lambda_term(model, control, hook)
    assert rep.details["lambda_term"] == pytest.approx(want, rel=1e-12)
    return want


def _pinning_hook(model, lin):
    """The adaptive pinning law's hook, its gains set to [lin, 0]."""
    hook = NetworkAdaptiveHook(0.05, 0.05, 0.02, RateFunction.power(0.1), model.delays,
                               variant="theta1_theta3")
    hook.gains = [lin, 0.0]
    return hook


def test_lambda_term_is_the_implemented_operator_on_the_lorenz_preset():
    model = lorenz_preset().model
    pin = _assert_lambda_term_is_implemented(
        model, NetworkControlSpec(kind="pinning", theta3=10.0, sigma=2.0))
    full = _assert_lambda_term_is_implemented(
        model, NetworkControlSpec(kind="full", theta3=10.0, theta4=30.0))
    assert pin == pytest.approx(-0.0186181, abs=1e-7)
    assert full == pytest.approx(-10.16572, abs=1e-5)
    _assert_lambda_term_is_implemented(model, NetworkControlSpec(kind="none"))
    # the law a `pinning` config's adaptive block builds
    cfg = load_config(dict(EXAMPLE2, control={"kind": "pinning", "sigma": 2.0,
                                              "adaptive": {"enabled": True}}))
    hook = adaptive_hook(cfg)
    hook.gains = [5.0, 0.0]
    adaptive = _assert_lambda_term_is_implemented(model, cfg.control, hook)
    assert adaptive == pytest.approx(5.0 / 0.1 * pin, rel=1e-12)


@st.composite
def irreducible_networks(draw):
    """A drawn network: A Metzler with zero row sums, irreducible through a
    ring of positive weights, plus random extra edges."""
    N, n = draw(st.integers(2, 5)), draw(st.integers(1, 3))
    weight = st.floats(0.1, 2.0)
    A = np.array([[draw(weight) if j == (i + 1) % N or draw(st.booleans()) else 0.0
                   for j in range(N)] for i in range(N)])
    np.fill_diagonal(A, 0.0)
    A -= np.diag(A.sum(axis=1))
    B = np.array([[draw(st.floats(-1.0, 1.0)) for _ in range(N)] for _ in range(N)])
    return NetworkModel(N=N, n=n, A=A, B=B, theta1=draw(st.floats(0.05, 2.0)),
                        theta2=draw(st.floats(0.0, 2.0)), f=_zero_field,
                        g=sin_plus_linear, L_f=1.0, L_g=3.0,
                        delays=DelayProfile.constant(0.0))


@settings(max_examples=40, deadline=None)
@given(irreducible_networks(), st.floats(0.1, 10.0), st.floats(0.0, 50.0),
       st.floats(0.0, 5.0), st.floats(0.01, 20.0))
def test_lambda_term_is_the_implemented_operator_on_drawn_networks(model, sigma, theta4,
                                                                   theta3, lin):
    pinning = NetworkControlSpec(kind="pinning", theta3=theta3, sigma=sigma)
    _assert_lambda_term_is_implemented(model, pinning)
    _assert_lambda_term_is_implemented(
        model, NetworkControlSpec(kind="full", theta3=theta3, theta4=theta4))
    _assert_lambda_term_is_implemented(model, pinning, _pinning_hook(model, lin))


# -- the scalar condition's terms against the implemented rhs --------------------

def _scalar_rhs_at(c1, c2, gains, p, d):
    """`delayed_linear_rhs` under the sign law at state p, delayed value d.

    A constant delay of one step h = 1 reads row 0 at step 1: the history is
    [d, p] and the rhs runs as `integrate` calls it at step 1."""
    profile = DelayProfile.constant(1.0)
    traj = HistoryTrajectory.from_arrays(0.0, 1.0, np.stack([d, p]))
    rhs = delayed_linear_rhs(c1, c2, profile,
                             control=lambda t, x: static_scalar_control(x, gains))
    return np.array(rhs(1.0, traj.states[1], traj))


def _probed_terms(c1, c2, gains, m):
    """(linear coefficient, delayed coefficient, sign gain) of the implemented
    scalar closed loop, probed on an m-dim state in the positive orthant,
    where sgn p = 1: f(p, d) = a p + b d - c3 componentwise."""
    ones, zero = np.ones(m), np.zeros(m)
    f = lambda p, d: _scalar_rhs_at(c1, c2, gains, p, d)
    a = (f(2.0 * ones, zero) - f(ones, zero)) / 1.0
    b = (f(ones, 2.0 * ones) - f(ones, ones)) / 1.0
    c3 = -(f(ones, zero) - a)
    for v in (a, b, c3):   # decoupled: the same coefficient on every component
        assert np.ptp(v) == 0.0
    return float(a[0]), float(b[0]), float(c3[0])


@settings(max_examples=60, deadline=None)
@given(c1=st.floats(-3.0, 3.0), c2=st.floats(-3.0, 3.0), c3=st.floats(0.0, 6.0),
       c4=st.floats(0.0, 6.0), m=st.integers(1, 3), q=st.floats(0.05, 0.9))
def test_scalar_condition_terms_are_the_implemented_rhs(c1, c2, c3, c4, m, q):
    """The scalar theorem's c1 - c4 and |c2| terms and its sign margin
    c3 - |c2| are those of `delayed_linear_rhs` with the sign law, in every
    norm: the two-norm lhs is beta + 2a + 2|b| sqrt(m (1 + eta)) at the
    optimal eps1, the one-norm beta + a + |b| m (1 + eta) and the inf-norm
    beta + a + |b| (1 + eta), with a, b the probed coefficients."""
    gains = StaticScalarGains(c1, c2, c3, c4)
    a, b, sign = _probed_terms(c1, c2, gains, m)
    assert a == pytest.approx(c1 - c4, abs=1e-12)
    assert b == pytest.approx(c2, abs=1e-12) and sign == pytest.approx(c3, abs=1e-12)
    beta, eta = asymptotics(RateFunction.power(0.1), DelayProfile.proportional(q))
    want = {"two": beta + 2.0 * a + 2.0 * abs(b) * math.sqrt(m * (1.0 + eta)),
            "one": beta + a + abs(b) * m * (1.0 + eta),
            "inf": beta + a + abs(b) * (1.0 + eta)}
    for norm, lhs in want.items():
        rep = check_scalar_theorem(gains, m, beta, eta, norm=norm)
        assert rep.lhs == pytest.approx(lhs, rel=1e-12, abs=1e-12)
        assert rep.epsilon2_max == pytest.approx((m if norm == "one" else 1)
                                                 * (sign - abs(b)), abs=1e-12)
        assert rep.feasible == (rep.lhs < 0.0 and c3 - abs(c2) > 0.0)


# -- the network's Lipschitz constants against the implemented f and g -----------

@settings(max_examples=200, deadline=None)
@given(st.tuples(*(st.floats(float(lo), float(hi)) for lo, hi in LORENZ_BOX)))
def test_lorenz_lipschitz_bound_holds_over_the_box(x):
    """L_f, the corner maximum, bounds the Jacobian norm at every drawn point
    of LORENZ_BOX, and the Jacobian is that of the implemented field f."""
    model = lorenz_preset().model
    x = np.array(x)
    assert lorenz_jacobian_norm(x) <= model.L_f * (1.0 + 1e-12)
    assert model.L_f == lorenz_lipschitz_bound()
    step = 1e-6   # f is quadratic: central differences are exact up to rounding
    J = np.column_stack([(np.array(model.f([list(x + step * e)])[0])
                          - np.array(model.f([list(x - step * e)])[0])) / (2.0 * step)
                         for e in np.eye(3)])
    assert np.linalg.norm(J, 2) == pytest.approx(lorenz_jacobian_norm(x), rel=1e-6)


def test_sampled_lorenz_jacobian_norms_stay_under_the_bound():
    rng = np.random.default_rng(7)
    xs = rng.uniform(LORENZ_BOX[:, 0], LORENZ_BOX[:, 1], size=(2000, 3))
    norms = [lorenz_jacobian_norm(x) for x in xs]
    bound = lorenz_lipschitz_bound()
    assert max(norms) <= bound
    assert max(norms) > 0.8 * bound   # the bound is near the sampled peak


@settings(max_examples=200, deadline=None)
@given(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0))
def test_l_g_bounds_the_slope_of_g(x, y):
    """L_g = 3 bounds |g(x) - g(y)| / |x - y| for the preset's g = sin + 2x."""
    model = lorenz_preset().model
    assert model.L_g == 3.0
    gx, gy = model.g(np.array([x, y]))
    assert abs(gx - gy) <= model.L_g * abs(x - y) * (1.0 + 1e-12) + 1e-12


def test_l_g_is_the_sampled_peak_slope_of_g():
    x = np.linspace(-1e-3, 1e-3, 101)   # cos x + 2 peaks at 3 at x = 0
    slopes = np.diff(sin_plus_linear(x)) / np.diff(x)
    assert slopes.max() <= 3.0 and slopes.max() > 3.0 - 1e-6


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
    for kind in ("pinning", "full"):
        with pytest.raises(ValueError, match="eps1 must be > 0"):
            check_network_theorem(LORENZ_60, NetworkControlSpec(kind=kind, theta3=10.0),
                                  0.0, ETA_HALF, eps1=eps1)
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
