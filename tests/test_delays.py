import math

import numpy as np
import pytest

from fintstab.delays import (DelayProfile, NoClosedFormError, RateFunction,
                             asymptotics)


def test_proportional_delay_value():
    prof = DelayProfile.proportional(0.5)
    assert prof.delay_table([10.0]).tolist() == [[5.0]]
    assert prof.envelope(10.0) == 5.0


def test_zero_constant_delay():
    prof = DelayProfile.constant(0.0)
    assert prof.delay_table([7.0]).tolist() == [[0.0]]


def test_pairwise_sin_component():
    # pair (i=1, j=1) -> 0.5*(1 - 0.1*|sin 3|)*t
    prof = DelayProfile.pairwise_sin(3)
    expected = 0.5 * (1.0 - 0.1 * abs(math.sin(3))) * 10.0
    first = prof.delay_table([10.0])[0, 0]
    assert first == pytest.approx(4.92944, abs=1e-5)
    assert first == pytest.approx(expected, rel=1e-14)


def test_pairwise_sin_envelope_dominates():
    prof = DelayProfile.pairwise_sin(3)
    for t in np.linspace(0.0, 50.0, 23):
        d = prof.delays_at(t)
        assert (d >= 0.0).all()
        assert (d <= prof.envelope(t) + 1e-15).all()


def test_delay_errors():
    prof = DelayProfile.proportional(0.5)
    with pytest.raises(ValueError, match="negative time"):
        prof.delay_table([-1.0])
    with pytest.raises(ValueError):
        DelayProfile.proportional(1.0)
    with pytest.raises(ValueError):
        DelayProfile.constant(-0.5)


def test_asymptotics_power_proportional():
    beta, eta = asymptotics(RateFunction.power(0.1), DelayProfile.proportional(0.5))
    assert beta == 0.0
    assert eta == pytest.approx(2 ** 0.1 - 1.0, rel=1e-14)


def test_asymptotics_exponential_constant():
    beta, eta = asymptotics(RateFunction.exponential(0.3), DelayProfile.constant(0.0))
    assert (beta, eta) == (0.3, 0.0)
    beta, eta = asymptotics(RateFunction.exponential(0.01), DelayProfile.constant(2.0))
    assert beta == 0.01
    assert eta == pytest.approx(math.exp(0.02) - 1.0, rel=1e-12)
    assert eta == pytest.approx(0.020201, abs=1e-6)


def test_asymptotics_incompatible_pair():
    # a power rate has t**rho / (t - pi)**rho -> 1 under a constant delay
    assert asymptotics(RateFunction.power(0.1), DelayProfile.constant(1.0)) == (0.0, 0.0)
    # an exponential rate under a proportional envelope: mu(t)/mu(t - q t) =
    # exp(varpi q t) is unbounded, so eta is infinite
    assert asymptotics(RateFunction.exponential(0.1), DelayProfile.proportional(0.5)) == (
        0.1, math.inf)
    assert asymptotics(RateFunction.exponential(0.1),
                       DelayProfile.per_component_proportional([0.2, 0.4])) == (0.1, math.inf)


def test_asymptotics_overflow_has_no_closed_form():
    with pytest.raises(NoClosedFormError, match="overflows"):
        asymptotics(RateFunction.exponential(1000.0), DelayProfile.constant(1.0))
    with pytest.raises(NoClosedFormError, match="overflows"):
        asymptotics(RateFunction.power(1000.0), DelayProfile.proportional(0.999))


def test_mu_ratio_converges_to_one_plus_eta():
    rate = RateFunction.power(0.1)
    prof = DelayProfile.proportional(0.5)
    _, eta = asymptotics(rate, prof)
    for t in (1e3, 1e4, 1e5):
        ratio = rate.mu(t) / rate.mu(t - prof.envelope(t))
        assert ratio == pytest.approx(1.0 + eta, rel=1e-3)


def test_mu_dot_over_mu_matches_beta():
    rate = RateFunction.exponential(0.05)
    for t in np.linspace(1.0, 40.0, 17):
        dh = 1e-6
        num = (rate.mu(t + dh) - rate.mu(t - dh)) / (2 * dh)
        assert num / rate.mu(t) == pytest.approx(0.05, abs=1e-6)


def test_mu_nondecreasing_and_unbounded():
    for rate in (RateFunction.power(0.1), RateFunction.exponential(0.2)):
        ts = np.linspace(0.1, 100.0, 101)
        mus = np.array([rate.mu(t) for t in ts])
        assert (np.diff(mus) >= 0.0).all()
    assert RateFunction.power(0.1).mu(1e200) > 1e12


def test_monitor_start_defaults():
    assert RateFunction.power(0.1).default_monitor_start == 1.0
    assert RateFunction.exponential(0.1).default_monitor_start == 0.0


def test_per_component_validation():
    with pytest.raises(ValueError):
        DelayProfile.per_component_proportional([0.2, 0.7], envelope_q=0.5)
    prof = DelayProfile.per_component_proportional([0.2, 0.4], envelope_q=0.5)
    assert prof.n_components == 2
    assert prof.delay_table([2.0])[0, 1] == pytest.approx(0.8)



@pytest.mark.parametrize("make", [
    lambda: DelayProfile.constant(math.nan),
    lambda: DelayProfile.constant(math.inf),
    lambda: DelayProfile.proportional(math.nan),
    lambda: DelayProfile.per_component_proportional([math.nan], envelope_q=0.5),
    lambda: DelayProfile.per_component_proportional([0.2, math.nan]),
    lambda: DelayProfile.pairwise_sin(2, base=math.nan),
    lambda: RateFunction.power(math.nan),
    lambda: RateFunction.power(math.inf),
    lambda: RateFunction.exponential(math.nan),
    lambda: RateFunction.exponential(math.inf),
], ids=["constant-nan", "constant-inf", "proportional-nan", "per-component-nan",
        "per-component-nan-max", "pairwise-sin-nan", "power-nan", "power-inf",
        "exponential-nan", "exponential-inf"])
def test_non_finite_parameters_are_rejected(make):
    # a NaN fails every comparison, so each bound is written to fail on it
    with pytest.raises(ValueError):
        make()


def test_profiles_compare_and_hash_by_value():
    pairs = [(DelayProfile.proportional(0.5, 2), DelayProfile.proportional(0.5, 2)),
             (DelayProfile.constant(0.3, 3), DelayProfile.constant(0.3, 3)),
             (DelayProfile.per_component_proportional([0.2, 0.4], envelope_q=0.5),
              DelayProfile.per_component_proportional(np.array([0.2, 0.4]), envelope_q=0.5)),
             (DelayProfile.pairwise_sin(3), DelayProfile.pairwise_sin(3))]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
    assert DelayProfile.proportional(0.5, 2) != DelayProfile.proportional(0.5, 3)
    assert DelayProfile.per_component_proportional([0.2, 0.4], envelope_q=0.5) != \
        DelayProfile.per_component_proportional([0.2, 0.3], envelope_q=0.5)
    assert DelayProfile.constant(0.3, 2) != DelayProfile.proportional(0.3, 2)
    assert all(type(s) is float for s in DelayProfile.pairwise_sin(2).slopes)
