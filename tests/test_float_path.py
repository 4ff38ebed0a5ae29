"""The scalar step path on Python floats against reference copies of its NumPy form.

The step loop keeps the state as a list of floats; `delayed_linear_rhs`, the
sign law behind `static_scalar_control` and `ScalarAdaptiveHook.control`, and
`AdaptiveHook.step` compute on floats too.  Elementwise + - * /, abs and sign
are the same IEEE operations in Python and NumPy, so every output must be
bitwise equal to the NumPy form kept here.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fintstab.cli as cli
from fintstab.config import load_config
from fintstab.control import (ScalarAdaptiveHook, StaticScalarGains,
                              _sign_law, gain_rates, static_scalar_control)
from fintstab.delays import DelayProfile, RateFunction
from fintstab.integrate import (DivergenceError, IntegratorConfig,
                                RunningWindowSup, delayed_linear_rhs,
                                diag_cols, integrate)
from test_integrate import _reference_integrate, delayed_values


# -- reference copies of the NumPy forms ---------------------------------------

def _ref_delayed_linear_rhs(c1, c2, profile, control=None):
    def rhs(t, p, traj):
        # the step's delayed values, looked up alone
        cols = diag_cols(profile.n_components, traj.dim)
        dp = c1 * p + c2 * delayed_values(profile, traj, traj._filled, cols).ravel()
        if control is not None:
            dp = dp + control(t, p)
        return dp

    rhs.at_rest = None   # run passes it on; the reference loop steps every step
    return rhs


def _ref_static_scalar_control(p, gains):
    p = np.asarray(p, dtype=float)
    return -np.sign(p) * (gains.c3 + gains.c4 * np.abs(p))


def _ref_hook_control(self, t, p):
    c3, c4 = self.gains
    return -np.sign(p) * (c3 + c4 * np.abs(p))


def _ref_hook_step(self, t, x, traj):
    if self._tracker is None:
        self._tracker = RunningWindowSup(traj.t0, traj.h, self.profile)
    k = len(self._tracker.values)
    value = float(np.dot(x, x)) if self._squared else self._functional(x)
    self._tracker.push(value)
    d_lin, d_sign, self.mode = gain_rates(value, self.rate.mu(t), self._tracker.sup(k),
                                          self.rates, self._squared, self.zero_tol)
    g = np.array(self.gains)   # the update on a float64 array, written back
    g[self._lin] += traj.h * d_lin
    g[self._sign] += traj.h * d_sign
    self.gains[:] = g.tolist()


def _reference_run(doc):
    """run(load_config(doc)) through the NumPy forms and the reference loop."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "integrate", _reference_integrate)
        mp.setattr(cli, "delayed_linear_rhs", _ref_delayed_linear_rhs)
        mp.setattr(cli, "static_scalar_control", _ref_static_scalar_control)
        mp.setattr(ScalarAdaptiveHook, "control", _ref_hook_control)
        mp.setattr(ScalarAdaptiveHook, "step", _ref_hook_step)
        mp.setattr(ScalarAdaptiveHook, "sign_gain",
                   property(lambda self: self.gains[self._sign]))
        return _outcome(doc)


def _outcome(doc):
    try:
        res = cli.run(load_config(doc))
    except DivergenceError as exc:
        return "diverged", exc.blow_up_time
    gains = None if res.traj.gains is None else res.traj.gains.tobytes()
    return (res.traj.states.tobytes(), gains, res.T1.hex(), res.T_settle.hex(),
            res.phases.envelope_violations)


# -- the differential oracle ---------------------------------------------------

_P0 = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310,
                                 1e-3, -1e-3]),
                st.floats(-3.0, 3.0))


def _delay(data, dim):
    n = data.draw(st.sampled_from([1, dim]), label="delay components")
    kind = data.draw(st.sampled_from(["proportional", "constant", "custom_grid"]),
                     label="delay kind")
    if kind == "proportional":
        return {"kind": kind, "q": data.draw(st.sampled_from([0.5, 0.3])), "n_components": n}
    if kind == "constant":
        return {"kind": kind, "pi": data.draw(st.sampled_from([0.0, 0.013, 0.25])),
                "n_components": n}
    coeffs = data.draw(st.lists(st.sampled_from([0.0, 0.2, 0.5]), min_size=n, max_size=n))
    return {"kind": kind, "coefficients": coeffs, "envelope_q": 0.5}


@settings(max_examples=120, deadline=None)
@given(dim=st.integers(1, 3), adaptive=st.booleans(),
       norm=st.sampled_from(["two", "one", "inf"]), data=st.data())
def test_scalar_runs_match_the_numpy_forms_bitwise(dim, adaptive, norm, data):
    p0 = data.draw(st.lists(_P0, min_size=dim, max_size=dim), label="p0")
    c1, c2 = (data.draw(st.floats(-2.0, 2.0), label=name) for name in ("c1", "c2"))
    doc = {"schema_version": 1, "kind": "scalar",
           "system": {"c1": c1, "c2": c2, "initial_state": p0},
           "delay": _delay(data, dim),
           "rate": {"kind": "power", "exponent": 0.1},
           "integrator": {"horizon": 2.0, "h": 0.01}}
    if adaptive:
        rates = {d: data.draw(st.floats(0.05, 2.0), label=d) for d in ("d1", "d2", "d3")}
        doc["adaptive"] = dict(rates, enabled=True, norm=norm)
    else:
        doc["gains"] = {name: data.draw(st.floats(0.0, 4.0), label=name)
                        for name in ("c3", "c4")}
        doc["adaptive"] = {"norm": norm}
    assert _outcome(doc) == _reference_run(doc)


def test_the_adaptive_preset_matches_the_numpy_forms_bitwise():
    # 40,000 steps through all three switch modes
    doc = cli._document("example1_adaptive")
    assert _outcome(doc) == _reference_run(doc)


# -- the sign law ----------------------------------------------------------------

_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, 2.0, -2.0]


@pytest.mark.parametrize("c3, c4", [(2.1, 3.5), (0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
def test_sign_law_matches_np_sign_bitwise(c3, c4):
    p = np.array(_SPECIAL)
    with np.errstate(invalid="ignore"):   # 0 * inf in the reference
        want = -np.sign(p) * (c3 + c4 * np.abs(p))
    assert np.asarray(_sign_law(_SPECIAL, c3, c4)).tobytes() == want.tobytes()
    assert np.asarray(_sign_law(p, c3, c4)).tobytes() == want.tobytes()


def test_sign_law_is_negative_zero_at_zero_and_nan_at_nan():
    for v in (0.0, -0.0):
        u, = _sign_law([v], 2.1, 3.5)
        assert u == 0.0 and math.copysign(1.0, u) == -1.0
    assert math.isnan(_sign_law([math.nan], 2.1, 3.5)[0])


def test_both_controls_return_the_sign_law():
    g = StaticScalarGains(1.0, 2.0, 2.1, 3.5)
    p = [1.5, -0.0, -2e-310]
    assert static_scalar_control(p, g) == _sign_law(p, 2.1, 3.5)
    hook = ScalarAdaptiveHook(0.1, 0.1, 0.1, RateFunction.power(0.1),
                              DelayProfile.proportional(0.5))
    hook.gains[:] = [2.1, 3.5]
    assert hook.control(0.0, p) == _sign_law(p, 2.1, 3.5)


# -- what an rhs may return ------------------------------------------------------

@pytest.mark.parametrize("value", [np.array(-0.5), np.array([-0.5]), -0.5, [-0.5],
                                   np.array([-0.5, 0.25, 1.0], dtype=np.float32),
                                   [-0.5, 0.25, 1.0]],
                         ids=["0d", "shape1", "float", "list1", "float32", "list3"])
def test_an_rhs_result_broadcasts_against_the_state_as_numpy_does(value):
    cfg = IntegratorConfig(horizon=1.0, h=0.1, zero_band=0.05)
    prof = DelayProfile.constant(0.0)
    trajs = [loop(lambda t, x, traj: value, [1.0, 0.02, -2.0], prof, cfg)
             for loop in (integrate, _reference_integrate)]
    assert trajs[0].states.tobytes() == trajs[1].states.tobytes()


def test_an_rhs_result_that_does_not_broadcast_raises():
    cfg = IntegratorConfig(horizon=1.0, h=0.1)
    for loop in (integrate, _reference_integrate):
        with pytest.raises(ValueError):
            loop(lambda t, x, traj: np.ones(2), [1.0, 0.0, -2.0],
                 DelayProfile.constant(0.0), cfg)


def test_delayed_linear_rhs_returns_floats():
    profile = DelayProfile.proportional(0.5)
    traj = integrate(delayed_linear_rhs(1.0, 2.0, profile,
                                        control=lambda t, p: np.array(-0.5)),
                     [2.0], profile, IntegratorConfig(horizon=0.5, h=0.01))
    got = delayed_linear_rhs(1.0, 2.0, profile)(traj.current_time, traj.states[-1], traj)
    assert type(got) is list and all(type(v) is float for v in got)


# -- the recorded history is not writable through a step's arguments --------------

def test_an_rhs_cannot_write_the_recorded_history():
    def rhs(t, x, traj):
        x[0] = 5.0
        return -x

    with pytest.raises(ValueError, match="read-only"):
        integrate(rhs, [1.0], DelayProfile.constant(0.0), IntegratorConfig(horizon=1.0, h=0.1))


def test_a_hook_cannot_write_the_recorded_history():
    class Hook:
        names, gains, sign_gain = ("g",), np.zeros(1), 0.0

        def step(self, t, x, traj):
            x *= 2.0

    with pytest.raises(ValueError, match="read-only"):
        integrate(lambda t, x, traj: -x, [1.0], DelayProfile.constant(0.0),
                  IntegratorConfig(horizon=1.0, h=0.1), gain_hook=Hook())


def test_the_step_argument_is_the_recorded_row():
    seen = []

    def rhs(t, x, traj):
        seen.append(x)
        return -x

    traj = integrate(rhs, [1.0, -2.0], DelayProfile.constant(0.0),
                     IntegratorConfig(horizon=1.0, h=0.1))
    assert np.array_equal(np.array(seen), traj.states[:-1])
