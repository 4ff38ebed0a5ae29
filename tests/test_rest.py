"""A settled run rests: `integrate(..., rests_at_zero=True)` stops stepping once
the state and every row a later step can read are exactly zero, and fills the
rest of the horizon.  Every output must equal full stepping bitwise."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fintstab.cli as cli
import fintstab.integrate as fi
import test_integrate
from fintstab.config import load_config
from fintstab.control import StaticScalarGains, static_scalar_control
from fintstab.delays import DelayProfile
from fintstab.integrate import IntegratorConfig, delayed_linear_rhs, integrate
from test_integrate import _RampHook, _reference_integrate


def _counted(loop, calls):
    """`loop` with its rhs wrapped to count calls into calls[0]."""

    def run(rhs, *args, **kwargs):
        def counted(t, x, traj):
            calls[0] += 1
            return rhs(t, x, traj)

        return loop(counted, *args, **kwargs)

    return run


def _counting(project, hits):
    """A zero-band projection that adds the components it zeroes to hits[0]."""

    def counted(x_old, x_new, band):
        out = project(x_old, x_new, band)
        hits[0] += int(((out == 0.0) & (x_new != 0.0)).sum())
        return out

    return counted


def _run(doc, loop):
    """cli.run of doc through `loop`: its outputs with the zero band's hits and
    the hook's final mode and number of mode changes (None without a hook),
    its rhs calls and its steps.  A step that rests too early would skip the
    band hits of the delayed rows it missed."""
    calls, hooks, changes, hits = [0], [], [0], [0]
    make_hook = cli.adaptive_hook

    def adaptive_hook(cfg):
        hook = make_hook(cfg)
        if hook is not None:
            step = hook.step

            def counted_step(t, x, traj):
                before = hook.mode
                step(t, x, traj)
                changes[0] += hook.mode != before

            hook.step = counted_step
            hooks.append(hook)
        return hook

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "integrate", _counted(loop, calls))
        mp.setattr(cli, "adaptive_hook", adaptive_hook)
        mp.setattr(fi, "_project_zero_band", _counting(fi._project_zero_band, hits))
        mp.setattr(test_integrate, "_reference_zero_band",
                   _counting(test_integrate._reference_zero_band, hits))
        res = cli.run(load_config(doc))
    gains = None if res.traj.gains is None else res.traj.gains.tobytes()
    bound = None if res.settle_bound is None else res.settle_bound.hex()
    hook = (hooks[0].mode, changes[0]) if hooks else None
    outputs = (res.traj.states.tobytes(), gains, res.T1.hex(), res.T_settle.hex(), bound,
               hook, hits[0])
    return outputs, calls[0], res.traj.states.shape[0] - 1


def _doc(p0, delay, horizon, h):
    return {"schema_version": 1, "kind": "scalar",
            "system": {"c1": 1.0, "c2": 2.0, "initial_state": p0},
            "delay": delay, "rate": {"kind": "power", "exponent": 0.1},
            "integrator": {"horizon": horizon, "h": h}}


_DELAYS = [{"kind": "proportional", "q": 0.5}, {"kind": "proportional", "q": 0.2},
           {"kind": "constant", "pi": 0.0}, {"kind": "constant", "pi": 0.05},
           {"kind": "constant", "pi": 0.3}]
RESTING_SHARE = 0.5   # of the drawn runs, at least this many must stop stepping early


def test_runs_rest_bitwise_equal_to_full_stepping():
    """Static and adaptive gains, all three norms, proportional and constant
    delays (pi = 0 included), drawn p0, gains and horizons: cli.run equals the
    reference loop, which steps every step, bitwise, and at least
    RESTING_SHARE of the runs rest."""
    rested = []

    @settings(max_examples=60, deadline=None)
    @given(adaptive=st.booleans(), norm=st.sampled_from(["two", "one", "inf"]),
           delay=st.sampled_from(_DELAYS), dim=st.integers(1, 2),
           p0=st.floats(-3.0, 3.0), horizon=st.sampled_from([4.0, 8.0]),
           h=st.sampled_from([0.02, 0.01]), data=st.data())
    def check(adaptive, norm, delay, dim, p0, horizon, h, data):
        doc = _doc([p0] * dim, delay, horizon, h)
        if adaptive:
            rates = {d: data.draw(st.floats(0.5, 3.0), label=d) for d in ("d1", "d2", "d3")}
            doc["adaptive"] = dict(rates, enabled=True, norm=norm)
        else:
            doc["adaptive"] = {"norm": norm}
            doc["gains"] = {"c3": data.draw(st.floats(2.1, 6.0), label="c3"),
                            "c4": data.draw(st.floats(3.5, 8.0), label="c4")}
        got, calls, steps = _run(doc, integrate)
        want, ref_calls, ref_steps = _run(doc, _reference_integrate)
        assert got == want
        assert steps == ref_steps == ref_calls
        rested.append(calls < steps)

    check()
    assert sum(rested) >= RESTING_SHARE * len(rested), f"{sum(rested)} of {len(rested)} rested"


def test_example1_rests_after_settling():
    """The example1 preset settles at t = 1.294 and reads t/2: it rests by
    step 2,600 of 30,000 (it stepped all 30,000 before resting existed)."""
    got, calls, steps = _run(cli._document("example1"), integrate)
    assert steps == 30000
    assert calls <= 2600
    assert got == _run(cli._document("example1"), _reference_integrate)[0]


def _settling_run(profile, rests_at_zero, h=1e-3, horizon=4.0):
    """Example 1 under `profile`, integrated directly: (trajectory, rhs calls)."""
    gains = StaticScalarGains(1.0, 2.0, 2.1, 3.5)
    rhs = delayed_linear_rhs(1.0, 2.0, profile,
                             control=lambda t, p: static_scalar_control(p, gains))
    calls = [0]
    cfg = IntegratorConfig(horizon=horizon, h=h, zero_band=gains.c3 * h)
    traj = _counted(integrate, calls)(rhs, [2.0], profile, cfg, rests_at_zero=rests_at_zero)
    return traj, calls[0]


def test_rests_at_zero_false_steps_every_step():
    profile = DelayProfile.proportional(0.5)
    traj, calls = _settling_run(profile, rests_at_zero=False)
    rested, rest_calls = _settling_run(profile, rests_at_zero=True)
    assert calls == 4000 and rest_calls < 4000
    assert traj.states.tobytes() == rested.states.tobytes()


@pytest.mark.parametrize("pi", [0.0, 0.02, 0.3])
def test_a_constant_delay_run_rests_within_its_delay_of_settling(pi):
    """Stepping ends within pi/h + 3 steps of the first row from which the
    state stays exactly zero."""
    h = 1e-3
    traj, calls = _settling_run(DelayProfile.constant(pi), rests_at_zero=True, h=h)
    moving = np.flatnonzero(traj.states.any(axis=1))
    settled = int(moving[-1]) + 1
    assert calls < 4000
    assert calls <= settled + pi / h + 3
    full, _ = _settling_run(DelayProfile.constant(pi), rests_at_zero=False, h=h)
    assert traj.states.tobytes() == full.states.tobytes()


def test_no_rest_while_the_initial_history_can_still_be_read():
    """A zero state whose delayed reads still reach the initial history before
    t0, row 0 (the constant extension of p0 = 1), must keep stepping:
    p' = -11 p + p(t - 1) reaches exactly 0 at step 1 and leaves it at step 2."""
    profile = DelayProfile.constant(1.0)
    cfg = IntegratorConfig(horizon=3.0, h=0.1)
    runs = [integrate(delayed_linear_rhs(-11.0, 1.0, profile), [1.0], profile, cfg,
                      rests_at_zero=rest) for rest in (True, False)]
    assert runs[0].states.tobytes() == runs[1].states.tobytes()
    assert runs[0].states[1, 0] == 0.0
    assert runs[0].states[2, 0] == pytest.approx(0.1)   # step 1 reads row 0 = 1.0 before t0


@pytest.mark.parametrize("p0", [0.0, -0.0])
def test_a_run_that_starts_at_zero_rests_bitwise(p0):
    """-0.0 stays -0.0 under the sign law, so a -0.0 run cannot take +0.0 fills."""
    profile = DelayProfile.proportional(0.5)
    gains = StaticScalarGains(1.0, 2.0, 2.1, 3.5)
    rhs = lambda: delayed_linear_rhs(1.0, 2.0, profile,
                                     control=lambda t, p: static_scalar_control(p, gains))
    cfg = IntegratorConfig(horizon=1.0, h=0.01)
    rested, full = (integrate(rhs(), [p0], profile, cfg, rests_at_zero=rest)
                    for rest in (True, False))
    assert rested.states.tobytes() == full.states.tobytes()
    assert math.copysign(1.0, rested.states[-1, 0]) == math.copysign(1.0, p0)


def test_moving_gains_keep_a_zero_run_stepping():
    """A hook whose gains move at a zero state breaks the promise: its run
    must step on, recording every gain."""
    profile = DelayProfile.constant(0.0)
    cfg = IntegratorConfig(horizon=1.0, h=0.01)
    runs = [integrate(lambda t, x, traj: [0.0], [0.0], profile, cfg,
                      gain_hook=_RampHook(1.0, 0.5), rests_at_zero=rest)
            for rest in (True, False)]
    assert runs[0].gains.tobytes() == runs[1].gains.tobytes()
    assert runs[0].gains[-1, 0] == 51.0
