"""A settled run rests: `integrate(..., at_rest=rhs.at_rest)` stops stepping
once the state and every row a later step can read are exactly zero, and fills
the rest of the horizon; a static run crosses its sliding tail before that in
array passes.  Every output must equal full stepping bitwise."""
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


def _doc(p0, delay, horizon, h, c2=2.0, gains=None):
    doc = {"schema_version": 1, "kind": "scalar",
           "system": {"c1": 1.0, "c2": c2, "initial_state": p0},
           "delay": delay, "rate": {"kind": "power", "exponent": 0.1},
           "integrator": {"horizon": horizon, "h": h}}
    if gains is not None:
        doc["gains"] = gains
    return doc


_DELAYS = [{"kind": "proportional", "q": 0.5}, {"kind": "proportional", "q": 0.2},
           {"kind": "constant", "pi": 0.0}, {"kind": "constant", "pi": 0.05},
           {"kind": "constant", "pi": 0.3}]
RESTING_SHARE = 0.5   # of the drawn runs, at least this many must stop stepping early


def _crossing(mp, log):
    """Record (k, j, first step not taken) of each `_cross_sliding` call into log."""
    cross = fi._cross_sliding

    def recorded(at_rest, traj, k, j, band):
        log.append((k, j, cross(at_rest, traj, k, j, band)))
        return log[-1][2]

    mp.setattr(fi, "_cross_sliding", recorded)


def test_runs_rest_bitwise_equal_to_full_stepping():
    """Static and adaptive gains, all three norms, proportional and constant
    delays (pi = 0 included), drawn p0, c2, gains and horizons: cli.run
    equals the reference loop, which steps every step, bitwise, hits
    included.  A negative c2 or a small c3 lets the delayed term leave the
    band, so some sliding tails end before their rest step.  At least
    RESTING_SHARE of the runs rest, and static runs cross sliding tails."""
    rested, crossed = [], []

    @settings(max_examples=60, deadline=None)
    @given(adaptive=st.booleans(), norm=st.sampled_from(["two", "one", "inf"]),
           delay=st.sampled_from(_DELAYS), dim=st.integers(1, 2),
           p0=st.floats(-3.0, 3.0), c2=st.sampled_from([2.0, -2.0, -4.0]),
           horizon=st.sampled_from([4.0, 8.0]), h=st.sampled_from([0.02, 0.01]),
           data=st.data())
    def check(adaptive, norm, delay, dim, p0, c2, horizon, h, data):
        doc = _doc([p0] * dim, delay, horizon, h, c2=c2)
        if adaptive:
            rates = {d: data.draw(st.floats(0.5, 3.0), label=d) for d in ("d1", "d2", "d3")}
            doc["adaptive"] = dict(rates, enabled=True, norm=norm)
        else:
            doc["adaptive"] = {"norm": norm}
            doc["gains"] = {"c3": data.draw(st.floats(0.05, 6.0), label="c3"),
                            "c4": data.draw(st.floats(3.5, 8.0), label="c4")}
        log = []
        with pytest.MonkeyPatch.context() as mp:
            _crossing(mp, log)
            got, calls, steps = _run(doc, integrate)
        want, ref_calls, ref_steps = _run(doc, _reference_integrate)
        assert got == want
        assert steps == ref_steps == ref_calls
        assert not (adaptive and log)
        rested.append(calls < steps)
        crossed.append(bool(log))

    check()
    assert sum(rested) >= RESTING_SHARE * len(rested), f"{sum(rested)} of {len(rested)} rested"
    assert any(crossed)


# c3 small against c2 p: the delayed term leaves the band after the state touches 0
_MISSED = dict(p0=[2.0], delay={"kind": "proportional", "q": 0.5}, horizon=8.0, h=0.01,
               c2=-4.0, gains={"c3": 0.5, "c4": 3.5})
_EXAMPLE1 = dict(_MISSED, c2=2.0, gains={"c3": 2.1, "c4": 3.5})   # the band catches it


def test_a_tail_the_band_misses_steps_on_bitwise():
    """A sliding tail whose delayed term leaves the band part way: the pass
    stops at that step, the state leaves 0, and the run equals full
    stepping bitwise, hits included."""
    doc, log = _doc(**_MISSED), []
    with pytest.MonkeyPatch.context() as mp:
        _crossing(mp, log)
        got, calls, _ = _run(doc, integrate)
    want, ref_calls, _ = _run(doc, _reference_integrate)
    assert got == want
    k, j, stop = log[0]
    assert k < stop < j
    states = np.frombuffer(got[0])
    assert not states[k:stop + 1].any() and states[stop + 1] != 0.0
    assert calls < ref_calls


def test_a_tail_that_diverges_raises_at_the_step_stepping_does():
    """A forcing g, which at_rest mirrors, takes a +0.0 state into the band
    for four steps and then past the divergence limit: DivergenceError at the
    same t as full stepping, after the same four hits."""
    h, g = 0.5, [0.0, 0.1, 0.1, 0.1, 0.1, 100.0] + [0.0] * 14

    def rhs(t, x, traj):
        return [-2.0 * x[0] + g[traj._filled]]

    def at_rest(start, stop, traj):
        return np.array(g[start:stop])[:, None]

    profile = DelayProfile.constant(5.0)   # row 0 stays readable until step 13
    cfg = IntegratorConfig(horizon=10.0, h=h, zero_band=0.1, divergence_limit=10.0)
    outcomes = []
    for loop, kwargs in ((integrate, {"at_rest": at_rest}), (integrate, {}),
                         (_reference_integrate, {})):
        hits, log = [0], []
        with pytest.MonkeyPatch.context() as mp:
            _crossing(mp, log)
            mp.setattr(fi, "_project_zero_band", _counting(fi._project_zero_band, hits))
            mp.setattr(test_integrate, "_reference_zero_band",
                       _counting(test_integrate._reference_zero_band, hits))
            with pytest.raises(fi.DivergenceError) as exc:
                loop(rhs, [1.0], profile, cfg, **kwargs)
        outcomes.append((exc.value.blow_up_time, hits[0]))
        assert log == ([(1, 13, 5)] if kwargs else [])
    assert outcomes == [(3.0, 4)] * 3


@pytest.mark.parametrize("run", [_EXAMPLE1, _MISSED,
                                 dict(_EXAMPLE1, p0=[2.0, -1.0],
                                      delay={"kind": "constant", "pi": 0.3})])
def test_short_passes_cross_bitwise(run):
    """ROW_CHUNK = 7 cuts each sliding tail into many passes: rows and hits
    equal full stepping bitwise."""
    doc, log = _doc(**run), []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fi, "ROW_CHUNK", 7)
        _crossing(mp, log)
        got, _, _ = _run(doc, integrate)
    assert got == _run(doc, _reference_integrate)[0]
    assert any(stop - k > 7 for k, _, stop in log)


@pytest.mark.parametrize("p0", [[-0.0], [0.0, -0.0]])
def test_a_negative_zero_never_crosses(p0):
    """-0.0 + h*(-0.0) is -0.0, which the pass's 0.0 + h*v is not: a state
    with a -0.0 component steps every step until it rests, with the band on."""
    doc, log = _doc(**dict(_EXAMPLE1, p0=p0, horizon=1.0)), []
    with pytest.MonkeyPatch.context() as mp:
        _crossing(mp, log)
        got, _, _ = _run(doc, integrate)
    want, _, _ = _run(doc, _reference_integrate)
    assert got == want
    assert log == []
    assert np.signbit(np.frombuffer(got[0])[-1])


def test_a_zero_state_that_still_reads_a_nonzero_row_steps_on():
    """The rest scan's row margin: p0 = 1 is caught at +0.0 in one step
    (h = 0.5), and step 1 reads t/2 = 0.25, halfway between row 0 = 1.0 and
    row 1, so its delayed term c2 * 0.5 leaves the band.  A scan at step 1
    that starts a row too late misses row 0 and rests there."""
    doc = _doc([1.0], {"kind": "proportional", "q": 0.5}, horizon=2.0, h=0.5,
               gains={"c3": 0.5, "c4": 5.0})
    got, _, _ = _run(doc, integrate)
    assert got == _run(doc, _reference_integrate)[0]
    states = np.frombuffer(got[0])
    assert states[1] == 0.0 and states[2] == 0.5


def test_example1_rests_after_settling():
    """The example1 preset settles at t = 1.294 and reads t/2: it steps only
    to step 1,300 of 30,000 and crosses its sliding tail in array passes (it
    stepped all 30,000 before resting existed, and to step 2,600 before the
    passes)."""
    got, calls, steps = _run(cli._document("example1"), integrate)
    assert steps == 30000
    assert calls <= 1300
    assert got == _run(cli._document("example1"), _reference_integrate)[0]


def _settling_run(profile, rests, h=1e-3, horizon=4.0):
    """Example 1 under `profile`, integrated directly, with the rhs's at_rest
    when `rests`: (trajectory, rhs calls)."""
    gains = StaticScalarGains(1.0, 2.0, 2.1, 3.5)
    rhs = delayed_linear_rhs(1.0, 2.0, profile,
                             control=lambda t, p: static_scalar_control(p, gains))
    calls = [0]
    cfg = IntegratorConfig(horizon=horizon, h=h, zero_band=gains.c3 * h)
    traj = _counted(integrate, calls)(rhs, [2.0], profile, cfg,
                                      at_rest=rhs.at_rest if rests else None)
    return traj, calls[0]


def test_rests_at_zero_false_steps_every_step():
    profile = DelayProfile.proportional(0.5)
    traj, calls = _settling_run(profile, rests=False)
    rested, rest_calls = _settling_run(profile, rests=True)
    assert calls == 4000 and rest_calls < 4000
    assert traj.states.tobytes() == rested.states.tobytes()


@pytest.mark.parametrize("pi", [0.0, 0.02, 0.3])
def test_a_constant_delay_run_rests_within_its_delay_of_settling(pi):
    """Stepping ends within pi/h + 3 steps of the first row from which the
    state stays exactly zero."""
    h = 1e-3
    traj, calls = _settling_run(DelayProfile.constant(pi), rests=True, h=h)
    moving = np.flatnonzero(traj.states.any(axis=1))
    settled = int(moving[-1]) + 1
    assert calls < 4000
    assert calls <= settled + pi / h + 3
    full, _ = _settling_run(DelayProfile.constant(pi), rests=False, h=h)
    assert traj.states.tobytes() == full.states.tobytes()


def test_no_rest_while_the_initial_history_can_still_be_read():
    """A zero state whose delayed reads still reach the initial history before
    t0, row 0 (the constant extension of p0 = 1), must keep stepping:
    p' = -11 p + p(t - 1) reaches exactly 0 at step 1 and leaves it at step 2."""
    profile = DelayProfile.constant(1.0)
    cfg = IntegratorConfig(horizon=3.0, h=0.1)
    rhs = delayed_linear_rhs(-11.0, 1.0, profile)
    runs = [integrate(rhs, [1.0], profile, cfg, at_rest=at_rest)
            for at_rest in (rhs.at_rest, None)]
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
    rested, full = (integrate(r, [p0], profile, cfg, at_rest=r.at_rest if rest else None)
                    for rest, r in ((True, rhs()), (False, rhs())))
    assert rested.states.tobytes() == full.states.tobytes()
    assert math.copysign(1.0, rested.states[-1, 0]) == math.copysign(1.0, p0)


def test_moving_gains_keep_a_zero_run_stepping():
    """A hook whose gains move at a zero state breaks the promise: its run
    must step on, recording every gain."""
    profile = DelayProfile.constant(0.0)
    cfg = IntegratorConfig(horizon=1.0, h=0.01)
    runs = [integrate(lambda t, x, traj: [0.0], [0.0], profile, cfg,
                      gain_hook=_RampHook(1.0, 0.5), at_rest=at_rest)
            for at_rest in (lambda start, stop, traj: np.zeros((stop - start, 1)), None)]
    assert runs[0].gains.tobytes() == runs[1].gains.tobytes()
    assert runs[0].gains[-1, 0] == 51.0
