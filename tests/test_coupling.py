"""The network's delayed coupling: one formula over a step axis, evaluated a
`DelayedRows` block at a time.

The drive, error and direct-response right-hand sides are compared with
reference copies that compute the coupling one step at a time, as the
package did before the block path; the reference error rhs has no
settled-error rule, so it is also the full path that rule must equal.
Every comparison is byte for byte.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from fintstab.control import (NetworkAdaptiveHook, NetworkControlSpec, _add_full_node,
                              _add_pinning, full_node_control, pinning_control)
from fintstab.delays import DelayProfile, RateFunction
from fintstab.integrate import (PLAN_BLOCK, DelayedRows, DivergenceError,
                                HistoryTrajectory, IntegratorConfig, diag_cols, integrate)
from fintstab.network import (_drive_rhs, _error_rhs, _node_cols, lorenz_preset,
                              simulate_sync, sin_plus_linear)

from test_integrate import delayed_values
from test_plan import assert_tiled, count_blocks

H, HORIZON = 5e-4, 0.4   # 800 steps: three full blocks and part of a fourth


# -- reference copies of the per-step coupling ----------------------------------

def _ref_drive_rhs(model):
    N, n = model.N, model.n
    nodes = _node_cols(N, n)

    def rhs(t, X, traj):
        Xn = X.reshape(N, n)
        out = model.f(Xn) + model.theta1 * (model.A @ Xn)
        xd = delayed_values(model.delays, traj, traj._filled, nodes).reshape(N, N, n)
        out += model.theta2 * np.einsum("ij,ijk->ik", model.B, model.g(xd))
        return out.ravel()

    return rhs


def _ref_error_rhs(model, base_traj, control, hook):
    N, n = model.N, model.n
    nodes = _node_cols(N, n)
    fbuf = np.empty((2, N, n))
    gbuf = np.empty((2, N, N, n))

    def rhs(t, E, etraj):
        k = etraj._filled
        En = E.reshape(N, n)
        x_now = base_traj._states[k].reshape(N, n)
        np.add(x_now, En, out=fbuf[0])
        fbuf[1] = x_now
        fx = model.f(fbuf)
        # an adaptive step is the static one at the hook's gains
        g = {} if hook is None else dict(zip(hook.names, hook.gains))
        out = (fx[0] - fx[1]) + g.get("theta1", model.theta1) * (model.A @ En)
        # the drive shares the error integration's grid
        xd = delayed_values(model.delays, base_traj, k, nodes).reshape(N, N, n)
        np.add(xd, delayed_values(model.delays, etraj, k, nodes).reshape(N, N, n),
               out=gbuf[0])
        gbuf[1] = xd
        gx = model.g(gbuf)
        out += model.theta2 * np.einsum("ij,ijk->ik", model.B, gx[0] - gx[1])
        if hook is not None:
            if hook.variant == "theta1_theta3":
                out += pinning_control(En, control.sigma, g["theta1"], g["theta3"])
            else:
                out += full_node_control(En, g["theta3"], g["theta4"])
        elif control.kind == "pinning":
            out += pinning_control(En, control.sigma, model.theta1, control.theta3)
        elif control.kind == "full":
            out += full_node_control(En, control.theta3, control.theta4)
        return out.ravel()

    return rhs


def _static_control(out: list, e: list, model, control) -> list:
    """out plus the static pinning or full-node feedback on the error e, on floats."""
    if control.kind == "pinning":
        return _add_pinning(out, e, model.n, control.sigma, model.theta1, control.theta3)
    if control.kind == "full":
        return _add_full_node(out, e, control.theta3, control.theta4)
    return out


def simulate_response_directly(exp, drive):
    """Integrate the response network itself (static control from e = y - x).

    Reference path for the consistency check against the error-system
    integration; no zero-band projection is applied to the raw response.
    """
    model = exp.model
    network_rhs = _drive_rhs(model)

    def rhs(t, Y, ytraj):
        e = [y - x for y, x in zip(Y.tolist(), drive._states[ytraj._filled].tolist())]
        return _static_control(network_rhs(t, Y, ytraj), e, model, exp.control)

    return integrate(rhs, exp.response_init.ravel(), model.delays,
                     replace(exp.integrator, zero_band=0.0))


def _ref_direct_rhs(model, control, drive):
    N, n = model.N, model.n
    nodes = _node_cols(N, n)

    def rhs(t, Y, ytraj):
        Yn = Y.reshape(N, n)
        out = model.f(Yn) + model.theta1 * (model.A @ Yn)
        yd = delayed_values(model.delays, ytraj, ytraj._filled, nodes).reshape(N, N, n)
        out += model.theta2 * np.einsum("ij,ijk->ik", model.B, model.g(yd))
        e = Yn - drive.query(t).reshape(N, n)
        if control.kind == "pinning":
            out += pinning_control(e, control.sigma, model.theta1, control.theta3)
        elif control.kind == "full":
            out += full_node_control(e, control.theta3, control.theta4)
        return out.ravel()

    return rhs


# -- experiments ---------------------------------------------------------------------

DELAYS = {
    "pairwise": None,   # the preset's pairwise proportional family
    "shared_proportional": lambda: DelayProfile.proportional(0.4),
    "constant_short": lambda: DelayProfile.constant(2.3 * H, n_components=9),
    "constant_long": lambda: DelayProfile.constant((PLAN_BLOCK + 20.3) * H,
                                                   n_components=9),
    "shared_constant_long": lambda: DelayProfile.constant((PLAN_BLOCK + 3.5) * H),
}
CONTROLS = ("none", "full", "pinning", "theta3_theta4", "theta1_theta3")


def _experiment(delay, control):
    exp = lorenz_preset(horizon=HORIZON, h=H)
    if DELAYS[delay] is not None:
        exp.model.delays = DELAYS[delay]()
    adaptive = control.startswith("theta")
    exp.integrator = IntegratorConfig(horizon=HORIZON, h=H,
                                      zero_band=None if adaptive else 0.0)
    if adaptive:
        exp.adaptive_hook = NetworkAdaptiveHook(0.05, 0.05, 0.02, RateFunction.power(0.1),
                                                exp.model.delays, variant=control)
        exp.control = NetworkControlSpec(kind="pinning", theta3=0.0, sigma=2.0)
    elif control == "full":
        exp.control = NetworkControlSpec(kind="full", theta3=10.0, theta4=5.0)
    elif control == "pinning":
        exp.control = NetworkControlSpec(kind="pinning", theta3=4.0, sigma=2.0)
    return exp


def _ref_sync(exp):
    model, cfg = exp.model, exp.integrator
    base = integrate(_ref_drive_rhs(model), exp.drive_init.ravel(), model.delays, cfg)
    e0 = (exp.response_init - exp.drive_init).ravel()
    rhs = _ref_error_rhs(model, base, exp.control, exp.adaptive_hook)
    return base, integrate(rhs, e0, model.delays, cfg, gain_hook=exp.adaptive_hook)


@pytest.mark.parametrize("control", CONTROLS)
@pytest.mark.parametrize("delay", DELAYS)
def test_sync_matches_per_step_coupling(delay, control):
    exp = _experiment(delay, control)
    res = simulate_sync(exp)
    base, error = _ref_sync(_experiment(delay, control))
    assert res.drive.states.tobytes() == base.states.tobytes()
    assert res.error.states.tobytes() == error.states.tobytes()
    if error.gains is not None:
        assert res.error.gains.tobytes() == error.gains.tobytes()
    if control in ("none", "full", "pinning"):
        direct = simulate_response_directly(exp, res.drive)
        ref = integrate(_ref_direct_rhs(exp.model, exp.control, res.drive),
                        exp.response_init.ravel(), exp.model.delays,
                        IntegratorConfig(horizon=HORIZON, h=H, zero_band=0.0))
        assert direct.states.tobytes() == ref.states.tobytes()


# -- drawn experiments -------------------------------------------------------------------

def _cubic_field(x):
    """A node field that returns an ndarray for any input: -x + x^3 / 10."""
    x = np.asarray(x, dtype=float)
    return -x + x * x * x / 10.0


def _drawn_experiment(drive, response, control, theta3, theta4, sigma, band,
                      pairwise, cubic):
    exp = lorenz_preset(horizon=HORIZON, h=H)
    exp.drive_init, exp.response_init = drive.copy(), response.copy()
    if not pairwise:
        exp.model.delays = DelayProfile.proportional(0.4)
    if cubic:
        exp.model.f = _cubic_field
    adaptive = control.startswith("theta")
    if adaptive:
        exp.adaptive_hook = NetworkAdaptiveHook(0.05, 0.05, 0.02, RateFunction.power(0.1),
                                                exp.model.delays, variant=control)
        control = "pinning"
    exp.control = NetworkControlSpec(kind=control, theta3=theta3, theta4=theta4, sigma=sigma)
    # an adaptive run's band follows the hook's sign gain
    exp.integrator = IntegratorConfig(horizon=HORIZON, h=H,
                                      zero_band=None if adaptive else band * theta3 * H)
    return exp


def _ref_outer_sync(exp):
    """The drive without zero band and the error system with the config's, both
    through the per-step reference right-hand sides."""
    model, cfg = exp.model, exp.integrator
    base = integrate(_ref_drive_rhs(model), exp.drive_init.ravel(), model.delays,
                     IntegratorConfig(horizon=HORIZON, h=H, zero_band=0.0))
    rhs = _ref_error_rhs(model, base, exp.control, exp.adaptive_hook)
    e0 = (exp.response_init - exp.drive_init).ravel()
    return base, integrate(rhs, e0, model.delays, cfg, gain_hook=exp.adaptive_hook)


def _outcome(run):
    try:
        return run()
    except DivergenceError as exc:
        return exc.blow_up_time


_SIGNED_ZERO = st.sampled_from([0.0, -0.0])
_OFFSET = _SIGNED_ZERO | st.floats(-2.0, 2.0)
_NINE = dict(min_size=9, max_size=9)


# no shrink phase: each example integrates two 800-step syncs, and shrinking a
# failure through them takes minutes; the examples drawn are the same
@settings(max_examples=30, deadline=None, phases=[p for p in Phase if p is not Phase.shrink])
@given(offsets=st.lists(_OFFSET, **_NINE), at_zero=st.lists(st.booleans(), **_NINE),
       zeros=st.lists(_SIGNED_ZERO, **_NINE),
       control=st.sampled_from(CONTROLS), theta3=st.floats(0.0, 20.0),
       theta4=st.floats(0.0, 20.0), sigma=st.floats(0.1, 5.0),
       band=st.sampled_from([0.0, 1.0]), pairwise=st.booleans(), cubic=st.booleans())
def test_drawn_sync_matches_per_step_coupling(offsets, at_zero, zeros, control, theta3,
                                              theta4, sigma, band, pairwise, cubic):
    # a node component drawn at_zero starts the drive at exactly +0.0 or -0.0
    # (from zeros) and the error at its offset, so error components of
    # exactly +-0.0 occur, and +0.0 errors over -0.0 drive components, where
    # x + e is not x bitwise
    at_zero = np.reshape(at_zero, (3, 3))
    offsets = np.reshape(offsets, (3, 3))
    drive = np.where(at_zero, np.reshape(zeros, (3, 3)), lorenz_preset().drive_init)
    response = np.where(at_zero, offsets, drive + offsets)
    args = (drive, response, control, theta3, theta4, sigma, band, pairwise, cubic)
    got = _outcome(lambda: simulate_sync(_drawn_experiment(*args)))
    want = _outcome(lambda: _ref_outer_sync(_drawn_experiment(*args)))
    if isinstance(want, float):
        assert got == want
        return
    base, error = want
    assert got.drive.states.tobytes() == base.states.tobytes()
    assert got.error.states.tobytes() == error.states.tobytes()
    if error.gains is not None:
        assert got.error.gains.tobytes() == error.gains.tobytes()


# -- the settled error -------------------------------------------------------------------

def _signed_field(x):
    """A node field that tells -0.0 from +0.0: x + copysign(1, x)."""
    x = np.asarray(x, dtype=float)
    return x + np.copysign(1.0, x)


FIELDS = {"lorenz": None, "cubic": _cubic_field, "signed": _signed_field}


# drive components: +0.0 or finite, never -0.0 (v + 0.0 maps -0.0 to +0.0)
_DRIVE = st.just(0.0) | st.floats(-20.0, 20.0).map(lambda v: v + 0.0)


@settings(deadline=None)
@given(drive_row=st.lists(_DRIVE, **_NINE), neg_zero=st.none() | st.integers(0, 8),
       error_row=st.lists(_SIGNED_ZERO, **_NINE), k=st.integers(0, 2 * PLAN_BLOCK),
       moving_past=st.booleans(), control=st.sampled_from(CONTROLS),
       field=st.sampled_from(sorted(FIELDS)), theta3=st.floats(0.0, 20.0),
       theta4=st.floats(0.0, 20.0), sigma=st.floats(0.1, 5.0),
       gains=st.tuples(st.floats(0.0, 1e3), st.floats(0.0, 1e3)),
       theta2=st.sampled_from([1.0, -1.0]))
def test_settled_error_rhs_matches_the_full_rhs(drive_row, neg_zero, error_row, k,
                                                moving_past, control, field, theta3,
                                                theta4, sigma, gains, theta2):
    # an error row of +-0.0 floats at step k, over a drive row with +0.0
    # components and, at neg_zero, one -0.0: the error rhs equals the per-step
    # full rhs byte for byte, whether it takes the settled rule or (x + e not
    # x) the full path.  A negative theta2 turns a zero coupling into -0.0,
    # which the full sum returns as +0.0
    if neg_zero is not None:
        drive_row[neg_zero] = -0.0
    model = lorenz_preset().model
    model.theta2 = theta2
    if FIELDS[field] is not None:
        model.f = FIELDS[field]
    rng = np.random.default_rng(k)
    xs = rng.normal(size=(k + 1, 9))
    es = rng.normal(size=(k + 1, 9)) if moving_past else np.zeros((k + 1, 9))
    xs[k], es[k] = drive_row, error_row
    drive = HistoryTrajectory.from_arrays(0.0, H, xs)
    etraj = HistoryTrajectory.from_arrays(0.0, H, es)
    hook = None
    if control.startswith("theta"):
        hook = NetworkAdaptiveHook(0.05, 0.05, 0.02, RateFunction.power(0.1),
                                   model.delays, variant=control)
        hook.gains[:] = gains
        spec = NetworkControlSpec(kind="pinning", sigma=sigma)
    else:
        spec = NetworkControlSpec(kind=control, theta3=theta3, theta4=theta4, sigma=sigma)
    E, t = etraj._states[k], k * H
    got = _error_rhs(model, drive, spec, hook)(t, E, etraj)
    want = _ref_error_rhs(model, drive, spec, hook)(t, E, etraj)
    assert np.array(got).tobytes() == want.tobytes()


@settings(deadline=None)
@given(drive_row=st.lists(_DRIVE, **_NINE),
       error_row=st.lists(_SIGNED_ZERO, **_NINE) | st.lists(_OFFSET, **_NINE),
       k=st.integers(0, 2 * PLAN_BLOCK), moving_past=st.booleans(),
       variant=st.sampled_from(("theta1_theta3", "theta3_theta4")),
       kind=st.sampled_from(("none", "full", "pinning")),
       spec_gains=st.tuples(st.floats(0.0, 20.0), st.floats(0.0, 20.0)),
       gains=st.tuples(st.floats(0.0, 1e3), st.floats(0.0, 1e3)),
       sigma=st.floats(0.1, 5.0), field=st.sampled_from(sorted(FIELDS)))
def test_an_adaptive_error_rhs_is_the_static_one_at_the_hook_gains(
        drive_row, error_row, k, moving_past, variant, kind, spec_gains, gains, sigma,
        field):
    # the hook's two gains replace the ones it adapts, and the law is the
    # variant's (a theta3_theta4 hook feeds back every node under any spec
    # kind): at a moving or a settled error row, the adaptive rhs is byte for
    # byte the static rhs of that law at the hook's gains
    model = lorenz_preset().model
    if FIELDS[field] is not None:
        model.f = FIELDS[field]
    rng = np.random.default_rng(k)
    xs = rng.normal(size=(k + 1, 9))
    es = rng.normal(size=(k + 1, 9)) if moving_past else np.zeros((k + 1, 9))
    xs[k], es[k] = drive_row, error_row
    drive = HistoryTrajectory.from_arrays(0.0, H, xs)
    etraj = HistoryTrajectory.from_arrays(0.0, H, es)
    hook = NetworkAdaptiveHook(0.05, 0.05, 0.02, RateFunction.power(0.1), model.delays,
                               variant=variant)
    hook.gains[:] = gains
    lin, theta3 = gains
    theta3_spec, theta4_spec = spec_gains
    if variant == "theta1_theta3":
        spec = NetworkControlSpec(kind="pinning", theta3=theta3_spec, sigma=sigma)
        static_model = replace(model, theta1=lin)
        static = NetworkControlSpec(kind="pinning", theta3=theta3, sigma=sigma)
    else:
        spec = NetworkControlSpec(kind=kind, theta3=theta3_spec, theta4=theta4_spec,
                                  sigma=sigma)
        static_model = model
        static = NetworkControlSpec(kind="full", theta3=theta3, theta4=lin, sigma=sigma)
    E, t = etraj._states[k], k * H
    got = _error_rhs(model, drive, spec, hook)(t, E, etraj)
    want = _error_rhs(static_model, drive, static, None)(t, E, etraj)
    assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("control", ("pinning", "theta1_theta3", "theta3_theta4"))
def test_a_gain_without_a_finite_value_keeps_the_full_rhs(control):
    # a gain that is infinite, or overflows times sigma, makes the full rhs
    # NaN at a zero error (inf * 0): the settled rule must not hide that
    model = lorenz_preset().model
    hook, spec = None, NetworkControlSpec(kind="pinning", theta3=1.0, sigma=1e300)
    if control == "pinning":
        model.theta1 = 1e300
    else:
        hook = NetworkAdaptiveHook(0.05, 0.05, 0.02, RateFunction.power(0.1),
                                   model.delays, variant=control)
        hook.gains[:] = [math.inf, 1.0]
    rng = np.random.default_rng(3)
    drive = HistoryTrajectory.from_arrays(0.0, H, rng.normal(size=(10, 9)))
    etraj = HistoryTrajectory.from_arrays(0.0, H, np.zeros((10, 9)))
    E, t = etraj._states[9], 9 * H
    got = np.array(_error_rhs(model, drive, spec, hook)(t, E, etraj))
    with np.errstate(over="ignore", invalid="ignore"):
        want = _ref_error_rhs(model, drive, spec, hook)(t, E, etraj)
    assert np.isnan(got).any() and (np.isnan(got) == np.isnan(want)).all()


def test_a_settled_error_step_calls_no_field():
    # static full-node feedback settles the preset's error within the horizon:
    # the error side calls f once per step whose start row has a nonzero
    # component, the drive once per step, and every state stays bitwise equal
    preset = lorenz_preset()
    args = (preset.drive_init, preset.response_init, "full", 10.0, 30.0, 1.0, 1.0,
            True, False)
    exp = _drawn_experiment(*args)
    f, calls = exp.model.f, []

    def counted(rows):
        calls.append(len(rows))
        return f(rows)

    exp.model.f = counted
    res = simulate_sync(exp)
    base, error = _ref_outer_sync(_drawn_experiment(*args))
    assert res.drive.states.tobytes() == base.states.tobytes()
    assert res.error.states.tobytes() == error.states.tobytes()
    n_steps = int(round(HORIZON / H))
    moving = int(res.error.states[:n_steps].any(axis=1).sum())
    assert calls.count(3) == n_steps and calls.count(6) == moving
    assert moving < n_steps // 2   # the error settles early in the run


# -- complete blocks ----------------------------------------------------------------------

def _plan_blocks(profile, n_steps):
    """(start, hi) of the blocks one integration's DelayedRows hands out over
    n_steps steps."""
    rows, blocks, k = DelayedRows(profile, 0.0, H, lambda lo, hi, w: [hi] * len(hi)), [], 0
    while k < n_steps:
        hi = rows.row(k)
        blocks.append((k, hi))
        k += len(hi)
    return blocks


@pytest.mark.parametrize("delay", ("pairwise", "constant_short", "constant_long"))
def test_g_runs_once_per_recorded_block(delay):
    exp = _experiment(delay, "full")
    calls = []

    def counted(x):
        calls.append(np.shape(x))
        return sin_plus_linear(x)

    exp.model.g = counted
    simulate_sync(exp)
    n_steps = int(round(HORIZON / H))
    blocks = _plan_blocks(exp.model.delays, n_steps)
    # every block reads only rows recorded at its first step, and the drive
    # and the error system each call g once per block, on the whole block
    assert all(hi.max() <= start for start, hi in blocks)
    assert sorted(shape[-4] for shape in calls) == sorted(2 * [len(hi) for _, hi in blocks])
    assert len(calls) < 2 * n_steps
    # a 2.3-step delay lets a block hold 3 steps before it reads its own rows
    assert max(shape[-4] for shape in calls) == (3 if delay == "constant_short"
                                                 else PLAN_BLOCK)


def test_block_coupling_follows_each_trajectory():
    # each rhs keeps the coupling rows of the trajectory it saw last:
    # switching the drive's or the error's trajectory at the same step (same
    # block) must recompute the coupling; an error rhs has one drive
    model = lorenz_preset().model
    N, n = model.N, model.n
    rng = np.random.default_rng(5)
    bases, errors = ([HistoryTrajectory.from_arrays(0.0, H, rng.normal(size=(700, N * n)))
                      for _ in range(2)] for _ in range(2))
    none = NetworkControlSpec(kind="none")
    drive_rhs, ref_drive_rhs = _drive_rhs(model), _ref_drive_rhs(model)
    error_rhs = [_error_rhs(model, base, none, None) for base in bases]
    ref_error_rhs = [_ref_error_rhs(model, base, none, None) for base in bases]
    for k in (600, 601):
        for x, e in ((0, 0), (0, 1), (1, 1), (1, 0), (0, 0)):
            xtraj, etraj = bases[x], errors[e]
            xtraj._filled = etraj._filled = k
            X, E, t = xtraj._states[k], etraj._states[k], k * H
            got = drive_rhs(t, X, xtraj)
            assert np.array(got).tobytes() == ref_drive_rhs(t, X, xtraj).tobytes()
            got = error_rhs[x](t, E, etraj)
            assert np.array(got).tobytes() == ref_error_rhs[x](t, E, etraj).tobytes()


@pytest.mark.parametrize("adaptive", [False, True])
def test_lorenz_run_builds_each_block_once(adaptive):
    # the drive's coupling makes one lookup per block, the error's two
    # (drive and error), and each DelayedRows builds a block once.  Each rhs
    # builds its own reader, the drive's first; only the hook's window sup
    # fills envelope runs
    exp = _experiment("pairwise", "theta1_theta3" if adaptive else "full")
    with count_blocks() as (cuts, fills, counts):
        simulate_sync(exp)
    n_steps = int(round(HORIZON / H))
    drive, error = cuts.values()
    for steps in (drive, error):
        assert steps[0][0] == 0 and steps[-1][1] >= n_steps
    assert counts["lookup"] == len(drive) + 2 * len(error)
    assert counts["make"] == assert_tiled(cuts) < n_steps // 10
    assert bool(fills) == adaptive


# -- block values ---------------------------------------------------------------------

def test_shared_delay_prehistory_reaches_every_node_row():
    # one shared delay component read through N*N node column rows: each row
    # whose time is before t0 takes row 0 (the constant extension of the
    # initial state) in every node column row, whole blocks as single steps
    N, n, h, tau = 3, 3, 0.01, 15.5 * 0.01
    cols = _node_cols(N, n)
    rng = np.random.default_rng(11)
    traj = HistoryTrajectory.from_arrays(0.0, h, rng.normal(size=(40, N * n)))
    profile = DelayProfile.constant(tau)
    rows = DelayedRows(profile, 0.0, h, lambda lo, hi, w: list(traj._lookup(lo, hi, w, cols)))
    pre = 0
    for k in range(40):
        t = k * h
        got = delayed_values(profile, traj, k, cols)
        assert got.tobytes() == traj.query_diag(t - tau)[cols].tobytes()
        assert got.tobytes() == rows.row(k).tobytes()
        if t - tau < 0.0:
            pre += 1
            assert got.tobytes() == traj.states[0][cols].tobytes()
    assert pre == 16


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["proportional", "constant", "per_component"]),
       st.integers(1, 3), st.floats(0.01, 0.9), st.integers(0, 3 * PLAN_BLOCK),
       st.data())
def test_plan_gather_block(kind, m, ratio, filled, data):
    h, t0 = 0.05, 0.5
    if kind == "proportional":
        profile = DelayProfile.proportional(ratio, n_components=m)
    elif kind == "constant":
        profile = DelayProfile.constant(ratio * 40.0 * h, n_components=m)
    else:
        profile = DelayProfile.per_component_proportional(
            [ratio * (i + 1) / m for i in range(m)], envelope_q=0.95)
    states = np.random.default_rng(filled).normal(size=(filled + 1, m))
    traj = HistoryTrajectory.from_arrays(t0, h, states)
    cols = diag_cols(m, m)
    k = data.draw(st.integers(0, filled))
    blocks = []

    def make(lo, hi, w):
        blocks.append(hi)
        return list(traj._lookup(lo, hi, w, cols))

    rows = DelayedRows(profile, t0, h, make)
    rows.row(k)
    (hi,) = blocks   # the block starting at k
    assert hi.max() <= k
    vals = [rows.row(k + r) for r in range(len(hi))]
    assert len(blocks) == 1
    for r, row in enumerate(vals):   # every row, read with the history up to k
        assert row.shape == (m, 1)
        t = t0 + (k + r) * h
        assert row.tobytes() == traj.query_diag(t - profile.delays_at(t)).tobytes()
