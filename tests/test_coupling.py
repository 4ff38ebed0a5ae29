"""The network's delayed coupling: one formula over a step axis, evaluated a
plan block at a time.

The drive, error and direct-response right-hand sides are compared with
reference copies that compute the coupling one step at a time, as the
package did before the block path.  Every comparison is byte for byte.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fintstab.control import (NetworkAdaptiveHook, NetworkControlSpec,
                              full_node_control, pinning_control)
from fintstab.delays import DelayProfile, RateFunction
from fintstab.integrate import (PLAN_BLOCK, DelayPlan, DivergenceError, HistoryTrajectory,
                                IntegratorConfig, PlanGather, diag_cols, integrate)
from fintstab.network import (SyncExperiment, _block_coupling, _node_cols,
                              _reference_rhs, error_index_series, lorenz_preset,
                              simulate_response_directly, simulate_sync,
                              sin_plus_linear)

H, HORIZON = 5e-4, 0.4   # 800 steps: three full plan blocks and part of a fourth


# -- reference copies of the per-step coupling ----------------------------------

def _reference_cols(N, n):
    """Pair (i, j) reads the whole n-dim reference state (inner mode)."""
    return np.tile(np.arange(n), (N * N, 1))


def _ref_drive_rhs(model):
    N, n = model.N, model.n
    nodes = PlanGather(_node_cols(N, n), N * n)

    def rhs(t, X, traj):
        Xn = X.reshape(N, n)
        out = model.f(Xn) + model.theta1 * (model.A @ Xn)
        xd = nodes(traj, traj._filled).reshape(N, N, n)
        out += model.theta2 * np.einsum("ij,ijk->ik", model.B, model.g(xd))
        return out.ravel()

    return rhs


def _ref_error_rhs(model, base_traj, mode, control, hook):
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
            g = dict(zip(hook.names, hook.gains.tolist()))
            if hook.variant == "theta1_theta3":
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


def _ref_direct_rhs(model, control, drive):
    N, n = model.N, model.n
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


def _experiment(delay, control, mode="outer"):
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
    if mode == "inner":
        exp = SyncExperiment(model=exp.model, mode="inner",
                             reference_init=np.array([1.0, 1.0, 1.0]),
                             response_init=exp.response_init, control=exp.control,
                             integrator=exp.integrator, adaptive_hook=exp.adaptive_hook)
    return exp


def _ref_sync(exp):
    model, cfg = exp.model, exp.integrator
    if exp.mode == "outer":
        base = integrate(_ref_drive_rhs(model), exp.drive_init.ravel(), model.delays, cfg)
        e0 = (exp.response_init - exp.drive_init).ravel()
    else:
        base = integrate(_reference_rhs(model), exp.reference_init, model.delays, cfg)
        e0 = (exp.response_init - exp.reference_init[None, :]).ravel()
    rhs = _ref_error_rhs(model, base, exp.mode, exp.control, exp.adaptive_hook)
    return base, integrate(rhs, e0, model.delays, cfg, gain_hook=exp.adaptive_hook)


def _assert_same_sync(delay, control, mode):
    res = simulate_sync(_experiment(delay, control, mode))
    base, error = _ref_sync(_experiment(delay, control, mode))
    # inner mode: the drive is the reference tiled over the nodes
    drive = base.states if mode == "outer" else np.tile(base.states, (1, 3))
    assert res.drive.states.tobytes() == drive.tobytes()
    assert res.error.states.tobytes() == error.states.tobytes()
    if error.gains is not None:
        assert res.error.gains.tobytes() == error.gains.tobytes()
    return res


@pytest.mark.parametrize("control", CONTROLS)
@pytest.mark.parametrize("delay", DELAYS)
def test_sync_matches_per_step_coupling(delay, control):
    exp = _experiment(delay, control)
    res = _assert_same_sync(delay, control, "outer")
    if control in ("none", "full", "pinning"):
        direct = simulate_response_directly(exp, res.drive)
        ref = integrate(_ref_direct_rhs(exp.model, exp.control, res.drive),
                        exp.response_init.ravel(), exp.model.delays,
                        IntegratorConfig(horizon=HORIZON, h=H, zero_band=0.0))
        assert direct.states.tobytes() == ref.states.tobytes()


@pytest.mark.parametrize("control", ("none", "pinning", "theta3_theta4"))
@pytest.mark.parametrize("delay", ("pairwise", "shared_proportional", "constant_short",
                                   "shared_constant_long"))
def test_inner_mode_matches_per_step_coupling(delay, control):
    _assert_same_sync(delay, control, "inner")


def test_error_indices_of_an_inner_run():
    # the drive of an inner run is the reference tiled over the nodes, so the
    # error indices read it like an outer run's drive network
    res = _assert_same_sync("pairwise", "pinning", "inner")
    e1, e2, outer = error_index_series(res.drive, res.response, 3, 3)
    assert not e1.any()
    assert e2.shape == outer.shape == (res.error.states.shape[0],)
    assert np.allclose(outer, np.linalg.norm(res.error.states, axis=1), rtol=0.0, atol=1e-9)


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
    rhs = _ref_error_rhs(model, base, "outer", exp.control, exp.adaptive_hook)
    e0 = (exp.response_init - exp.drive_init).ravel()
    return base, integrate(rhs, e0, model.delays, cfg, gain_hook=exp.adaptive_hook)


def _outcome(run):
    try:
        return run()
    except DivergenceError as exc:
        return exc.blow_up_time


_OFFSET = st.sampled_from([0.0, -0.0]) | st.floats(-2.0, 2.0)
_NINE = dict(min_size=9, max_size=9)


@settings(max_examples=30, deadline=None)
@given(offsets=st.lists(_OFFSET, **_NINE), at_zero=st.lists(st.booleans(), **_NINE),
       control=st.sampled_from(CONTROLS), theta3=st.floats(0.0, 20.0),
       theta4=st.floats(0.0, 20.0), sigma=st.floats(0.1, 5.0),
       band=st.sampled_from([0.0, 1.0]), pairwise=st.booleans(), cubic=st.booleans())
def test_drawn_sync_matches_per_step_coupling(offsets, at_zero, control, theta3, theta4,
                                              sigma, band, pairwise, cubic):
    # a node component drawn at_zero starts the drive at exactly 0.0 and the
    # error at its offset, so error components of exactly +-0.0 occur
    at_zero = np.reshape(at_zero, (3, 3))
    offsets = np.reshape(offsets, (3, 3))
    drive = np.where(at_zero, 0.0, lorenz_preset().drive_init)
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


# -- complete blocks ----------------------------------------------------------------------

def _plan_blocks(profile, n_steps):
    """The blocks one integration's plan hands out over n_steps steps."""
    plan, blocks, k = DelayPlan(profile, 0.0, H), [], 0
    while k < n_steps:
        blk, _ = plan.row(k)
        blocks.append(blk)
        k = blk.stop
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
    assert all(blk.hi.max() <= blk.start for blk in blocks)
    assert sorted(shape[-4] for shape in calls) == sorted(
        2 * [blk.stop - blk.start for blk in blocks])
    assert len(calls) < 2 * n_steps
    # a 2.3-step delay lets a block hold 3 steps before it reads its own rows
    assert max(shape[-4] for shape in calls) == (3 if delay == "constant_short"
                                                 else PLAN_BLOCK)


def test_block_coupling_follows_each_trajectory():
    # the cache is keyed on both block arrays: switching either trajectory at
    # the same step (same plan block) must recompute the coupling
    model = lorenz_preset().model
    N, n = model.N, model.n
    plan = DelayPlan(model.delays, 0.0, H)
    rng = np.random.default_rng(5)
    bases = [HistoryTrajectory.from_arrays(0.0, H, rng.normal(size=(700, N * n)))
             for _ in range(2)]
    errors = [HistoryTrajectory.from_arrays(0.0, H, rng.normal(size=(700, N * n)))
              for _ in range(2)]
    coupling = _block_coupling(model, PlanGather(_node_cols(N, n), N * n),
                               PlanGather(_node_cols(N, n), N * n))
    gather = PlanGather(_node_cols(N, n), N * n)
    for k in (600, 601):
        for x, e in ((0, 0), (0, 1), (1, 1), (1, 0), (0, 0)):
            xd = gather(bases[x], k, plan).reshape(N, N, n)
            ed = gather(errors[e], k, plan).reshape(N, N, n)
            gx = model.g(np.stack((xd + ed, xd)))
            want = model.theta2 * np.einsum("ij,ijk->ik", model.B, gx[0] - gx[1])
            assert coupling(k, plan, bases[x], errors[e]).tobytes() == want.tobytes()


# -- PlanGather.block -------------------------------------------------------------------

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
    traj = HistoryTrajectory(t0, h, states[0], filled)
    for row in states[1:]:
        traj.append(row)
    traj.plan = DelayPlan(profile, t0, h)
    cols = diag_cols(m, m)
    k = data.draw(st.integers(0, filled))
    vals, r = PlanGather(cols, m).block(traj, k)
    blk, r_plan = traj.plan.row(k)
    assert r == r_plan == k - blk.start
    assert blk.hi.max() <= blk.start
    assert not vals.flags.writeable
    assert vals.shape == (blk.stop - blk.start, m, 1)
    assert vals[r].tobytes() == PlanGather(cols, m)(traj, k).tobytes()
