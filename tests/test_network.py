import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fintstab.control import NetworkAdaptiveHook, NetworkControlSpec
from fintstab.delays import DelayProfile, RateFunction
from fintstab.integrate import HistoryTrajectory, IntegratorConfig
from fintstab.network import (LORENZ_A, LORENZ_B, LORENZ_BOX, NetworkModel,
                              SyncExperiment, error_index_series,
                              lorenz_jacobian_norm, lorenz_lipschitz_bound,
                              lorenz_preset, lorenz_rhs, simulate_sync,
                              sin_plus_linear)

from test_coupling import simulate_response_directly   # the direct reference path


def test_preset_matrices_and_delays():
    exp = lorenz_preset()
    m = exp.model
    assert np.allclose(m.A.sum(axis=1), 0.0)
    assert np.array_equal(m.A, LORENZ_A)
    assert np.array_equal(m.B, LORENZ_B)
    assert m.theta1 == 0.1 and m.theta2 == 1.0
    assert m.L_g == 3.0
    # pair delay for (i=1, j=1) follows the sin-indexed family
    d = m.pair_delay_times(10.0)
    assert 10.0 - d[0, 0] == pytest.approx(0.5 * (1 - 0.1 * abs(np.sin(3))) * 10)


def test_lorenz_rhs_vectorised():
    x = np.array([1.0, 2.0, 3.0])
    out = lorenz_rhs(x)
    assert np.allclose(out, [10.0, 28 - 2 - 3, 2 - 8.0])
    batch = lorenz_rhs(np.stack([x, x]))
    assert batch.shape == (2, 3)
    assert np.allclose(batch[0], out)


def estimate_lipschitz(fn, lo, hi, n_samples: int = 2000, seed: int = 0) -> float:
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


def test_g_lipschitz_constant():
    est = estimate_lipschitz(lambda x: sin_plus_linear(x),
                             [-10.0] * 3, [10.0] * 3, n_samples=5000, seed=1)
    assert est <= 3.0 + 1e-9
    assert est > 2.8


def _grid_max(box, points: int) -> float:
    axes = [np.linspace(lo, hi, points) for lo, hi in box]
    return max(lorenz_jacobian_norm(np.array([a, b, c]))
               for a in axes[0] for b in axes[1] for c in axes[2])


def test_lorenz_lipschitz_bound_is_the_corner_maximum():
    # the preset's L_f is the corner maximum, the same float as the maximum
    # over the 9-point grid on LORENZ_BOX that holds the corners
    pinned = float.fromhex("0x1.8c1d5adaf44dap+5")
    assert lorenz_preset().model.L_f == lorenz_lipschitz_bound() == pinned
    assert _grid_max(LORENZ_BOX, 9) == pinned


_BOUNDS = st.floats(-60.0, 60.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_BOUNDS, _BOUNDS), min_size=3, max_size=3))
def test_no_box_point_exceeds_the_corner_maximum(pairs):
    # J(x) is affine, so its spectral norm is convex: an interior grid point
    # never beats the corners
    box = np.array([sorted(p) for p in pairs])
    assert _grid_max(box, 5) <= lorenz_lipschitz_bound(box) * (1.0 + 1e-12)


def _small_model(B=None, delays=None):
    A = np.array([[-1.0, 1.0], [1.0, -1.0]])
    B = np.zeros((2, 2)) if B is None else B
    return NetworkModel(N=2, n=2, A=A, B=B, theta1=0.1, theta2=1.0,
                        f=lambda x: -np.asarray(x), g=sin_plus_linear,
                        L_f=1.0, L_g=3.0,
                        delays=delays or DelayProfile.proportional(0.5))


def test_identical_initial_states_zero_error():
    init = np.array([[1.0, -1.0], [0.5, 2.0]])
    exp = SyncExperiment(model=_small_model(),
                         drive_init=init.copy(), response_init=init.copy(),
                         integrator=IntegratorConfig(horizon=2.0, h=1e-3))
    res = simulate_sync(exp)
    assert np.abs(res.error.states).max() == 0.0
    assert np.allclose(res.response.states, res.drive.states)


def test_zero_input_swap_symmetry():
    d0 = np.array([[1.0, -1.0], [0.5, 2.0]])
    r0 = np.array([[0.0, 1.0], [1.5, -0.5]])
    cfg = IntegratorConfig(horizon=2.0, h=1e-3, zero_band=0.0)
    a = SyncExperiment(model=_small_model(), drive_init=d0,
                       response_init=r0, integrator=cfg)
    b = SyncExperiment(model=_small_model(), drive_init=r0,
                       response_init=d0, integrator=cfg)
    ra, rb = simulate_sync(a), simulate_sync(b)
    assert np.allclose(ra.error.states, -rb.error.states, atol=1e-12)


def test_error_indices_values():
    x = np.zeros((1, 9))
    x[0, 3:6] = [3.0, 4.0, 0.0]
    drive = HistoryTrajectory.from_arrays(0.0, 1.0, np.vstack([x, x]))
    resp_states = np.vstack([x, x]) + 1.0  # shift every component by 1
    resp = HistoryTrajectory.from_arrays(0.0, 1.0, resp_states)
    e1, e2, outer = error_index_series(drive, resp, 3, 3)
    assert e1 == pytest.approx([5.0, 5.0])
    assert e2 == pytest.approx([5.0, 5.0])
    assert outer == pytest.approx([3.0, 3.0])  # 9 unit offsets: sqrt(9)


def test_index_consistency_zero_outer_error():
    exp = lorenz_preset(horizon=0.05, h=1e-3)
    exp.response_init = exp.drive_init.copy()
    res = simulate_sync(exp)
    _, _, outer = error_index_series(res.drive, res.response, 3, 3)
    assert np.abs(outer).max() == 0.0


def test_error_system_matches_direct_response():
    # full-node static control depends only on e, so the two integration
    # routes must agree to discretisation accuracy
    control = NetworkControlSpec(kind="full", theta3=10.0, theta4=5.0)
    exp = lorenz_preset(horizon=1.0, h=5e-4, control=control)
    exp.integrator = IntegratorConfig(horizon=1.0, h=5e-4, zero_band=0.0)
    res = simulate_sync(exp)
    direct = simulate_response_directly(exp, res.drive)
    diff = np.abs(direct.states - res.response.states).max()
    assert diff < 10.0 * 5e-4  # within 10 h per unit time (horizon 1)


@pytest.mark.parametrize("kind", ["full", "pinning"])
def test_static_control_takes_the_auto_zero_band(kind):
    # zero_band unset: the error system projects with theta3 * h, as it does
    # with the adaptive hook's sign gain, and settles to exactly 0; the drive
    # has no sign feedback and keeps band 0; an explicit 0 keeps band 0
    spec = NetworkControlSpec(kind=kind, theta3=40.0, theta4=30.0, sigma=2.0)
    auto = simulate_sync(lorenz_preset(horizon=0.1, h=5e-4, control=spec))
    assert (auto.error.states[-1] == 0.0).all()
    plain = lorenz_preset(horizon=0.1, h=5e-4, control=spec)
    plain.integrator = IntegratorConfig(horizon=0.1, h=5e-4, zero_band=0.0)
    plain = simulate_sync(plain)
    assert plain.drive.states.tobytes() == auto.drive.states.tobytes()
    assert not (plain.error.states == 0.0).any()


def test_explicit_zero_band_never_projects_the_drive():
    # the uncontrolled drive keeps band 0 whatever band the error system takes
    spec = NetworkControlSpec(kind="full", theta3=40.0, theta4=30.0)
    drives = []
    for band in (0.0, 0.02):
        exp = lorenz_preset(horizon=0.5, h=5e-4, control=spec)
        exp.integrator = IntegratorConfig(horizon=0.5, h=5e-4, zero_band=band)
        drives.append(simulate_sync(exp).drive.states)
    assert drives[1].tobytes() == drives[0].tobytes()


def test_uncontrolled_preset_desynchronized():
    exp = lorenz_preset(horizon=2.0, h=5e-4)
    res = simulate_sync(exp)
    _, _, outer = error_index_series(res.drive, res.response, 3, 3)
    assert outer.min() > 0.1


def test_model_validation():
    with pytest.raises(ValueError):
        NetworkModel(N=2, n=2, A=np.array([[-1.0, 0.5], [1.0, -1.0]]),
                     B=np.zeros((2, 2)), theta1=0.1, theta2=1.0,
                     f=lambda x: x, g=lambda x: x, L_f=1.0, L_g=1.0,
                     delays=DelayProfile.proportional(0.5))
    with pytest.raises(ValueError):
        NetworkModel(N=2, n=2, A=np.array([[-1.0, 1.0], [1.0, -1.0]]),
                     B=np.zeros((3, 3)), theta1=0.1, theta2=1.0,
                     f=lambda x: x, g=lambda x: x, L_f=1.0, L_g=1.0,
                     delays=DelayProfile.proportional(0.5))


def test_experiment_validation():
    model = _small_model()
    with pytest.raises(TypeError):
        SyncExperiment(model=model, response_init=np.zeros((2, 2)))  # missing drive
    for drive, response in ((np.zeros((2, 3)), np.zeros((2, 2))),
                            (np.zeros((2, 2)), np.zeros(4))):
        with pytest.raises(ValueError, match=r"must be \(2, 2\)"):
            SyncExperiment(model=model, drive_init=drive, response_init=response)


def _short_run(kind, variant):
    exp = lorenz_preset(horizon=0.01, h=5e-4,
                        control=NetworkControlSpec(kind, sigma=2.0) if kind == "pinning"
                        else NetworkControlSpec(kind))
    exp.adaptive_hook = NetworkAdaptiveHook(0.05, 0.05, 0.02, RateFunction.power(0.1),
                                            exp.model.delays, variant=variant)
    return simulate_sync(exp)


@pytest.mark.parametrize("kind", ["none", "full"])
def test_a_pinning_hook_needs_a_pinning_spec(kind):
    """theta1_theta3 pins node 1 with the spec's sigma: a spec without one is refused."""
    with pytest.raises(ValueError, match="theta1_theta3 .* pinning control spec"):
        _short_run(kind, "theta1_theta3")
    assert _short_run("pinning", "theta1_theta3").error.gain_names == ("theta1", "theta3")


@pytest.mark.parametrize("kind", ["none", "full", "pinning"])
def test_a_full_node_hook_runs_under_every_spec(kind):
    res = _short_run(kind, "theta3_theta4")
    assert res.error.gain_names == ("theta4", "theta3")
    assert res.error.states.shape == (21, 9)
