"""Range checks run once, at load: a config that loads, runs.

Every out-of-range value is a ConfigError from `load_config` that names its
block or field, and the CLI reports it as a config error.  A hypothesis gate
draws schema-typed documents from `config._SCHEMA` itself: each one either
fails to load with a ConfigError or runs a few steps without a ValueError,
and one with a NaN or an infinite number never loads.
"""
import copy
import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fintstab import config
from fintstab.cli import EXAMPLE1, EXAMPLE2, PRESETS, main, run
from fintstab.config import ConfigError, load_config
from fintstab.control import (NetworkAdaptiveHook, NetworkControlSpec, ScalarAdaptiveHook,
                              StaticScalarGains)
from fintstab.delays import RateFunction
from fintstab.integrate import DivergenceError, IntegratorConfig, integrate
from fintstab.network import LORENZ_A, LORENZ_B, LORENZ_DELAYS, NetworkModel, lorenz_preset


def _doc(base, **blocks):
    """A short run of the preset document `base`, with top-level blocks
    replaced by the given ones (an integrator block is merged)."""
    doc = copy.deepcopy(base)
    doc["integrator"] = dict(doc["integrator"], horizon=0.05)
    for key, block in blocks.items():
        doc[key] = dict(doc.get(key, {}), **block) if key == "integrator" else block
    return doc


_ADAPTIVE = {"enabled": True, "d1": 0.1, "d2": 0.1, "d3": 0.1}

_CASES = [
    # (document, the block or field its error names; None: in range, loads and runs)
    (_doc(EXAMPLE1, gains={"c3": -1.0, "c4": 3.5}), "gains"),
    (_doc(EXAMPLE1, adaptive=dict(_ADAPTIVE, d1=-0.1)), "adaptive"),
    (_doc(EXAMPLE1, integrator={"horizon": -1.0}), "integrator"),
    (_doc(EXAMPLE1, integrator={"horizon": 1.0005, "h": 1e-3}), "integrator"),
    (_doc(EXAMPLE2, control={"kind": "pinning", "sigma": 0.0}), "control"),
    (_doc(EXAMPLE2, control={"kind": "full", "theta3": -1.0}), "control"),
    (_doc(EXAMPLE2, control={"kind": "full", "adaptive": {"enabled": True, "d3": -1.0}}),
     "control.adaptive"),
    (_doc(EXAMPLE1, adaptive=_ADAPTIVE, monitor={"kappa": -0.5}), "monitor.kappa"),
    (_doc(EXAMPLE1, monitor={"kappa": 0}), "monitor.kappa"),
    (_doc(EXAMPLE1, monitor={"kappa": 1}), "monitor.kappa"),
    (_doc(EXAMPLE2, monitor={"kappa": 1.5}), "monitor.kappa"),
    (_doc(EXAMPLE1, gains={"c3": 2.1, "c4": 2.0}, monitor={"eps1": -1.0}), "monitor.eps1"),
    (_doc(EXAMPLE2, monitor={"eps1": 0}), "monitor.eps1"),
    (_doc(EXAMPLE1, system={"c1": 1.0, "c2": 2.0, "initial_state": []}),
     "system.initial_state"),
    (_doc(EXAMPLE1, gains={"c3": math.nan, "c4": math.inf}), "gains.c3"),
    (_doc(EXAMPLE1, gains={"c3": 2.1, "c4": math.inf}), "gains.c4"),
    (_doc(EXAMPLE1, system={"c1": 1.0, "c2": 2.0, "initial_state": [-math.inf]}),
     "system.initial_state"),
    (_doc(EXAMPLE2, control={"kind": "full", "theta3": math.nan}), "control.theta3"),
    (_doc(EXAMPLE1, gains={"c3": 0.0, "c4": 3.5}), None),
    (_doc(EXAMPLE1, delay={"kind": "constant", "pi": 0.0}), None),
    (_doc(EXAMPLE1, monitor={"kappa": 0.999}), None),
    (_doc(EXAMPLE1, monitor={"eps1": 1e-6}), None),
    (_doc(EXAMPLE2, monitor={"kappa": 0.999, "eps1": 1e-6}), None),
    # 1e303 steps: rejected before any history is allocated
    (_doc(EXAMPLE1, integrator={"horizon": 1000.0, "h": 1e-300}), "integrator"),
]
_IDS = ["c3_negative", "scalar_d1_negative", "horizon_negative", "horizon_off_grid",
        "sigma_zero", "theta3_negative", "network_d3_negative", "kappa_negative",
        "kappa_zero", "kappa_one", "kappa_above_one", "eps1_negative", "eps1_zero",
        "initial_state_empty", "c3_nan", "c4_inf", "initial_state_minus_inf",
        "theta3_nan", "c3_zero", "constant_pi_zero", "kappa_0.999", "eps1_1e-6",
        "network_edges", "too_many_steps"]


@pytest.mark.parametrize("doc, name", _CASES, ids=_IDS)
def test_range_errors_are_config_errors_at_load(tmp_path, capsys, doc, name):
    if name is None:
        run(load_config(doc))
        return
    with pytest.raises(ConfigError, match=rf"^{re.escape(name)}[.:] "):
        load_config(doc)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    for argv in (["simulate"], ["check"], ["check", "--require-feasible"]):
        assert main(argv[:1] + [str(path)] + argv[1:]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {name}") and "Traceback" not in err


# -- the Python API ----------------------------------------------------------------

def _lorenz_model(**fields):
    """The Lorenz preset's model with the given fields replaced, built anew so
    that its checks run on them."""
    model = lorenz_preset().model
    kw = {f.name: getattr(model, f.name) for f in dataclasses.fields(model)}
    return NetworkModel(**dict(kw, **fields))


def _with_nan(M, i, j):
    M = np.array(M, dtype=float)
    M[i, j] = math.nan
    return M


def _integrator(**fields):
    return IntegratorConfig(horizon=1.0, h=0.5, **fields)


_RATE, _DELAYS = RateFunction.power(0.1), LORENZ_DELAYS

_NONFINITE_API = {
    "spec_theta4_nan": lambda: NetworkControlSpec(kind="full", theta4=math.nan),
    "spec_sigma_nan": lambda: NetworkControlSpec(kind="full", sigma=math.nan),
    "spec_sigma_inf": lambda: NetworkControlSpec(kind="pinning", sigma=math.inf),
    "spec_theta3_inf": lambda: NetworkControlSpec(kind="pinning", theta3=math.inf),
    "model_theta1_inf": lambda: _lorenz_model(theta1=math.inf),
    "model_theta2_nan": lambda: _lorenz_model(theta2=math.nan),
    "model_A_nan": lambda: _lorenz_model(A=_with_nan(LORENZ_A, 0, 1)),
    "model_B_nan": lambda: _lorenz_model(B=_with_nan(LORENZ_B, 2, 2)),
    "network_hook_d1_nan": lambda: NetworkAdaptiveHook(math.nan, 1.0, 1.0, _RATE, _DELAYS),
    "network_hook_d3_inf": lambda: NetworkAdaptiveHook(1.0, 1.0, math.inf, _RATE, _DELAYS),
    "scalar_hook_d2_inf": lambda: ScalarAdaptiveHook(1.0, math.inf, 1.0, _RATE, _DELAYS),
    "gains_c3_nan": lambda: StaticScalarGains(1.0, 1.0, math.nan, 1.0),
    "gains_c4_inf": lambda: StaticScalarGains(1.0, 1.0, 1.0, math.inf),
    "gains_c2_nan": lambda: StaticScalarGains(1.0, math.nan, 1.0, 1.0),
    "model_L_f_nan": lambda: _lorenz_model(L_f=math.nan),
    "model_L_g_inf": lambda: _lorenz_model(L_g=math.inf),
    "model_L_f_negative": lambda: _lorenz_model(L_f=-1.0),
    "model_L_g_negative": lambda: _lorenz_model(L_g=-3.0),
    "integrator_divergence_limit_nan": lambda: _integrator(divergence_limit=math.nan),
    "integrator_divergence_limit_zero": lambda: _integrator(divergence_limit=0.0),
    "integrator_zero_band_nan": lambda: _integrator(zero_band=math.nan),
    "integrator_zero_band_inf": lambda: _integrator(zero_band=math.inf),
    "integrator_zero_tol_nan": lambda: _integrator(zero_tol=math.nan),
    "integrator_zero_tol_inf": lambda: _integrator(zero_tol=math.inf),
}


@pytest.mark.parametrize("build", _NONFINITE_API.values(), ids=list(_NONFINITE_API))
def test_the_api_rejects_nonfinite_parameters(build):
    # the constructors hold the loader's rule that numbers are finite
    with pytest.raises(ValueError, match="finite"):
        build()


def test_an_infinite_divergence_limit_is_no_limit():
    # +inf is the one non-finite number the API keeps: no finite state exceeds it
    def rhs(t, x, traj):
        return [1e300]

    with pytest.raises(DivergenceError):
        integrate(rhs, np.zeros(1), None, _integrator())
    traj = integrate(rhs, np.zeros(1), None, _integrator(divergence_limit=math.inf))
    assert traj.states[:, 0].tolist() == [0.0, 5e299, 1e300]


# -- the hypothesis gate ------------------------------------------------------------

# Finite numbers are bounded in magnitude (|x| <= 1e3), so that float overflow
# is not taken for a range error; NaN and +-Infinity, which JSON loads, are
# drawn as well.  Numbers, ints and bools lean to typical values, and
# an optional field to being present, so that a fair share of documents load.
# Ints stay small: per_component_sin builds n_nodes**2 delay components.
_MAYBE = st.sampled_from((True, False))
_FINITE = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
_NONFINITE = st.sampled_from((math.nan, math.inf, -math.inf))
_NUMBER = st.sampled_from((0.5, 0.1, 2, 1, 0.001, 0.999, _FINITE, _NONFINITE)).flatmap(
    lambda x: x if isinstance(x, st.SearchStrategy) else st.just(x))
_LEAF = {config._NUM: _NUMBER, int: st.sampled_from((1, 2, 3, 0, -1)), bool: _MAYBE,
         str: st.text(max_size=4)}
_ABSENT = object()   # an optional field left out


def _value(want):
    if isinstance(want, dict):
        return _block(want)
    if isinstance(want, list):   # an empty list has its own case above
        return st.lists(_NUMBER, min_size=1, max_size=3)
    if isinstance(want, tuple) and isinstance(want[0], str):
        return st.sampled_from(want)
    return _LEAF[want]


def _block(spec):
    """Documents of the field table `spec` (or of one of its kinds), each value
    of its table's type: every required field and every nested block (an
    absent block loads as an empty one), any other field."""
    if isinstance(spec, config._Kinds):
        return st.sampled_from(sorted(spec)).flatmap(
            lambda kind: _block(spec[kind]).map(lambda b: dict(b, kind=kind)))
    fields = {key: _value(want) if default is config.REQUIRED or isinstance(want, dict)
              else _MAYBE.flatmap(lambda present, want=want:
                                  _value(want) if present else st.just(_ABSENT))
              for key, (want, default) in spec.items()}
    return st.fixed_dictionaries(fields).map(
        lambda b: {k: v for k, v in b.items() if v is not _ABSENT})


def _one_block(preset):
    """The preset document with one of its blocks drawn: most of these load,
    so every run path (static, adaptive, each control kind) is reached."""
    spec = config._SCHEMA[preset["kind"]]
    blocks = sorted(k for k, (want, _) in spec.items() if isinstance(want, dict))
    return st.sampled_from(blocks).flatmap(
        lambda key: _value(spec[key][0]).map(lambda block: dict(preset, **{key: block})))


def _finite(value) -> bool:
    if isinstance(value, (dict, list)):
        return all(map(_finite, value.values() if isinstance(value, dict) else value))
    return not isinstance(value, float) or math.isfinite(value)


# any drawn version but 1 only meets the version check
_DOCUMENTS = st.one_of(
    _block(config._SCHEMA).map(lambda d: dict(d, schema_version=1)),
    *(_one_block(p) for p in (EXAMPLE1, dict(EXAMPLE1, adaptive=_ADAPTIVE), EXAMPLE2,
                              dict(EXAMPLE2, control={"kind": "pinning",
                                                      "adaptive": {"enabled": True}}),
                              PRESETS["example2_adaptive"])))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_DOCUMENTS)
def test_a_config_that_loads_runs(doc):
    try:
        cfg = load_config(doc)
    except ConfigError:
        return
    assert _finite(doc), "a non-finite number loaded"
    icfg = cfg.integrator
    cfg.integrator = dataclasses.replace(icfg, horizon=icfg.h * min(icfg.n_steps, 3))
    try:
        with np.errstate(all="ignore"):
            run(cfg)
    except (DivergenceError, ArithmeticError):
        pass   # the state or a float left the representable range
