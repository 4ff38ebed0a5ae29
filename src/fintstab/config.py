"""Experiment configuration: one schema table, one field checker, builders.

Configs are plain JSON documents (schema_version 1).  `_SCHEMA` is the
reference for every field: its type and its default.  Every check runs once,
in `load_config`, as a ConfigError naming the field or block.  Outside the
table: the schema version, output.stride >= 1, monitor.kappa in (0, 1),
monitor.eps1 > 0, the scalar initial_state against dimension and delay
components, and the rates an enabled scalar adaptive block needs.  Every
other range is a run object's constructor check, reached through `_build`:
delay, rate, integrator, static gains, network control and adaptive hook.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Dict, Optional

from .control import (AdaptiveHook, NetworkAdaptiveHook, NetworkControlSpec,
                      ScalarAdaptiveHook, StaticScalarGains)
from .delays import DelayProfile, RateFunction
from .integrate import IntegratorConfig
from .network import LORENZ_DELAYS

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Configuration document violates the schema; message names the field."""


REQUIRED = object()   # the default of a field that has none
_NUM = (int, float)   # a number; JSON true/false load as bool, never a number here


class _Kinds(dict):
    """One field table per value of the block's `kind` field."""


# A field table maps a field to (type, default).  The type is a Python type,
# a tuple of the strings the field may take, [_NUM] for a list of numbers, or
# the field table (or _Kinds) of a nested block.  Null is never a valid value:
# an absent field takes its default.  Numbers are finite and load as floats.
_SHARED = {
    "schema_version": (int, REQUIRED),
    "rate": (_Kinds(power={"exponent": (_NUM, REQUIRED)},
                    exponential={"rate": (_NUM, REQUIRED)}), REQUIRED),
    "integrator": ({"horizon": (_NUM, REQUIRED), "h": (_NUM, 1e-3),
                    "zero_band": (_NUM, None),     # None: the sign gain times h
                    "zero_tol": (_NUM, 1e-9)}, REQUIRED),
    "monitor": ({"kappa": (_NUM, 0.9),
                 "start_time": (_NUM, None),        # None: the rate's monitor start
                 "eps1": (_NUM, None), "require_feasible": (bool, False)}, {}),
    "output": ({"csv": (str, "trajectory.csv"), "stride": (int, 1)}, {}),
}
_NETWORK_ADAPTIVE = ({"enabled": (bool, False), "d1": (_NUM, 0.05),
                      "d2": (_NUM, None), "d3": (_NUM, 0.02)}, {})   # d2 None: d1
_SCHEMA = _Kinds(
    scalar=dict(
        _SHARED,
        system=({"c1": (_NUM, REQUIRED), "c2": (_NUM, REQUIRED),
                 "initial_state": ([_NUM], REQUIRED),
                 "dimension": (int, None)}, REQUIRED),    # None: len(initial_state)
        gains=({"c3": (_NUM, 0.0), "c4": (_NUM, 0.0)}, {}),
        adaptive=({"enabled": (bool, False), "norm": (("two", "one", "inf"), "two"),
                   # required when enabled
                   "d1": (_NUM, None), "d2": (_NUM, None), "d3": (_NUM, None)}, {}),
        delay=(_Kinds(proportional={"q": (_NUM, REQUIRED), "n_components": (int, 1)},
                      constant={"pi": (_NUM, REQUIRED), "n_components": (int, 1)},
                      per_component_sin={"n_nodes": (int, REQUIRED), "base": (_NUM, 0.5),
                                         "depth": (_NUM, 0.1), "envelope_q": (_NUM, 0.5)},
                      custom_grid={"coefficients": ([_NUM], REQUIRED),
                                   "envelope_q": (_NUM, None)}), REQUIRED)),   # None: max
    network=dict(
        _SHARED,
        system=({"preset": (("lorenz3",), REQUIRED)}, REQUIRED),
        control=(_Kinds(none={},
                        pinning={"theta3": (_NUM, 0.0), "sigma": (_NUM, 1.0),
                                 "adaptive": _NETWORK_ADAPTIVE},
                        full={"theta3": (_NUM, 0.0), "theta4": (_NUM, 0.0),
                              "adaptive": _NETWORK_ADAPTIVE}), {"kind": "none"})),
)

_MAKE = {
    "proportional": lambda b: DelayProfile.proportional(b["q"], n_components=b["n_components"]),
    "constant": lambda b: DelayProfile.constant(b["pi"], n_components=b["n_components"]),
    "per_component_sin": lambda b: DelayProfile.pairwise_sin(
        b["n_nodes"], base=b["base"], depth=b["depth"], envelope_q=b["envelope_q"]),
    "custom_grid": lambda b: DelayProfile.per_component_proportional(
        b["coefficients"], envelope_q=b["envelope_q"]),
    "power": lambda b: RateFunction.power(b["exponent"]),
    "exponential": lambda b: RateFunction.exponential(b["rate"]),
}
_TYPE_NAMES = {_NUM: "a finite number", int: "an int", bool: "a bool", str: "a string"}


def _is(value, want) -> bool:
    if isinstance(want, dict):
        return isinstance(value, dict)
    if isinstance(want, list):
        return isinstance(value, list) and all(_is(v, want[0]) for v in value)
    if isinstance(want, tuple) and isinstance(want[0], str):
        return isinstance(value, str) and value in want
    if want is _NUM:   # JSON loads NaN and +-Infinity: no field takes them
        return (isinstance(value, want) and not isinstance(value, bool)
                and abs(value) <= sys.float_info.max)
    return isinstance(value, want) and (want is bool or not isinstance(value, bool))


def _fields(block: dict, path: str, spec) -> dict:
    """`block` checked against the field table `spec` (or the table of its
    kind), every field present: absent ones at their defaults, numbers as
    floats, nested blocks checked in turn.  Blocks of the document are named
    by their key, the document itself "config"."""
    if isinstance(spec, _Kinds):
        head = {"kind": (tuple(spec), REQUIRED)}
        kind = _fields({k: block[k] for k in head if k in block}, path, head)["kind"]
        spec = dict(head, **spec[kind])
    unknown = sorted(set(block) - set(spec))
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}: unknown field")
    out = {}
    for key, (want, default) in spec.items():
        name = f"{path}.{key}"
        value = block.get(key, default)
        if value is REQUIRED:
            raise ConfigError(f"{name}: required field missing")
        if key in block and not _is(value, want):
            wanted = ("a JSON object" if isinstance(want, dict) else "a list of numbers"
                      if isinstance(want, list) else _TYPE_NAMES.get(want, f"one of {want}"))
            raise ConfigError(f"{name}: expected {wanted}, got {type(value).__name__} "
                              f"{value!r}")
        if isinstance(want, dict):
            value = _fields(value, key if path == "config" else name, want)
        elif want is _NUM and value is not None:
            value = float(value)
        elif isinstance(want, list):
            value = [float(v) for v in value]
        out[key] = value
    return out


def _build(path: str, make, *args, **kwargs):
    """make(*args, **kwargs), its ValueError re-raised as a ConfigError on `path`."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


@dataclass
class ExperimentConfig:
    """A loaded document: `raw` as given, the built run objects (`gains` of a
    scalar config, `control` of a network one) and each plain block with every
    field of its table.  A network's `delay` is its preset's, and its
    `adaptive` block is its `control.adaptive`, `{"enabled": False}` under none."""

    raw: Dict[str, Any]
    kind: str
    rate: RateFunction
    integrator: IntegratorConfig
    delay: DelayProfile
    system: dict
    adaptive: dict
    monitor: dict
    output: dict
    gains: Optional[StaticScalarGains] = None
    control: Optional[NetworkControlSpec] = None


def adaptive_hook(cfg: ExperimentConfig) -> Optional[AdaptiveHook]:
    """A fresh gain hook for the config's enabled adaptive block, None when it
    is disabled.  A hook holds its run's gains, so each run builds its own."""
    a, zero_tol = cfg.adaptive, cfg.integrator.zero_tol
    if not a["enabled"]:
        return None
    if cfg.kind == "scalar":
        return ScalarAdaptiveHook(a["d1"], a["d2"], a["d3"], cfg.rate, cfg.delay,
                                  norm=a["norm"], zero_tol=zero_tol)
    variant = "theta1_theta3" if cfg.control.kind == "pinning" else "theta3_theta4"
    return NetworkAdaptiveHook(a["d1"], a["d2"], a["d3"], cfg.rate, cfg.delay,
                               variant=variant, zero_tol=zero_tol)


def load_config(doc: Dict[str, Any]) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config: document must be a JSON object")
    blocks = _fields(doc, "config", _SCHEMA)
    version = blocks.pop("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"config.schema_version: unsupported version {version}")
    if blocks["output"]["stride"] < 1:
        raise ConfigError(f"output.stride: expected an int >= 1, got "
                          f"{blocks['output']['stride']!r}")
    kappa, eps1 = blocks["monitor"]["kappa"], blocks["monitor"]["eps1"]
    if not 0.0 < kappa < 1.0:
        raise ConfigError(f"monitor.kappa: expected a number in (0, 1), got {kappa!r}")
    if eps1 is not None and not eps1 > 0.0:
        raise ConfigError(f"monitor.eps1: expected a number > 0, got {eps1!r}")
    if blocks["kind"] == "scalar":
        sysb, adaptive = blocks["system"], blocks["adaptive"]
        dim = len(sysb["initial_state"])
        if not dim or sysb["dimension"] not in (None, dim):
            want = "one or more" if sysb["dimension"] is None else sysb["dimension"]
            raise ConfigError(f"system.initial_state: expected {want} numbers, got {dim}")
        for key in ("d1", "d2", "d3"):
            if adaptive["enabled"] and adaptive[key] is None:
                raise ConfigError(f"adaptive.{key}: required field missing")
        delay = blocks["delay"] = _build("delay", _MAKE[blocks["delay"]["kind"]], blocks["delay"])
        if delay.n_components not in (1, dim):
            raise ConfigError("delay: component count does not match system dimension")
        blocks["gains"] = _build("gains", StaticScalarGains, sysb["c1"], sysb["c2"],
                                 **blocks["gains"])
    else:
        adaptive = blocks["adaptive"] = blocks["control"].pop("adaptive", {"enabled": False})
        if adaptive.get("d2", 0.0) is None:
            adaptive["d2"] = adaptive["d1"]
        blocks["control"] = _build("control", NetworkControlSpec, **blocks["control"])
        blocks["delay"] = LORENZ_DELAYS
    blocks["rate"] = _build("rate", _MAKE[blocks["rate"]["kind"]], blocks["rate"])
    blocks["integrator"] = _build("integrator", IntegratorConfig, **blocks["integrator"])
    cfg = ExperimentConfig(raw=doc, **blocks)
    _build("adaptive" if cfg.kind == "scalar" else "control.adaptive", adaptive_hook, cfg)
    return cfg

