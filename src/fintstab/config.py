"""Experiment configuration: JSON schema, strict validation, builders.

Configs are plain JSON documents (schema_version 1).  Validation is strict:
unknown fields are rejected with the offending path, so configs round-trip
losslessly and typos fail loudly.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from .delays import DelayProfile, RateFunction
from .integrate import IntegratorConfig

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Configuration document violates the schema; message names the field."""


def _require(block: dict, path: str, key: str, types, default=None, required=False):
    if key not in block:
        if required:
            raise ConfigError(f"{path}.{key}: required field missing")
        return default
    value = block[key]
    if value is None and not required:
        return default
    # JSON true/false load as bool, a subclass of int: never a number here
    if not isinstance(value, types) or isinstance(value, bool):
        raise ConfigError(f"{path}.{key}: expected {types}, got {type(value).__name__}")
    return value


def _check_keys(block: dict, path: str, allowed):
    unknown = set(block) - set(allowed)
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}: unknown field")


_NUM = (int, float)


def parse_delay(block: dict, path: str = "delay") -> DelayProfile:
    _check_keys(block, path, {"kind", "q", "pi", "n_components", "n_nodes",
                              "base", "depth", "envelope_q", "coefficients"})
    kind = _require(block, path, "kind", str, required=True)
    if kind == "proportional":
        q = _require(block, path, "q", _NUM, required=True)
        m = _require(block, path, "n_components", int, default=1)
        return DelayProfile.proportional(float(q), n_components=m)
    if kind == "constant":
        pi_value = _require(block, path, "pi", _NUM, required=True)
        m = _require(block, path, "n_components", int, default=1)
        return DelayProfile.constant(float(pi_value), n_components=m)
    if kind == "per_component_sin":
        n_nodes = _require(block, path, "n_nodes", int, required=True)
        base = _require(block, path, "base", _NUM, default=0.5)
        depth = _require(block, path, "depth", _NUM, default=0.1)
        env = _require(block, path, "envelope_q", _NUM, default=0.5)
        return DelayProfile.pairwise_sin(n_nodes, base=float(base),
                                         depth=float(depth), envelope_q=float(env))
    if kind == "custom_grid":
        coeffs = _require(block, path, "coefficients", list, required=True)
        env = _require(block, path, "envelope_q", _NUM)
        return DelayProfile.per_component_proportional(
            coeffs, envelope_q=float(env) if env is not None else None)
    raise ConfigError(f"{path}.kind: unknown delay kind {kind!r}")


def parse_rate(block: dict, path: str = "rate") -> RateFunction:
    _check_keys(block, path, {"kind", "exponent", "rate"})
    kind = _require(block, path, "kind", str, required=True)
    if kind == "power":
        rho = _require(block, path, "exponent", _NUM, required=True)
        return RateFunction.power(float(rho))
    if kind == "exponential":
        varpi = _require(block, path, "rate", _NUM, required=True)
        return RateFunction.exponential(float(varpi))
    raise ConfigError(f"{path}.kind: unknown rate kind {kind!r}")


def parse_integrator(block: dict, path: str = "integrator") -> IntegratorConfig:
    _check_keys(block, path, {"h", "horizon", "method", "zero_band", "zero_tol"})
    horizon = _require(block, path, "horizon", _NUM, required=True)
    try:
        return IntegratorConfig(
            horizon=float(horizon),
            h=float(_require(block, path, "h", _NUM, default=1e-3)),
            method=_require(block, path, "method", str, default="euler"),
            zero_band=_require(block, path, "zero_band", _NUM),
            zero_tol=float(_require(block, path, "zero_tol", _NUM, default=1e-9)),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


@dataclass
class ExperimentConfig:
    raw: Dict[str, Any]
    kind: str
    delay: Optional[DelayProfile]
    rate: RateFunction
    integrator: IntegratorConfig

    @property
    def system(self) -> dict:
        return self.raw.get("system", {})

    @property
    def gains(self) -> dict:
        return self.raw.get("gains", {})

    @property
    def adaptive(self) -> dict:
        return self.raw.get("adaptive", {})

    @property
    def control(self) -> dict:
        return self.raw.get("control", {})

    @property
    def monitor(self) -> dict:
        return self.raw.get("monitor", {})

    @property
    def output(self) -> dict:
        return self.raw.get("output", {})

    def to_dict(self) -> dict:
        return json.loads(json.dumps(self.raw))


_TOP_KEYS_SCALAR = {"schema_version", "kind", "system", "gains", "adaptive",
                    "delay", "rate", "integrator", "monitor", "output"}
_TOP_KEYS_NETWORK = {"schema_version", "kind", "system", "control", "rate",
                     "integrator", "monitor", "output"}


def load_config(doc: Dict[str, Any]) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config: document must be a JSON object")
    version = _require(doc, "config", "schema_version", int, required=True)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"config.schema_version: unsupported version {version}")
    kind = _require(doc, "config", "kind", str, required=True)
    if kind == "scalar":
        _check_keys(doc, "config", _TOP_KEYS_SCALAR)
        system = _require(doc, "config", "system", dict, required=True)
        _check_keys(system, "system", {"c1", "c2", "dimension", "initial_state"})
        _require(system, "system", "c1", _NUM, required=True)
        _require(system, "system", "c2", _NUM, required=True)
        init = _require(system, "system", "initial_state", list, required=True)
        dim = _require(system, "system", "dimension", int, default=len(init))
        if len(init) != dim:
            raise ConfigError("system.initial_state: length does not match dimension")
        gains = _require(doc, "config", "gains", dict, default={})
        _check_keys(gains, "gains", {"c3", "c4"})
        adaptive = _require(doc, "config", "adaptive", dict, default={})
        _check_keys(adaptive, "adaptive", {"enabled", "d1", "d2", "d3", "norm"})
        delay = parse_delay(_require(doc, "config", "delay", dict, required=True))
        if delay.n_components not in (1, dim):
            raise ConfigError("delay: component count does not match system dimension")
    elif kind == "network":
        _check_keys(doc, "config", _TOP_KEYS_NETWORK)
        system = _require(doc, "config", "system", dict, required=True)
        _check_keys(system, "system", {"preset"})
        preset = _require(system, "system", "preset", str, required=True)
        if preset != "lorenz3":
            raise ConfigError(f"system.preset: unknown preset {preset!r}")
        control = _require(doc, "config", "control", dict, default={})
        _check_keys(control, "control", {"kind", "theta3", "theta4", "sigma", "adaptive"})
        adaptive = _require(control, "control", "adaptive", dict, default={})
        _check_keys(adaptive, "control.adaptive",
                    {"enabled", "variant", "d1", "d2", "d3"})
        delay = None  # the preset fixes its own pairwise profile
    else:
        raise ConfigError(f"config.kind: unknown experiment kind {kind!r}")

    rate = parse_rate(_require(doc, "config", "rate", dict, required=True))
    integrator = parse_integrator(_require(doc, "config", "integrator", dict, required=True))
    monitor = _require(doc, "config", "monitor", dict, default={})
    _check_keys(monitor, "monitor", {"kappa", "start_time", "eps1", "require_feasible"})
    output = _require(doc, "config", "output", dict, default={})
    _check_keys(output, "output", {"csv", "stride"})
    if not isinstance(output.get("csv", ""), str):
        raise ConfigError(f"output.csv: expected a path string, got {output['csv']!r}")
    if type(output.get("stride", 1)) is not int or output.get("stride", 1) < 1:
        raise ConfigError(f"output.stride: expected an int >= 1, got {output['stride']!r}")

    return ExperimentConfig(raw=doc, kind=kind, delay=delay, rate=rate,
                            integrator=integrator)


def load_config_file(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON ({exc})") from exc
    return load_config(doc)
