"""The benchmark's three workloads: seeded inputs, set-up, one rep, output checks.

Importing this module imports numpy and fintstab, so a fresh process that
times its own import of this module times fintstab's import.

Each workload object is built by its set-up (`__init__`), runs one rep with
`run()` (the timed part) and checks that rep's outputs with `check()`.  A
check yields one verdict per unit (a sweep point, a CLI command or a network
run) and a list of observations; for the default seed the observations are
compared against the golden record in golden.json.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
import traceback
from pathlib import Path

import numpy as np

import fintstab.cli as fs_cli
import fintstab.conditions as fs_conditions
import fintstab.config as fs_config
import fintstab.control as fs_control
import fintstab.delays as fs_delays
import fintstab.monitors as fs_monitors
import fintstab.network as fs_network

DEFAULT_SEED = 0           # reproduces the paper presets
FLOAT_RTOL = 1e-6          # golden tolerance on floats: |a - b| <= ATOL + RTOL*|b|
FLOAT_ATOL = 1e-9
GOLDEN_PATH = Path(__file__).with_name("golden.json")

# Example 1 (scalar): p' = p + 2 p(t/2) - sgn(p)(c3 + c4 |p|), mu(t) = t**0.1
SCALAR_SYSTEM = {"c1": 1.0, "c2": 2.0}
SCALAR_GAINS = {"c3": 2.1, "c4": 3.5}
PRESET_P0 = 2.0
PRESET_SWEEPS = {"gains.c4": [3.5, 4.5, 6.0], "gains.c3": [2.1, 3.0, 5.0]}
SWEEP_RANGES = {"gains.c4": (3.2, 8.0), "gains.c3": (2.1, 6.5)}
P0_RANGE = (1.5, 3.0)
SWEEP_HORIZON, SWEEP_H = 5.0, 1e-3
CERTIFY_HORIZON, CERTIFY_H = 40.0, 1e-3
ADAPTIVE_RATES = {"d1": 0.1, "d2": 0.1, "d3": 0.1}

# Example 2 (network): three Lorenz nodes, adaptive theta4/theta3 feedback
LORENZ_HORIZON, LORENZ_H = 20.0, 5e-4
LORENZ_D_THETA4, LORENZ_D_THETA3 = 0.05, 0.02
LORENZ_OFFSET = 2.5
LORENZ_MAX_OUTER = 1e-3
ZERO_TOL = 1e-9


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _scalar_doc(p0: float, horizon: float, h: float) -> dict:
    return {"schema_version": 1, "kind": "scalar",
            "system": dict(SCALAR_SYSTEM, initial_state=[p0]),
            "gains": dict(SCALAR_GAINS),
            "delay": {"kind": "proportional", "q": 0.5},
            "rate": {"kind": "power", "exponent": 0.1},
            "integrator": {"horizon": horizon, "h": h}}


def _steps(horizon: float, h: float) -> int:
    return int(round(horizon / h))


def _grid_index(text: str, h: float):
    value = float(text)
    return int(round(value / h)) if math.isfinite(value) else None


def _digest(*arrays) -> str:
    sha = hashlib.sha256()
    for a in arrays:
        sha.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return sha.hexdigest()[:16]


def _cli(argv):
    """(exit code, captured output) of one fintstab command, run in-process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = fs_cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = "raised"
            buf.write(traceback.format_exc())
    return code, buf.getvalue()


def _write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return path


class Check:
    """Verdicts and golden observations of one rep."""

    def __init__(self):
        self.failures = {}       # unit -> list of messages
        self.observations = []   # (unit, key, kind, value); kind: exact | float | info

    def fail(self, unit: str, message: str):
        self.failures.setdefault(unit, []).append(message)

    def require(self, unit: str, ok: bool, message: str):
        self.failures.setdefault(unit, [])
        if not ok:
            self.fail(unit, message)

    def observe(self, unit: str, key: str, kind: str, value):
        self.observations.append((unit, key, kind, value))

    def compare(self, golden):
        """Fold golden mismatches into the verdicts; info keys only report."""
        notes = []
        if golden is None:
            return notes
        for unit, key, kind, value in self.observations:
            if key not in golden:
                continue
            want = golden[key]["value"]
            if kind == "float":
                ok = bool(np.allclose(value, want, rtol=FLOAT_RTOL, atol=FLOAT_ATOL))
            else:
                ok = value == want
            if ok:
                continue
            message = f"{key}: got {value!r}, golden {want!r}"
            if kind == "info":
                notes.append(message)
            else:
                self.fail(unit, message)
        return notes

    def record(self) -> dict:
        return {key: {"kind": kind, "value": value}
                for _, key, kind, value in self.observations}

    @property
    def attempted(self) -> int:
        return len(self.failures)

    @property
    def failed(self) -> int:
        return sum(1 for msgs in self.failures.values() if msgs)

    def messages(self):
        return [f"{unit}: {m}" for unit, msgs in self.failures.items() for m in msgs]


class GainSweep:
    """`fintstab sweep` over gains.c4, then gains.c3, on static Example 1 (T=5)."""

    name = "gain_sweep"

    def __init__(self, seed: int, workdir: Path):
        if seed == DEFAULT_SEED:
            self.values = {p: list(v) for p, v in PRESET_SWEEPS.items()}
        else:
            rng = _rng(self.name, seed)
            k = len(PRESET_SWEEPS["gains.c4"])
            self.values = {p: sorted(rng.uniform(*SWEEP_RANGES[p]) for _ in range(k))
                           for p in PRESET_SWEEPS}
        doc = _scalar_doc(PRESET_P0, SWEEP_HORIZON, SWEEP_H)
        fs_config.load_config(doc)
        path = _write_json(workdir / "gain_sweep.json", doc)
        self.argvs = [(p, ["sweep", str(path), "--param", p,
                           "--values", ",".join(repr(v) for v in vals)])
                      for p, vals in self.values.items()]
        self.steps_per_rep = (sum(len(v) for v in self.values.values())
                              * _steps(SWEEP_HORIZON, SWEEP_H))

    def run(self):
        return [(param, _cli(argv)) for param, argv in self.argvs]

    def check(self, raw) -> Check:
        chk = Check()
        horizon_idx = _steps(SWEEP_HORIZON, SWEEP_H)
        for param, (code, text) in raw:
            units = [f"{param}[{i}]" for i in range(len(self.values[param]))]
            found = re.findall(rf"^{re.escape(param)} = \S+: T_settle = (\S+)$", text, re.M)
            if code != 0 or len(found) != len(units):
                for u in units:
                    chk.fail(u, f"sweep exit {code!r}, {len(found)} points: {text[-300:]!r}")
                continue
            idx = [_grid_index(t, SWEEP_H) for t in found]
            for i, u in enumerate(units):
                chk.require(u, idx[i] is not None and idx[i] <= horizon_idx,
                            f"did not settle within T={SWEEP_HORIZON}")
                if i and idx[i] is not None and idx[i - 1] is not None:
                    chk.require(u, idx[i] <= idx[i - 1],
                                "T_settle grew with the swept gain")
                chk.observe(u, f"{u}.t_settle_idx", "exact", idx[i])
        return chk


class ScalarCertify:
    """`fintstab check`, `simulate`, `monitor` on adaptive Example 1 (T=40)."""

    name = "scalar_certify"

    def __init__(self, seed: int, workdir: Path):
        if seed == DEFAULT_SEED:
            self.p0 = PRESET_P0
        else:
            rng = _rng(self.name, seed)
            self.p0 = rng.choice((-1.0, 1.0)) * rng.uniform(*P0_RANGE)
        self.traj_csv = workdir / "scalar_certify_traj.csv"
        doc = _scalar_doc(self.p0, CERTIFY_HORIZON, CERTIFY_H)
        doc["adaptive"] = dict(ADAPTIVE_RATES, enabled=True)
        doc["output"] = {"csv": str(self.traj_csv), "stride": 1}
        fs_config.load_config(doc)
        path = str(_write_json(workdir / "scalar_certify.json", doc))
        self.argvs = [("check", ["check", path]),
                      ("simulate", ["simulate", path]),
                      ("monitor", ["monitor", path, str(self.traj_csv),
                                   "--out", str(workdir / "scalar_certify_monitor.csv")])]
        self.steps_per_rep = _steps(CERTIFY_HORIZON, CERTIFY_H)

    def run(self):
        return {cmd: _cli(argv) for cmd, argv in self.argvs}

    def check(self, raw) -> Check:
        chk = Check()
        h = CERTIFY_H

        code, text = raw["check"]
        rows = re.findall(r"^(scalar_\w+_norm)\s+(True|False)\s+(\S+)", text, re.M)
        chk.require("check", code == 0 and len(rows) == 3,
                    f"exit {code!r}, {len(rows)} condition rows: {text[-300:]!r}")
        chk.observe("check", "check.feasible", "exact", [f"{r[0]}={r[1]}" for r in rows])
        chk.observe("check", "check.lhs", "float", [float(r[2]) for r in rows])

        code, text = raw["simulate"]
        t1 = re.search(r"^T1 = (\S+)$", text, re.M)
        ts = re.search(r"^T_settle = (\S+)$", text, re.M)
        sim_ts = None
        if code != 0 or not (t1 and ts):
            chk.fail("simulate", f"exit {code!r}: {text[-300:]!r}")
        else:
            sim_ts = _grid_index(ts.group(1), h)
            chk.require("simulate", sim_ts is not None and sim_ts <= self.steps_per_rep,
                        "adaptive run did not settle")
            chk.observe("simulate", "simulate.t1_idx", "exact", _grid_index(t1.group(1), h))
            chk.observe("simulate", "simulate.t_settle_idx", "exact", sim_ts)
            data = np.loadtxt(self.traj_csv, delimiter=",", skiprows=1, ndmin=2)
            states, gains = data[:, 1:2], data[:, 2:]
            chk.require("simulate", data.shape == (self.steps_per_rep + 1, 4),
                        f"trajectory CSV has shape {data.shape}")
            chk.require("simulate", bool((np.diff(gains, axis=0) >= 0.0).all()),
                        "an adaptive gain decreased")
            chk.observe("simulate", "simulate.rows", "exact", int(data.shape[0]))
            chk.observe("simulate", "simulate.final_gains", "float", gains[-1].tolist())
            chk.observe("simulate", "simulate.digest", "info", _digest(states, gains))

        code, text = raw["monitor"]
        mon = re.search(r"^T1=(\S+), T_settle=(\S+), ", text, re.M)
        cps = re.search(r"^contact points checked = (\d+), failing = (\d+)$", text, re.M)
        if code != 0 or not (mon and cps):
            chk.fail("monitor", f"exit {code!r}: {text[-300:]!r}")
        else:
            n_contacts, n_failing = int(cps.group(1)), int(cps.group(2))
            chk.require("monitor", n_contacts >= 1 and n_failing == 0,
                        f"{n_contacts} contact points, {n_failing} failing")
            mon_ts = _grid_index(mon.group(2), h)
            chk.require("monitor", sim_ts is None or mon_ts == sim_ts,
                        "monitor and simulate disagree on T_settle")
            chk.observe("monitor", "monitor.t1_idx", "exact", _grid_index(mon.group(1), h))
            chk.observe("monitor", "monitor.t_settle_idx", "exact", mon_ts)
            chk.observe("monitor", "monitor.contact_points", "exact", n_contacts)
        self.traj_csv.unlink(missing_ok=True)   # the next rep must write its own
        return chk


class LorenzSync:
    """simulate_sync, error_index_series and a vbar1 contact trace (Python API)."""

    name = "lorenz_sync"

    def __init__(self, seed: int, workdir: Path):
        preset = fs_network.lorenz_preset(horizon=LORENZ_HORIZON, h=LORENZ_H)
        self.response_init = preset.response_init.copy()
        if seed != DEFAULT_SEED:
            rng = _rng(self.name, seed)
            offsets = [[rng.uniform(-LORENZ_OFFSET, LORENZ_OFFSET) for _ in range(3)]
                       for _ in range(3)]
            self.response_init = preset.drive_init + np.array(offsets)
        self.rate = fs_delays.RateFunction.power(0.1)
        self.steps_per_rep = 2 * _steps(LORENZ_HORIZON, LORENZ_H)

    def run(self):
        try:
            profile = fs_delays.DelayProfile.pairwise_sin(3)
            hook = fs_control.NetworkAdaptiveHook(
                d1=LORENZ_D_THETA4, d2=LORENZ_D_THETA4, d3=LORENZ_D_THETA3,
                rate=self.rate, profile=profile, variant="theta3_theta4")
            exp = fs_network.lorenz_preset(horizon=LORENZ_HORIZON, h=LORENZ_H,
                                           adaptive_hook=hook)
            exp.response_init = self.response_init.copy()
            sync = fs_network.simulate_sync(exp)
            _, _, outer = fs_network.error_index_series(sync.drive, sync.response, 3, 3)
            xi = fs_conditions.left_eigenvector(fs_network.LORENZ_A)
            trace = fs_monitors.trace_functional(sync.error, "vbar1", self.rate, profile, xi=xi)
            contacts = fs_monitors.contact_point_decrease(trace, sync.error)
        except Exception:
            return traceback.format_exc()
        return sync, outer, contacts

    def check(self, raw) -> Check:
        chk = Check()
        unit = "network_run"
        if isinstance(raw, str):
            chk.fail(unit, raw[-500:])
            return chk
        sync, outer, contacts = raw
        steps = (sync.drive.states.shape[0] - 1) + (sync.error.states.shape[0] - 1)
        chk.require(unit, steps == self.steps_per_rep, f"{steps} integrator steps")
        chk.require(unit, float(outer[-1]) <= LORENZ_MAX_OUTER,
                    f"final outer error {outer[-1]:.3g} > {LORENZ_MAX_OUTER}")
        bad = sum(1 for c in contacts if not c.ok)
        chk.require(unit, bad == 0, f"{bad} of {len(contacts)} vbar1 contact points failing")
        err, gains = sync.error.states, sync.error.gains
        moving = np.nonzero(np.abs(err).max(axis=1) > ZERO_TOL)[0]
        changing = np.nonzero((np.diff(gains, axis=0) != 0.0).any(axis=1))[0]
        chk.observe(unit, "network.lock_idx", "exact",
                    int(moving[-1]) + 1 if moving.size else 0)
        chk.observe(unit, "network.freeze_idx", "exact",
                    int(changing[-1]) + 1 if changing.size else 0)
        chk.observe(unit, "network.contact_points", "exact", len(contacts))
        chk.observe(unit, "network.final_outer", "float", float(outer[-1]))
        chk.observe(unit, "network.final_gains", "float", gains[-1].tolist())
        chk.observe(unit, "network.digest", "info",
                    _digest(sync.drive.states, err, gains))
        return chk


WORKLOADS = {w.name: w for w in (GainSweep, ScalarCertify, LorenzSync)}


def load_golden(workload: str, seed: int):
    """Golden observations for `workload`, or None off the default seed."""
    if seed != DEFAULT_SEED or not GOLDEN_PATH.exists():
        return None
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["workloads"].get(workload)
