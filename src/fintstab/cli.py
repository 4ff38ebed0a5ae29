"""Command-line front end: presets, config-driven runs, sweeps, CSV output.

Subcommands: simulate / check / monitor / sweep.  Each takes a CONFIG that
is a JSON file or the name of a built-in document in `PRESETS` (example1,
example1_adaptive, example2, example2_adaptive); both run through the one
pipeline `run(load_config(doc))`.
Exit codes: 0 success, 1 error, 2 a feasibility guarantee was requested
from an infeasible condition or from an enabled adaptive block, which has
no static certificate.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import warnings
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from .conditions import (ConditionReport, check_network_theorem, check_scalar_theorem,
                         left_eigenvector, settling_bound)
from .config import ConfigError, ExperimentConfig, adaptive_hook, load_config
from .control import static_scalar_control
from .delays import DelayProfile, NoClosedFormError, RateFunction, asymptotics
from .integrate import (DivergenceError, HistoryTrajectory, delayed_linear_rhs,
                        integrate, row_chunks)
from .monitors import _gain_series, contact_point_decrease, detect_phases, trace_functional
from .network import error_index_series, lorenz_preset, simulate_sync

_FMT = "%.17g"


# -- CSV ---------------------------------------------------------------------

def _write_rows(path, header, columns, fmts):
    """Header via csv.writer (it quotes names); then the columns (1-d or 2-d
    arrays, one row per line), `row_chunks` rows per % operation, since
    numbers never need quoting."""
    row_fmt = ",".join(fmts) + "\r\n"
    n = len(columns[0])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for rows in row_chunks(n):
            block = np.column_stack([c[rows] for c in columns])
            fh.write((row_fmt * block.shape[0]) % tuple(block.ravel().tolist()))


def write_trajectory_csv(path, traj: HistoryTrajectory, stride: int = 1):
    """Columns t, x_1..x_d and one column per recorded gain, %.17g."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    header = ["t"] + [f"x_{i + 1}" for i in range(traj.dim)] + list(traj.gain_names)
    columns = [c[::stride] for c in (traj.times, traj.states, traj.gains) if c is not None]
    _write_rows(path, header, columns, [_FMT] * len(header))


def read_trajectory_csv(path) -> HistoryTrajectory:
    """Rebuild a trajectory from a CSV written by write_trajectory_csv.  Row k's
    time must be t0 + k*h, h = t1 - t0 > 0, up to 1e-6*h and float rounding."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), [])
        with warnings.catch_warnings():
            # a header-only file is reported below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(fh, delimiter=",", quotechar='"', ndmin=2)
    if data.shape[0] < 2:
        raise ValueError("trajectory CSV needs at least two rows")
    n_state = sum(1 for name in header if name.startswith("x_"))
    if n_state == 0:
        raise ValueError(f"trajectory CSV has no state columns x_1, x_2, ... "
                         f"(header: {','.join(header)})")
    gain_names = header[1 + n_state:]
    t0 = data[0, 0]
    h = data[1, 0] - data[0, 0]
    k = np.arange(data.shape[0])
    slack = 1e-6 * h + (k + 2) * np.spacing(np.abs(data[:, 0]).max())
    bad = np.flatnonzero(~(np.abs(data[:, 0] - (t0 + k * h)) <= slack) | (h <= 0.0))
    if bad.size:
        raise ValueError(f"trajectory CSV time t = {data[bad[0], 0]!r} of data row "
                         f"{bad[0] + 1} is off the grid t0 + k*h (t0 = {t0!r}, h = {h!r})")
    states = data[:, 1:1 + n_state]
    gains = data[:, 1 + n_state:] if gain_names else None
    return HistoryTrajectory.from_arrays(t0, h, states,
                                         gain_names=gain_names or None,
                                         gains=gains)


# -- the run pipeline and the presets -----------------------------------------

@dataclass
class ScalarRunResult:
    """A trajectory with its certificate (see `certify`)."""
    traj: HistoryTrajectory
    profile: DelayProfile
    rate: RateFunction
    report: Optional[ConditionReport]
    phases: object
    eps2: float
    settle_bound: Optional[float]
    norm: str = "two"

    @property
    def T1(self) -> float:
        return self.phases.T1

    @property
    def T_settle(self) -> float:
        return self.phases.T_settle


@dataclass
class NetworkRunResult:
    sync: object                 # SyncResult
    times: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    outer: np.ndarray
    gains: Optional[np.ndarray]
    gain_names: tuple


def _lorenz(cfg: ExperimentConfig, hook=None):
    """The Lorenz preset under a network config's control and integrator."""
    exp = lorenz_preset(control=cfg.control, adaptive_hook=hook)
    exp.integrator = cfg.integrator
    return exp


def condition_reports(cfg: ExperimentConfig,
                      norms: Sequence[str] = ("two", "one", "inf")) -> List[ConditionReport]:
    """One condition report per norm for a scalar config's static gains, or
    `check_network_theorem` of the config's network under its control.
    Raises NoClosedFormError when 1 + eta overflows a float."""
    eps1 = cfg.monitor["eps1"]
    beta, eta = asymptotics(cfg.rate, cfg.delay)
    if cfg.kind == "scalar":
        m = len(cfg.system["initial_state"])
        return [check_scalar_theorem(cfg.gains, m, beta, eta, norm=n, eps1=eps1)
                for n in norms]
    return [check_network_theorem(_lorenz(cfg).model, cfg.control, beta, eta, eps1=eps1)]


def _static_report(cfg: ExperimentConfig) -> Optional[ConditionReport]:
    """The report of the config's static block in its configured norm (a
    scalar config) or of its network; None when an adaptive block is enabled,
    which has no static certificate, or when 1 + eta has no closed form."""
    if cfg.adaptive["enabled"]:
        return None
    try:
        return condition_reports(cfg, (cfg.adaptive.get("norm", "two"),))[0]
    except NoClosedFormError:
        return None


def _monitor_start(cfg: ExperimentConfig) -> float:
    """monitor.start_time, or the rate's default monitor start."""
    start = cfg.monitor["start_time"]
    return cfg.rate.default_monitor_start if start is None else start


def certify(cfg: ExperimentConfig, traj: HistoryTrajectory) -> ScalarRunResult:
    """The two-phase certificate of a trajectory of `cfg`: condition report,
    eps2, phases (T1, T_settle, envelope violations) and settling bound.

    eps2 has one rule.  Static gains: kappa * eps2_max of the configured
    norm's report (kappa when there is no report or no margin).  Adaptive
    gains: kappa * (final c3 - |c2|), or kappa * 0.01 when that is <= 0.
    Network: kappa, on the two-norm of the error.  The settling bound needs
    a feasible report and a finite T1.
    """
    kappa = cfg.monitor["kappa"]
    norm, eps2 = cfg.adaptive.get("norm", "two"), kappa
    report = _static_report(cfg) if cfg.kind == "scalar" else None
    if cfg.kind == "scalar" and cfg.adaptive["enabled"]:
        margin = float(_gain_series(traj, "c3")[-1]) - abs(cfg.system["c2"])
        eps2 = kappa * margin if margin > 0.0 else kappa * 0.01
    elif report is not None and report.epsilon2_max > 0.0:
        eps2 = kappa * report.epsilon2_max
    phases = detect_phases(traj, cfg.delay, norm, eps2, zero_tol=cfg.integrator.zero_tol,
                           start_time=_monitor_start(cfg))
    bound = None
    if report is not None and report.feasible and math.isfinite(phases.T1):
        bound = settling_bound(report, phases.T1, kappa)
    return ScalarRunResult(traj=traj, profile=cfg.delay, rate=cfg.rate, report=report,
                           phases=phases, eps2=eps2, settle_bound=bound, norm=norm)


def run(cfg: ExperimentConfig):
    """Run an experiment config: a ScalarRunResult for a scalar config, a
    NetworkRunResult for a network one.  The presets are configs run here.

    Scalar: integrate with static gains, whose zero band defaults to c3*h, or
    with the adaptive hook, crossing the settled tail in array passes
    (`at_rest`), then `certify`.  Network: the Lorenz preset with the
    config's control, rate and integrator; an enabled adaptive block drives
    the gains of the control kind, (theta1, theta3) under pinning, whose
    pinned node still takes theta1 * sigma, and (theta4, theta3) under full.
    """
    hook = adaptive_hook(cfg)
    if cfg.kind == "network":
        exp = _lorenz(cfg, hook)
        sync = simulate_sync(exp)
        e1, e2, outer = error_index_series(sync.drive, sync.response,
                                           exp.model.N, exp.model.n)
        return NetworkRunResult(sync=sync, times=sync.error.times, e1=e1, e2=e2,
                                outer=outer, gains=sync.error.gains,
                                gain_names=sync.error.gain_names)

    sysb, icfg, g = cfg.system, cfg.integrator, cfg.gains
    control = hook.control if hook is not None else lambda t, p: static_scalar_control(p, g)
    if hook is None and icfg.zero_band is None:
        icfg = replace(icfg, zero_band=g.c3 * icfg.h)
    rhs = delayed_linear_rhs(sysb["c1"], sysb["c2"], cfg.delay, control=control)
    # the sign law, static or adaptive, returns +-0.0 at +0.0: a settled run
    # crosses its zero-state tail in array passes
    traj = integrate(rhs, np.asarray(sysb["initial_state"], dtype=float), cfg.delay, icfg,
                     gain_hook=hook, at_rest=rhs.at_rest)
    del hook, control, rhs   # the hook's window holds 8 bytes a step: free it for the replay
    return certify(cfg, traj)


# Example 1: p' = p + 2 p(t/2) - sgn(p)(c3 + c4 |p|), mu(t) = t**0.1
EXAMPLE1 = {"schema_version": 1, "kind": "scalar",
            "system": {"c1": 1.0, "c2": 2.0, "initial_state": [2.0]},
            "gains": {"c3": 2.1, "c4": 3.5},
            "delay": {"kind": "proportional", "q": 0.5},
            "rate": {"kind": "power", "exponent": 0.1},
            "integrator": {"horizon": 30.0, "h": 1e-3}}
# Example 2: three delay-coupled Lorenz nodes, drive and response
EXAMPLE2 = {"schema_version": 1, "kind": "network", "system": {"preset": "lorenz3"},
            "rate": {"kind": "power", "exponent": 0.1},
            "integrator": {"horizon": 20.0, "h": 5e-4}}
# The built-in documents a CONFIG argument may name instead of a file
PRESETS = {
    "example1": EXAMPLE1,
    "example1_adaptive": dict(EXAMPLE1,
                              adaptive={"enabled": True, "d1": 0.1, "d2": 0.1, "d3": 0.1},
                              integrator={"horizon": 40.0, "h": 1e-3}),
    "example2": EXAMPLE2,
    # the schema's adaptive rates (d1 = d2 = 0.05, d3 = 0.02) are run_example2's
    "example2_adaptive": dict(EXAMPLE2, control={"kind": "full",
                                                 "adaptive": {"enabled": True}}),
}


def _document(config: str) -> dict:
    """A fresh copy of the preset named `config`, else the JSON file at that path."""
    if config in PRESETS:
        return json.loads(json.dumps(PRESETS[config]))
    with open(config, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON ({exc})") from exc


def _preset(name: str, **blocks) -> ExperimentConfig:
    """The named preset with the given top-level blocks replaced, loaded."""
    return load_config(dict(_document(name), **blocks))


def run_example1(c3: float = 2.1, c4: float = 3.5, p0: float = 2.0,
                 horizon: float = 30.0, h: float = 1e-3, kappa: float = 0.9,
                 eps1: Optional[float] = None, norm: str = "two",
                 divergence_limit: float = 1e12) -> ScalarRunResult:
    """Static-gain run of p' = p + 2 p(0.5t) - c3 sgn(p) - c4 p."""
    monitor = {"kappa": kappa} if eps1 is None else {"kappa": kappa, "eps1": eps1}
    cfg = _preset("example1", system=dict(EXAMPLE1["system"], initial_state=[p0]),
                  gains={"c3": float(c3), "c4": float(c4)}, adaptive={"norm": norm},
                  integrator={"horizon": horizon, "h": h}, monitor=monitor)
    cfg.integrator = replace(cfg.integrator, divergence_limit=divergence_limit)
    return run(cfg)


def run_example1_adaptive(d1: float = 0.1, d2: float = 0.1, d3: float = 0.1,
                          p0: float = 2.0, horizon: float = 40.0,
                          h: float = 1e-3, kappa: float = 0.9,
                          norm: str = "two") -> ScalarRunResult:
    """Adaptive run with c3' and c4' driven by the windowed sup switch."""
    return run(_preset("example1_adaptive",
                       system=dict(EXAMPLE1["system"], initial_state=[p0]),
                       adaptive={"enabled": True, "d1": d1, "d2": d2, "d3": d3,
                                 "norm": norm},
                       integrator={"horizon": horizon, "h": h}, monitor={"kappa": kappa}))


def run_example1_sweep(param: str, values: Sequence[float], c3: float = 2.1,
                       c4: float = 3.5, horizon: float = 30.0,
                       h: float = 1e-3) -> List[tuple]:
    """(value, T_settle) per sweep point, in the given parameter order."""
    if param not in ("c3", "c4"):
        raise ValueError(f"sweep parameter must be c3 or c4, got {param!r}")
    doc = dict(EXAMPLE1, gains={"c3": float(c3), "c4": float(c4)},
               integrator={"horizon": horizon, "h": h})
    return list(sweep(doc, f"gains.{param}", values))


def run_example2(variant: str = "nocontrol", horizon: float = 20.0,
                 h: float = 5e-4, d_theta3: float = 0.02,
                 d_theta4: float = 0.05) -> NetworkRunResult:
    """Three coupled Lorenz nodes: uncontrolled baseline or adaptive feedback."""
    control = {"kind": "none"}
    if variant == "adaptive":
        control = {"kind": "full",
                   "adaptive": {"enabled": True, "d1": d_theta4, "d3": d_theta3}}
    elif variant != "nocontrol":
        raise ValueError(f"unknown variant {variant!r}")
    return run(_preset("example2", control=control, integrator={"horizon": horizon, "h": h}))


def write_error_index_csv(path, result: NetworkRunResult, stride: int = 1):
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    header = ["t", "E1", "E2", "E_outer"] + list(result.gain_names)
    columns = [c[::stride] for c in (result.times, result.e1, result.e2, result.outer,
                                     result.gains) if c is not None]
    _write_rows(path, header, columns, [_FMT] * len(header))


def format_report_table(reports: Sequence[ConditionReport]) -> str:
    lines = [f"{'condition':<24} {'feasible':<9} {'lhs':>12} {'eps1*':>10} "
             f"{'eps2_max':>12} {'c4 threshold':>14}"]
    for r in reports:
        thr = f"{r.c4_threshold:.6g}" if r.c4_threshold is not None else "-"
        e1 = f"{r.eps1_optimal:.6g}" if math.isfinite(r.eps1_optimal) else "-"
        lines.append(f"{r.theorem_id:<24} {str(r.feasible):<9} "
                     f"{r.lhs:>12.6g} {e1:>10} {r.epsilon2_max:>12.6g} {thr:>14}")
        req = r.details.get("theta3_required")
        if req is not None:
            lines.append(f"{'':<24} sign condition: theta3 > {req:.6g} required")
    return "\n".join(lines)


# -- argparse wiring ----------------------------------------------------------

def _summary_lines(res: ScalarRunResult) -> List[str]:
    lines = [f"T1 = {res.T1:.6g}",
             f"T_settle = {res.T_settle:.6g}",
             f"envelope_violations = {res.phases.envelope_violations}",
             f"eps2 = {res.eps2:.6g}"]
    if res.settle_bound is not None:
        lines.append(f"settling_bound = {res.settle_bound:.6g}")
    return lines + _final_gains(res.traj.gain_names, res.traj.gains)


def _final_gains(names, gains) -> List[str]:
    if gains is None:
        return []
    return ["final gains: " + ", ".join(f"{n} = {v:.6g}" for n, v in zip(names, gains[-1]))]


def _cmd_simulate(args) -> int:
    cfg = load_config(_document(args.config))
    out, stride = cfg.output["csv"], cfg.output["stride"]
    if cfg.monitor["require_feasible"]:
        report = _static_report(cfg)
        if report is None or not report.feasible:
            print("requested feasibility guarantee, but the condition is infeasible")
            return 2
    res = run(cfg)
    if cfg.kind == "scalar":
        write_trajectory_csv(out, res.traj, stride=stride)
        lines = _summary_lines(res)
    else:
        write_error_index_csv(out, res, stride=stride)
        lines = [f"final outer error = {res.outer[-1]:.6g}"]
        lines += _final_gains(res.gain_names, res.gains)
    print("\n".join(lines + [f"wrote {out}"]))
    return 0


def _cmd_check(args) -> int:
    cfg = load_config(_document(args.config))
    reports = condition_reports(cfg)
    print(format_report_table(reports))
    if cfg.adaptive["enabled"]:
        print(f"note: adaptive gains drive this run; the table checks the static "
              f"{'gains' if cfg.kind == 'scalar' else 'control'} block, which it does not use")
    # any one norm's theorem proves FnTSta; an adaptive run has no static certificate
    require = cfg.monitor["require_feasible"] or args.require_feasible
    if require and (cfg.adaptive["enabled"] or not any(r.feasible for r in reports)):
        return 2
    return 0


def _cmd_monitor(args) -> int:
    cfg = load_config(_document(args.config))
    traj = read_trajectory_csv(args.trajectory)
    # the reader round-trips any float; a certificate needs finite ones
    blocks = [traj.states] if traj.gains is None else [traj.states, traj.gains]
    bad = np.argwhere(~np.hstack([np.isfinite(b) for b in blocks]))
    if bad.size:
        r, c = bad[0]
        name = ([f"x_{i + 1}" for i in range(traj.dim)] + list(traj.gain_names))[c]
        value = float(np.hstack([b[r] for b in blocks])[c])
        raise ValueError(f"trajectory CSV data row {r + 1} holds {name} = {value!r}, "
                         f"not a finite number")
    # a trajectory of another config: cheap tells, its gain columns and its start
    hook = adaptive_hook(cfg)
    names = hook.names if hook is not None else ()
    if traj.gain_names != names:
        raise ValueError(f"trajectory CSV gain columns ({', '.join(traj.gain_names) or 'none'})"
                         f" are not the ones this config records ({', '.join(names) or 'none'})")
    x0 = np.asarray(cfg.system.get("initial_state", []), dtype=float)
    if cfg.kind == "scalar" and traj.states[0].tobytes() != x0.tobytes():
        raise ValueError(f"trajectory CSV row 0 {traj.states[0].tolist()} is not "
                         f"system.initial_state {x0.tolist()}")
    h = cfg.integrator.h
    if not math.isclose(traj.h, h, rel_tol=1e-9):
        raise ValueError(f"trajectory grid step {traj.h!r} is not integrator.h = {h!r} "
                         f"(was it written with output.stride > 1?)")
    cert = certify(cfg, traj)
    functional, xi = (("v1", None) if cfg.kind == "scalar"
                      else ("vbar1", left_eigenvector(_lorenz(cfg).model.A)))
    trace = trace_functional(cert.traj, functional, cfg.rate, cert.profile, xi=xi,
                             start_time=_monitor_start(cfg))
    contacts = contact_point_decrease(trace, cert.traj)
    bad = [c for c in contacts if not c.ok]
    _write_rows(args.out, ["t", "V", "W", "contact"],
                [trace.times, trace.values, trace.window_sups, trace.contact_mask],
                [_FMT, _FMT, _FMT, "%d"])
    phases = cert.phases
    # the settling bound as simulate prints it: only from a feasible report
    bound = "" if cert.settle_bound is None else f"settling_bound={cert.settle_bound:.6g}, "
    print(f"T1={phases.T1:.6g}, T_settle={phases.T_settle:.6g}, {bound}"
          f"violations={phases.envelope_violations}")
    print(f"contact points checked = {len(contacts)}, failing = {len(bad)}")
    return 0 if not bad else 1


def _set_by_path(doc: dict, dotted: str, value):
    parts = dotted.split(".")
    node = doc
    for p in parts[:-1]:
        if p not in node or not isinstance(node[p], dict):
            raise ConfigError(f"{dotted}: no such config block {p!r}")
        node = node[p]
    if parts[-1] not in node:
        raise ConfigError(f"{dotted}: no such config field")
    node[parts[-1]] = value


def sweep(doc: dict, param: str, values: Sequence[float]):
    """Yield (value, T_settle) as each run of the scalar config document `doc`,
    with its dotted field `param` set to one of `values`, ends.  A static gain
    of an adaptive config is a ConfigError: the adaptive run never reads it."""
    for v in values:
        point = json.loads(json.dumps(doc))
        _set_by_path(point, param, float(v))
        cfg = load_config(point)
        if cfg.kind != "scalar":
            raise ConfigError("sweep supports scalar configs only")
        if cfg.adaptive["enabled"] and param in ("gains.c3", "gains.c4"):
            raise ConfigError(f"{param}: an adaptive run never reads its static gains")
        yield float(v), run(cfg).T_settle


def _cmd_sweep(args) -> int:
    rows = []
    values = [float(v) for v in args.values.split(",")]
    for v, t_settle in sweep(_document(args.config), args.param, values):
        rows.append((v, t_settle))
        print(f"{args.param} = {v:g}: T_settle = {t_settle:.6g}")
    if args.out:
        _write_rows(args.out, [args.param, "T_settle"],
                    [np.array(rows)], [_FMT, _FMT])
        print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fintstab",
        description="Finite-time stabilization of delayed systems: "
                    "simulation, condition checks, and monitors.")
    sub = parser.add_subparsers(dest="command", required=True)
    config_help = f"a config JSON file, or a preset: {', '.join(PRESETS)}"

    p = sub.add_parser("simulate", help="run a config-defined experiment")
    p.add_argument("config", help=config_help)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("check", help="print the condition report table")
    p.add_argument("config", help=config_help)
    p.add_argument("--require-feasible", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("monitor", help="re-check a saved trajectory")
    p.add_argument("config", help=config_help)
    p.add_argument("trajectory")
    p.add_argument("--out", default="monitor.csv")
    p.set_defaults(func=_cmd_monitor)

    p = sub.add_parser("sweep", help="one-parameter sweep over a scalar config")
    p.add_argument("config", help=config_help)
    p.add_argument("--param", required=True)
    p.add_argument("--values", required=True)
    p.add_argument("--out", default="")
    p.set_defaults(func=_cmd_sweep)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reads: built on its first call, not at import, which
    every process would pay, and kept for the process's later calls."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"integration diverged: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
