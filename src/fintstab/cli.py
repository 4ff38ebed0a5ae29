"""Command-line front end: presets, config-driven runs, sweeps, CSV output.

Subcommands: simulate / check / monitor / example1 / example2 / sweep.
Exit codes: 0 success, 1 error, 2 a feasibility guarantee was requested from
an infeasible condition.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from .conditions import (ConditionReport, NetworkConditionParams,
                         check_scalar_theorem, left_eigenvector,
                         check_network_theorem, settling_bound)
from .config import ConfigError, ExperimentConfig, load_config_file
from .control import ScalarAdaptiveHook, StaticScalarGains, static_scalar_control
from .control import NetworkAdaptiveHook, NetworkControlSpec
from .delays import DelayProfile, NoClosedFormError, RateFunction, asymptotics
from .integrate import (DivergenceError, HistoryTrajectory, IntegratorConfig,
                        delayed_linear_rhs, integrate)
from .monitors import contact_point_decrease, detect_phases, trace_functional
from .network import (LORENZ_A, error_index_series, lorenz_preset,
                      simulate_sync)

_FMT = "%.17g"
_CHUNK = 4096  # CSV rows formatted per % operation


# -- CSV ---------------------------------------------------------------------

def _write_rows(path, header, columns, fmts):
    """Header via csv.writer (it quotes names); then the columns (1-d or 2-d
    arrays, one row per line), _CHUNK rows per % operation, since numbers
    never need quoting."""
    row_fmt = ",".join(fmts) + "\r\n"
    n = len(columns[0])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, n, _CHUNK):
            block = np.column_stack([c[lo:lo + _CHUNK] for c in columns])
            fh.write((row_fmt * block.shape[0]) % tuple(block.ravel().tolist()))


def write_trajectory_csv(path, traj: HistoryTrajectory, stride: int = 1):
    """Columns t, x_1..x_d and one column per recorded gain, %.17g."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    header = ["t"] + [f"x_{i + 1}" for i in range(traj.dim)] + list(traj.gain_names)
    columns = [c[::stride] for c in (traj.times, traj.states, traj.gains) if c is not None]
    _write_rows(path, header, columns, [_FMT] * len(header))


def read_trajectory_csv(path) -> HistoryTrajectory:
    """Rebuild a trajectory from a CSV written by write_trajectory_csv."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), [])
        with warnings.catch_warnings():
            # a header-only file is reported below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(fh, delimiter=",", quotechar='"', ndmin=2)
    if data.shape[0] < 2:
        raise ValueError("trajectory CSV needs at least two rows")
    n_state = sum(1 for name in header if name.startswith("x_"))
    gain_names = header[1 + n_state:]
    t0 = data[0, 0]
    h = data[1, 0] - data[0, 0]
    states = data[:, 1:1 + n_state]
    gains = data[:, 1 + n_state:] if gain_names else None
    return HistoryTrajectory.from_arrays(t0, h, states,
                                         gain_names=gain_names or None,
                                         gains=gains)


# -- scalar preset (a single delayed scalar equation) -------------------------

SCALAR_PRESET_C1 = 1.0
SCALAR_PRESET_C2 = 2.0
SCALAR_PRESET_P0 = 2.0
SCALAR_PRESET_Q = 0.5
SCALAR_PRESET_RHO = 0.1


def _scalar_preset_profile() -> DelayProfile:
    return DelayProfile.proportional(SCALAR_PRESET_Q)


def _scalar_preset_rate() -> RateFunction:
    return RateFunction.power(SCALAR_PRESET_RHO)


@dataclass
class ScalarRunResult:
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


def run_example1(c3: float = 2.1, c4: float = 3.5, p0: float = SCALAR_PRESET_P0,
                 horizon: float = 30.0, h: float = 1e-3, kappa: float = 0.9,
                 eps1: Optional[float] = None, norm: str = "two",
                 divergence_limit: float = 1e12) -> ScalarRunResult:
    """Static-gain run of p' = p + 2 p(0.5t) - c3 sgn(p) - c4 p."""
    profile = _scalar_preset_profile()
    rate = _scalar_preset_rate()
    gains = StaticScalarGains(SCALAR_PRESET_C1, SCALAR_PRESET_C2, c3, c4)
    beta, eta = asymptotics(rate, profile)
    report = check_scalar_theorem(gains, 1, beta, eta, norm=norm, eps1=eps1)

    rhs = delayed_linear_rhs(SCALAR_PRESET_C1, SCALAR_PRESET_C2, profile,
                             control=lambda t, p: static_scalar_control(p, gains))
    cfg = IntegratorConfig(horizon=horizon, h=h, zero_band=c3 * h,
                           divergence_limit=divergence_limit)
    traj = integrate(rhs, [p0], profile, cfg)

    eps2 = kappa * report.epsilon2_max if report.epsilon2_max > 0.0 else kappa
    phases = detect_phases(traj, profile, norm, eps2,
                           start_time=rate.default_monitor_start)
    bound = None
    if report.feasible and math.isfinite(phases.T1):
        bound = settling_bound(report, phases.T1, kappa)
    return ScalarRunResult(traj=traj, profile=profile, rate=rate, report=report,
                           phases=phases, eps2=eps2, settle_bound=bound, norm=norm)


def run_example1_adaptive(d1: float = 0.1, d2: float = 0.1, d3: float = 0.1,
                          p0: float = SCALAR_PRESET_P0, horizon: float = 40.0,
                          h: float = 1e-3, kappa: float = 0.9,
                          norm: str = "two") -> ScalarRunResult:
    """Adaptive run with c3' and c4' driven by the windowed sup switch."""
    profile = _scalar_preset_profile()
    rate = _scalar_preset_rate()
    hook = ScalarAdaptiveHook(d1, d2, d3, rate, profile, norm=norm)
    rhs = delayed_linear_rhs(SCALAR_PRESET_C1, SCALAR_PRESET_C2, profile,
                             control=hook.control)
    cfg = IntegratorConfig(horizon=horizon, h=h)
    traj = integrate(rhs, [p0], profile, cfg, gain_hook=hook)

    c3_final = float(traj.gains[-1, 0])
    margin = c3_final - abs(SCALAR_PRESET_C2)
    eps2 = kappa * margin if margin > 0.0 else kappa * 0.01
    phases = detect_phases(traj, profile, norm, eps2,
                           start_time=rate.default_monitor_start)
    return ScalarRunResult(traj=traj, profile=profile, rate=rate, report=None,
                           phases=phases, eps2=eps2, settle_bound=None, norm=norm)


def run_example1_sweep(param: str, values: Sequence[float], c3: float = 2.1,
                       c4: float = 3.5, horizon: float = 30.0,
                       h: float = 1e-3) -> List[tuple]:
    """(value, T_settle) per sweep point, in the given parameter order."""
    if param not in ("c3", "c4"):
        raise ValueError(f"sweep parameter must be c3 or c4, got {param!r}")
    out = []
    for v in values:
        kw = {"c3": v, "c4": c4} if param == "c3" else {"c3": c3, "c4": v}
        res = run_example1(horizon=horizon, h=h, **kw)
        out.append((float(v), res.T_settle))
    return out


# -- network preset -----------------------------------------------------------

@dataclass
class NetworkRunResult:
    sync: object                 # SyncResult
    times: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    outer: np.ndarray
    gains: Optional[np.ndarray]
    gain_names: tuple


def run_example2(variant: str = "nocontrol", horizon: float = 20.0,
                 h: float = 5e-4, d_theta3: float = 0.02,
                 d_theta4: float = 0.05) -> NetworkRunResult:
    """Three coupled Lorenz nodes: uncontrolled baseline or adaptive feedback."""
    hook = None
    if variant == "adaptive":
        hook = NetworkAdaptiveHook(d1=d_theta4, d2=d_theta4, d3=d_theta3,
                                   rate=_scalar_preset_rate(),
                                   profile=DelayProfile.pairwise_sin(3),
                                   variant="theta3_theta4")
    elif variant != "nocontrol":
        raise ValueError(f"unknown variant {variant!r}")
    return _network_result(lorenz_preset(horizon=horizon, h=h, adaptive_hook=hook))


def _network_result(exp) -> NetworkRunResult:
    sync = simulate_sync(exp)
    e1, e2, outer = error_index_series(sync.drive, sync.response, 3, 3)
    return NetworkRunResult(sync=sync, times=sync.error.times, e1=e1, e2=e2,
                            outer=outer, gains=sync.error.gains,
                            gain_names=sync.error.gain_names)


def write_error_index_csv(path, result: NetworkRunResult, stride: int = 1):
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    header = ["t", "E1", "E2", "E_outer"] + list(result.gain_names)
    columns = [c[::stride] for c in (result.times, result.e1, result.e2, result.outer,
                                     result.gains) if c is not None]
    _write_rows(path, header, columns, [_FMT] * len(header))


# -- config-driven runs -------------------------------------------------------

def _scalar_run_from_config(cfg: ExperimentConfig) -> ScalarRunResult:
    sysb = cfg.system
    c1, c2 = float(sysb["c1"]), float(sysb["c2"])
    p0 = np.asarray(sysb["initial_state"], dtype=float)
    monitor = cfg.monitor
    kappa = float(monitor.get("kappa", 0.9))
    eps1 = monitor.get("eps1")
    norm = cfg.adaptive.get("norm", "two")

    report = None
    try:
        beta, eta = asymptotics(cfg.rate, cfg.delay)
    except NoClosedFormError:
        beta = eta = None

    if cfg.adaptive.get("enabled"):
        hook = ScalarAdaptiveHook(float(cfg.adaptive["d1"]), float(cfg.adaptive["d2"]),
                                  float(cfg.adaptive["d3"]), cfg.rate, cfg.delay,
                                  norm=norm, zero_tol=cfg.integrator.zero_tol)
        rhs = delayed_linear_rhs(c1, c2, cfg.delay, control=hook.control)
        traj = integrate(rhs, p0, cfg.delay, cfg.integrator, gain_hook=hook)
        margin = float(traj.gains[-1, 0]) - abs(c2)
        eps2 = kappa * margin if margin > 0.0 else kappa * 0.01
    else:
        g = StaticScalarGains(c1, c2, float(cfg.gains.get("c3", 0.0)),
                              float(cfg.gains.get("c4", 0.0)))
        if beta is not None:
            report = check_scalar_theorem(g, p0.size, beta, eta, norm=norm, eps1=eps1)
        rhs = delayed_linear_rhs(c1, c2, cfg.delay,
                                 control=lambda t, p: static_scalar_control(p, g))
        icfg = cfg.integrator
        if icfg.zero_band is None:
            icfg = replace(icfg, zero_band=g.c3 * icfg.h)
        traj = integrate(rhs, p0, cfg.delay, icfg)
        eps2 = (kappa * report.epsilon2_max
                if report is not None and report.epsilon2_max > 0.0 else kappa)

    start = monitor.get("start_time")
    phases = detect_phases(traj, cfg.delay, norm, eps2,
                           zero_tol=cfg.integrator.zero_tol,
                           start_time=cfg.rate.default_monitor_start
                           if start is None else float(start))
    bound = None
    if report is not None and report.feasible and math.isfinite(phases.T1):
        bound = settling_bound(report, phases.T1, kappa)
    return ScalarRunResult(traj=traj, profile=cfg.delay, rate=cfg.rate,
                           report=report, phases=phases, eps2=eps2,
                           settle_bound=bound, norm=norm)


def _network_run_from_config(cfg: ExperimentConfig) -> NetworkRunResult:
    """The Lorenz preset with the config's control, rate and integrator.

    An enabled adaptive block drives the gains (d2 defaults to d1); sigma
    still scales the pinned node in the theta1_theta3 variant.
    """
    control = cfg.control
    adaptive = control.get("adaptive") or {}
    hook = None
    if adaptive.get("enabled"):
        d1 = float(adaptive.get("d1", 0.05))
        hook = NetworkAdaptiveHook(d1=d1, d2=float(adaptive.get("d2", d1)),
                                   d3=float(adaptive.get("d3", 0.02)),
                                   rate=cfg.rate, profile=DelayProfile.pairwise_sin(3),
                                   variant=adaptive.get("variant", "theta3_theta4"),
                                   zero_tol=cfg.integrator.zero_tol)
    spec = NetworkControlSpec(kind=control.get("kind", "none"),
                              theta3=float(control.get("theta3", 0.0)),
                              theta4=float(control.get("theta4", 0.0)),
                              sigma=float(control.get("sigma", 1.0)))
    exp = lorenz_preset(control=spec, adaptive_hook=hook)
    exp.integrator = cfg.integrator
    return _network_result(exp)


def _reports_for_config(cfg: ExperimentConfig) -> List[ConditionReport]:
    if cfg.kind == "scalar":
        sysb = cfg.system
        g = StaticScalarGains(float(sysb["c1"]), float(sysb["c2"]),
                              float(cfg.gains.get("c3", 0.0)),
                              float(cfg.gains.get("c4", 0.0)))
        m = len(sysb["initial_state"])
        beta, eta = asymptotics(cfg.rate, cfg.delay)
        eps1 = cfg.monitor.get("eps1")
        return [check_scalar_theorem(g, m, beta, eta, norm=n, eps1=eps1)
                for n in ("two", "one", "inf")]
    # network: the preset's full-node condition with the configured gains
    exp = lorenz_preset()
    model = exp.model
    xi = left_eigenvector(model.A)
    beta, eta = asymptotics(cfg.rate, DelayProfile.proportional(0.5))
    control = cfg.control
    params = NetworkConditionParams(
        L_f=model.L_f, L_g=model.L_g, theta1=model.theta1, theta2=model.theta2,
        theta3=float(control.get("theta3", 0.0)), N=model.N, n=model.n,
        B=model.B, xi=xi, beta=beta, eta=eta,
        theta4=float(control.get("theta4", 0.0)),
        sigma=float(control.get("sigma", 1.0)), A=model.A)
    variant = "pinning" if control.get("kind") == "pinning" else "full"
    return [check_network_theorem(params, variant=variant,
                                  eps1=cfg.monitor.get("eps1"))]


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
    if res.traj.gains is not None:
        finals = ", ".join(f"{n} = {v:.6g}" for n, v in
                           zip(res.traj.gain_names, res.traj.gains[-1]))
        lines.append(f"final gains: {finals}")
    return lines


def _cmd_simulate(args) -> int:
    cfg = load_config_file(args.config)
    require = bool(cfg.monitor.get("require_feasible"))
    out = cfg.output.get("csv", "trajectory.csv")
    stride = cfg.output.get("stride", 1)
    if cfg.kind == "scalar":
        res = _scalar_run_from_config(cfg)
        if require and (res.report is None or not res.report.feasible):
            print("requested feasibility guarantee, but the condition is infeasible")
            return 2
        write_trajectory_csv(out, res.traj, stride=stride)
        for line in _summary_lines(res):
            print(line)
    else:
        res = _network_run_from_config(cfg)
        write_error_index_csv(out, res, stride=stride)
        print(f"final outer error = {res.outer[-1]:.6g}")
        if res.gains is not None:
            finals = ", ".join(f"{n} = {v:.6g}" for n, v in
                               zip(res.gain_names, res.gains[-1]))
            print(f"final gains: {finals}")
    print(f"wrote {out}")
    return 0


def _cmd_check(args) -> int:
    cfg = load_config_file(args.config)
    reports = _reports_for_config(cfg)
    print(format_report_table(reports))
    require = bool(cfg.monitor.get("require_feasible")) or args.require_feasible
    if require and not any(r.feasible for r in reports):
        return 2
    return 0


def _cmd_monitor(args) -> int:
    cfg = load_config_file(args.config)
    traj = read_trajectory_csv(args.trajectory)
    if cfg.kind == "scalar":
        profile = cfg.delay
        norm = cfg.adaptive.get("norm", "two")
        functional = "v1"
        xi = None
    else:
        profile = DelayProfile.pairwise_sin(3)
        norm = "two"
        functional = "vbar1"
        xi = left_eigenvector(LORENZ_A)
    kappa = float(cfg.monitor.get("kappa", 0.9))
    eps2 = kappa  # conservative default when no condition report is available
    if cfg.kind == "scalar":
        try:
            reports = _reports_for_config(cfg)
            if reports[0].feasible and reports[0].epsilon2_max > 0.0:
                eps2 = kappa * reports[0].epsilon2_max
        except (NoClosedFormError, ValueError):
            pass
    phases = detect_phases(traj, profile, norm, eps2, zero_tol=cfg.integrator.zero_tol,
                           start_time=cfg.rate.default_monitor_start)
    trace = trace_functional(traj, functional, cfg.rate, profile, xi=xi)
    contacts = contact_point_decrease(trace, traj)
    bad = [c for c in contacts if not c.ok]
    _write_rows(args.out, ["t", "V", "W", "contact"],
                [trace.times, trace.values, trace.window_sups, trace.contact_mask],
                [_FMT, _FMT, _FMT, "%d"])
    t2 = phases.T1 + 1.0 / eps2 if math.isfinite(phases.T1) else math.inf
    print(f"T1={phases.T1:.6g}, T_settle={phases.T_settle:.6g}, "
          f"T2_bound={t2:.6g}, violations={phases.envelope_violations}")
    print(f"contact points checked = {len(contacts)}, failing = {len(bad)}")
    return 0 if not bad else 1


def _cmd_example1(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.variant == "static":
        res = run_example1(c3=args.c3, c4=args.c4, horizon=args.horizon, h=args.h)
        write_trajectory_csv(out_dir / "example1_static.csv", res.traj)
        if res.report is not None:
            print(format_report_table([res.report]))
        for line in _summary_lines(res):
            print(line)
    elif args.variant == "adaptive":
        res = run_example1_adaptive(horizon=args.horizon, h=args.h)
        write_trajectory_csv(out_dir / "example1_adaptive.csv", res.traj)
        for line in _summary_lines(res):
            print(line)
    else:
        param = "c3" if args.variant == "sweep-c3" else "c4"
        values = [float(v) for v in args.values.split(",")]
        points = run_example1_sweep(param, values, c3=args.c3, c4=args.c4,
                                    horizon=args.horizon, h=args.h)
        _write_rows(out_dir / f"example1_sweep_{param}.csv", [param, "T_settle"],
                    [np.array(points)], [_FMT, _FMT])
        for v, ts in points:
            print(f"{param} = {v:g}: T_settle = {ts:.6g}")
    return 0


def _cmd_example2(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    variant = "adaptive" if args.variant == "adaptive" else "nocontrol"
    res = run_example2(variant=variant, horizon=args.horizon, h=args.h)
    write_error_index_csv(out_dir / f"example2_{variant}.csv", res,
                          stride=args.stride)
    print(f"min outer error = {res.outer.min():.6g}")
    print(f"final outer error = {res.outer[-1]:.6g}")
    if res.gains is not None:
        finals = ", ".join(f"{n} = {v:.6g}" for n, v in
                           zip(res.gain_names, res.gains[-1]))
        print(f"final gains: {finals}")
    return 0


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


def _cmd_sweep(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        base = json.load(fh)
    values = [float(v) for v in args.values.split(",")]
    rows = []
    for v in values:
        doc = json.loads(json.dumps(base))
        _set_by_path(doc, args.param, v)
        from .config import load_config
        cfg = load_config(doc)
        if cfg.kind != "scalar":
            raise ConfigError("sweep supports scalar configs only")
        res = _scalar_run_from_config(cfg)
        rows.append((v, res.T_settle))
        print(f"{args.param} = {v:g}: T_settle = {res.T_settle:.6g}")
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

    p = sub.add_parser("simulate", help="run a config-defined experiment")
    p.add_argument("config")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("check", help="print the condition report table")
    p.add_argument("config")
    p.add_argument("--require-feasible", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("monitor", help="re-check a saved trajectory")
    p.add_argument("config")
    p.add_argument("trajectory")
    p.add_argument("--out", default="monitor.csv")
    p.set_defaults(func=_cmd_monitor)

    p = sub.add_parser("example1", help="scalar delayed-system preset")
    p.add_argument("--variant", default="static",
                   choices=["static", "adaptive", "sweep-c3", "sweep-c4"])
    p.add_argument("--c3", type=float, default=2.1)
    p.add_argument("--c4", type=float, default=3.5)
    p.add_argument("--values", default="")
    p.add_argument("--horizon", type=float, default=30.0)
    p.add_argument("--h", type=float, default=1e-3)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=_cmd_example1)

    p = sub.add_parser("example2", help="three-node Lorenz network preset")
    p.add_argument("--variant", default="nocontrol",
                   choices=["nocontrol", "adaptive"])
    p.add_argument("--horizon", type=float, default=20.0)
    p.add_argument("--h", type=float, default=5e-4)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=_cmd_example2)

    p = sub.add_parser("sweep", help="one-parameter sweep over a scalar config")
    p.add_argument("config")
    p.add_argument("--param", required=True)
    p.add_argument("--values", required=True)
    p.add_argument("--out", default="")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"integration diverged: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
