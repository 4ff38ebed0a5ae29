"""fintstab benchmark: three study workloads, run-level metrics, traced per-layer split.

    python3 bench/run.py --workload gain_sweep --seed 0 --seconds 36 --trace 0
    python3 bench/run.py --record-golden

Run from anywhere; the package is imported from ../src next to this file.

--trace 0 starts fresh processes one after another: SETUP_PROBES that only
set up (import fintstab, build configs/presets), then one that sets up and
repeats the workload for --seconds.  It reports the end-to-end metrics
wall_s, steps_per_s, setup_s, peak_rss_mb and ok_frac (= 1 - failed_frac;
a metric that reads 0 cannot be given a relative bound).  wall_s and setup_s
are medians of times normalised to a reference CPU speed sampled during the
timed code (speed.py): on a shared machine raw times of one run drift by up
to 2x with the host's load.  The raw medians are in the result file.

--trace 1 starts one process that runs the workload once untraced and twice
with every public fintstab function wrapped in a span (tracing.py), checks
that both traced reps give identical counts, and reports the per-layer
metrics plus trace.overhead_s (traced minus untraced wall_s).  It does a
fixed amount of work and does not use --seconds.

Every rep's outputs are checked (invariants for any seed, the golden record
for the default seed).  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics; the full result, with quartiles,
sample counts and the machine description, goes to .bench_out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing                            # stdlib only; fintstab loads on first use

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("gain_sweep", "scalar_certify", "lorenz_sync")   # see workloads.py
SETUP_PROBES = 4          # extra fresh processes that only time set-up
MIN_REPS = 3              # timed reps even when they outlast --seconds: a
                          # median of 3 drops one outlier rep (lorenz_sync)
TRACED_REPS = 2           # traced reps; their counts must agree exactly
CHILD_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
             "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# name -> unit, in the order they are printed
END_TO_END = {"wall_s": "s", "steps_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB", "ok_frac": "frac"}
_TIMED = ("delays.delays_at", "delays.envelope", "delays.mu",
          "integrate.integrate", "integrate.rhs", "integrate.query_diag",
          "integrate.query", "integrate.window_push", "integrate.window_sup",
          "control.static_scalar_control", "control.hook_step",
          "control.hook_control", "control.node_control", "conditions.check",
          "network.simulate_sync", "network.rhs", "network.pair_delay_times",
          "network.f", "network.g", "monitors.detect_phases",
          "monitors.trace_functional", "monitors.contact_point_decrease",
          "cli.main", "config.load_config")
_SELF_ONLY = ("network.error_index_series", "network.lorenz_preset",
              "monitors.functional_series", "cli.write_csv", "cli.read_csv")
PER_LAYER = {**{f"{n}.{m}": u for n in _TIMED for m, u in (("calls", "count"), ("self_s", "s"))},
             **{f"{n}.self_s": "s" for n in _SELF_ONLY},
             **{n: "bytes" if n == "cli.csv_bytes" else "count" for n in tracing.COUNTERS},
             "trace.overhead_s": "s"}


# -- child processes ---------------------------------------------------------

def _emit(doc: dict):
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def _child(args) -> int:
    import speed
    probe = speed.Probe()
    timed = args.role in ("setup", "timed")
    if timed:
        probe.start()
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads                      # numpy + fintstab: part of set-up
    workdir = OUT_DIR / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    setup_s = time.perf_counter() - t0
    setup_raw_s = setup_s
    if timed:
        setup = probe.lap()
        setup_s, setup_raw_s = setup.normalized, setup.wall
    if args.role == "setup":
        probe.stop()
        _emit({"setup_s": setup_s, "setup_raw_s": setup_raw_s})
        return 0

    import numpy as np
    import resource
    golden = None if args.role == "record" else workloads.load_golden(args.workload, args.seed)
    snapshot = tracing.bindings()
    doc = {"setup_s": setup_s, "setup_raw_s": setup_raw_s, "numpy": np.__version__,
           "walls": [], "raw_walls": [], "ref_samples": [],
           "attempted": 0, "failed": 0, "messages": [], "notes": []}

    def rep(run, tracer=None):
        """Time one rep, then check it; traced reps also yield their totals."""
        if tracer:
            tracer.reset_totals()
        if timed:
            probe.lap()                   # drops the time spent checking
        t = time.perf_counter()
        raw = run()
        wall = time.perf_counter() - t
        if timed:
            lap = probe.lap()
            doc["raw_walls"].append(lap.wall)
            doc["ref_samples"].append(lap.ref)
            wall = lap.normalized
        totals = tracer.totals() if tracer else None
        chk = wl.check(raw)
        for name in tracing.COUNTERS if tracer else ():
            chk.observe("trace", f"count.{name}", "exact", totals[name])
        doc["notes"] += chk.compare(golden)
        doc["attempted"] += chk.attempted
        doc["failed"] += chk.failed
        doc["messages"] += chk.messages()
        if args.role == "record":
            doc["record"] = chk.record()
        return wall, totals

    if args.role == "timed":
        start = time.perf_counter()
        spent = []
        while True:
            t = time.perf_counter()
            wall, _ = rep(wl.run)
            doc["walls"].append(wall)
            spent.append(time.perf_counter() - t)
            elapsed = time.perf_counter() - start
            if len(spent) >= MIN_REPS and elapsed + statistics.median(spent) > args.seconds:
                break
        probe.stop()
    else:
        untraced, _ = rep(wl.run)
        tracer = tracing.Tracer()
        traced = []
        tracer.install()
        try:
            for _ in range(TRACED_REPS):
                traced.append(rep(tracer.span(tracing.ROOT_SPAN, wl.run), tracer))
        finally:
            tracer.uninstall()
        counts = [{k: v for k, v in t.items() if not k.endswith(".self_s")}
                  for _, t in traced]
        _self_check(doc, counts[0]["integrate.steps"] == wl.steps_per_rep,
                    f"traced integrate.steps {counts[0]['integrate.steps']} "
                    f"!= expected {wl.steps_per_rep}")
        _self_check(doc, all(c == counts[0] for c in counts),
                    "traced reps of one seed gave different counts: "
                    + json.dumps({k: [c.get(k) for c in counts] for k in counts[0]
                                  if len({c.get(k) for c in counts}) > 1}))
        tracer.dump(OUT_DIR / f"spans_{args.workload}_seed{args.seed}.npz")
        doc["untraced_wall"] = untraced
        doc["walls"] = [w for w, _ in traced]
        doc["layers"] = {k: statistics.median(t.get(k, 0.0) for _, t in traced)
                         if k.endswith("_s") else counts[0].get(k, 0)
                         for k in PER_LAYER if k != "trace.overhead_s"}
        doc["layers"]["trace.overhead_s"] = statistics.median(doc["walls"]) - untraced

    _self_check(doc, tracing.unchanged(snapshot),
                "a fintstab function was left wrapped after the run")
    doc["steps_per_rep"] = wl.steps_per_rep
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _emit(doc)
    return 0


def _self_check(doc, ok: bool, message: str):
    """A failed benchmark self-check counts as one failed unit."""
    doc["attempted"] += 1
    if not ok:
        doc["failed"] += 1
        doc["messages"].append("self-check: " + message)


def _spawn(role: str, args, timeout: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    env = dict(os.environ, **CHILD_ENV)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{role} process for {args.workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- reporting -----------------------------------------------------------------

def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _machine() -> dict:
    return {"commit": _commit(), "nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "loadavg": os.getloadavg()}


def _timed_metrics(probes, res) -> tuple:
    walls = res["walls"]
    wall = statistics.median(walls)
    setups = [p["setup_s"] for p in probes] + [res["setup_s"]]
    ok_frac = 1.0 - res["failed"] / res["attempted"]
    metrics = {"wall_s": wall, "steps_per_s": res["steps_per_rep"] / wall,
               "setup_s": statistics.median(setups), "peak_rss_mb": res["peak_rss_mb"],
               "ok_frac": ok_frac}
    q1, q3 = _quartiles(walls)
    s1, s3 = _quartiles(setups)
    detail = {"wall_s": {"q1": q1, "q3": q3, "n": len(walls), "samples": walls,
                         "raw_samples": res["raw_walls"],
                         "raw_median": statistics.median(res["raw_walls"]),
                         "ref_samples": res["ref_samples"]},
              "setup_s": {"q1": s1, "q3": s3, "n": len(setups), "samples": setups,
                          "raw_samples": [p["setup_raw_s"] for p in probes] + [res["setup_raw_s"]]},
              "steps_per_rep": res["steps_per_rep"],
              "failed_frac": 1.0 - ok_frac}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite golden.json from traced default-seed runs")
    parser.add_argument("--role", choices=("setup", "timed", "traced", "record"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "fintstab" / "__init__.py").is_file():
        print(f"error: no fintstab package under {SRC}", file=sys.stderr)
        return 2
    if args.role:
        return _child(args)
    if args.record_golden:
        return _record_golden(args)
    if args.workload is None:
        parser.error("--workload is required")

    machine = _machine()
    try:
        if args.trace:
            res = _spawn("traced", args, timeout=170)
            metrics = res["layers"]
            units = PER_LAYER
            detail = {"traced_walls": res["walls"], "untraced_wall": res["untraced_wall"]}
        else:
            probes = [_spawn("setup", args, timeout=60) for _ in range(SETUP_PROBES)]
            res = _spawn("timed", args, timeout=args.seconds + 90)
            metrics, detail = _timed_metrics(probes, res)
            units = END_TO_END
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    correct = res["failed"] == 0
    print(f"fintstab benchmark  workload={args.workload}  seed={args.seed}  trace={args.trace}")
    for name, unit in units.items():
        print(f"  {name:<40} {metrics[name]:>14.6g} {unit}")
    if not args.trace:
        d = detail["wall_s"]
        print(f"  wall_s quartiles {d['q1']:.4g}..{d['q3']:.4g} s over n={d['n']} reps "
              f"(raw median {d['raw_median']:.4g} s before speed normalisation); "
              f"setup_s over n={detail['setup_s']['n']} processes; "
              f"failed_frac {detail['failed_frac']:.3g}")
    for note in res["notes"][:5]:
        print(f"  note (not a failure): {note}")
    for msg in res["messages"][:10]:
        print(f"  FAILED {msg}", file=sys.stderr)
    print(f"  check: {'PASS' if correct else 'FAIL'} "
          f"({res['failed']} of {res['attempted']} units failed)")

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "correct": correct,
              "attempted": res["attempted"], "failed": res["failed"],
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
              "detail": detail, "messages": res["messages"], "notes": res["notes"],
              "machine": dict(machine, numpy=res["numpy"]), "child_env": CHILD_ENV}
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1), encoding="utf-8")
    print(f"  wrote {out.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": result["metrics"]}))
    return 0


def _record_golden(args) -> int:
    golden = {"seed": 0, "workloads": {}}
    for name in WORKLOADS:
        args.workload = name
        args.seed = 0
        res = _spawn("record", args, timeout=170)
        if res["failed"]:
            print("\n".join(res["messages"]), file=sys.stderr)
            return 1
        golden["workloads"][name] = res["record"]
    sys.path.insert(0, str(SRC))
    import workloads
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {workloads.GOLDEN_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
