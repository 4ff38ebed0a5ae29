"""Span tracing for the benchmark's traced runs.

`Tracer.install()` replaces fintstab's public functions and methods in place
with wrappers that record one span per call: name, start, end and the id of
the enclosing span.  Spans stay in memory and `dump()` writes them out at the
end.  Per span name the tracer also sums `calls` and `self_s`, a span's
duration minus the durations of its child spans.  `uninstall()` puts every
original object back; timed runs never install anything, and `bindings()`
lets them verify that.
"""
from __future__ import annotations

import importlib
import os
from array import array
from time import perf_counter

MODULES = ("fintstab", "fintstab.delays", "fintstab.integrate", "fintstab.control",
           "fintstab.conditions", "fintstab.config", "fintstab.network",
           "fintstab.monitors", "fintstab.cli")

# (defining module, function or Class.method, span name).  A module function
# is replaced wherever a fintstab module binds it, since the package imports
# names from its submodules.
SPANS = (
    ("fintstab.delays", "DelayProfile.delays_at", "delays.delays_at"),
    ("fintstab.delays", "DelayProfile.envelope", "delays.envelope"),
    ("fintstab.delays", "RateFunction.mu", "delays.mu"),
    ("fintstab.integrate", "HistoryTrajectory.query_diag", "integrate.query_diag"),
    ("fintstab.integrate", "HistoryTrajectory.query", "integrate.query"),
    ("fintstab.integrate", "RunningWindowSup.push", "integrate.window_push"),
    ("fintstab.integrate", "RunningWindowSup.sup", "integrate.window_sup"),
    ("fintstab.control", "static_scalar_control", "control.static_scalar_control"),
    ("fintstab.control", "ScalarAdaptiveHook.step", "control.hook_step"),
    ("fintstab.control", "NetworkAdaptiveHook.step", "control.hook_step"),
    ("fintstab.control", "ScalarAdaptiveHook.control", "control.hook_control"),
    ("fintstab.control", "full_node_control", "control.node_control"),
    ("fintstab.control", "pinning_control", "control.node_control"),
    ("fintstab.conditions", "check_scalar_theorem", "conditions.check"),
    ("fintstab.conditions", "check_network_theorem", "conditions.check"),
    ("fintstab.conditions", "settling_bound", "conditions.check"),
    ("fintstab.conditions", "left_eigenvector", "conditions.check"),
    ("fintstab.network", "simulate_sync", "network.simulate_sync"),
    ("fintstab.network", "NetworkModel.pair_delay_times", "network.pair_delay_times"),
    ("fintstab.network", "lorenz_rhs", "network.f"),
    ("fintstab.network", "sin_plus_linear", "network.g"),
    ("fintstab.network", "error_index_series", "network.error_index_series"),
    ("fintstab.network", "lorenz_preset", "network.lorenz_preset"),
    ("fintstab.monitors", "detect_phases", "monitors.detect_phases"),
    ("fintstab.monitors", "trace_functional", "monitors.trace_functional"),
    ("fintstab.monitors", "functional_series", "monitors.functional_series"),
    ("fintstab.monitors", "contact_point_decrease", "monitors.contact_point_decrease"),
    ("fintstab.cli", "main", "cli.main"),
    ("fintstab.cli", "write_trajectory_csv", "cli.write_csv"),
    ("fintstab.cli", "write_error_index_csv", "cli.write_csv"),
    ("fintstab.cli", "read_trajectory_csv", "cli.read_csv"),
    ("fintstab.config", "load_config", "config.load_config"),
    ("fintstab.integrate", "integrate", "integrate.integrate"),
    # counted, not timed: the per-step helper behind integrate.zero_band_hits
    ("fintstab.integrate", "_project_zero_band", None),
)

COUNTERS = ("integrate.steps", "integrate.zero_band_hits", "control.mode_switches",
            "monitors.contact_points", "monitors.contact_failures", "cli.csv_bytes")

ROOT_SPAN = "bench.rep"


def bindings():
    """Every (owner, attribute, original object, span name) that install() replaces."""
    mods = [importlib.import_module(m) for m in MODULES]
    out = []
    for modname, target, span_name in SPANS:
        mod = importlib.import_module(modname)
        if "." in target:
            cls_name, meth = target.split(".")
            cls = getattr(mod, cls_name)
            out.append((cls, meth, cls.__dict__[meth], span_name))
            continue
        orig = getattr(mod, target)
        out += [(m, name, orig, span_name) for m in mods
                for name, value in vars(m).items() if value is orig]
    return out


def _current(owner, name):
    return owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)


def unchanged(snapshot) -> bool:
    """True when every binding in `snapshot` still holds its recorded object
    and none of them is a tracing wrapper."""
    return all(_current(owner, name) is obj and not hasattr(obj, "__wrapped__")
               for owner, name, obj, _ in snapshot)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [[-1, 0.0]]   # [open span id, time spent in its children]
        self._patched = []
        self.calls = {}
        self.self_s = {}
        self.counts = dict.fromkeys(COUNTERS, 0)

    # -- accounting ----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def reset_totals(self):
        # cleared in place: the installed wrappers hold these dicts
        self.calls.clear()
        self.self_s.clear()
        self.counts.update(dict.fromkeys(COUNTERS, 0))

    def totals(self) -> dict:
        """calls and self_s per span name, plus the counters, since the last reset."""
        out = dict(self.counts)
        for name, n in self.calls.items():
            out[name + ".calls"] = n
            out[name + ".self_s"] = self.self_s[name]
        return out

    def span(self, name: str, fn):
        """`fn` wrapped so that each call records a span named `name`."""
        nid = self._id(name)
        stack, calls, self_s = self._stack, self.calls, self.self_s
        s_name, s_parent = self.span_name, self.span_parent
        s_start, s_end = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            sid = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1][0])
            s_start.append(0.0)
            s_end.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                stack[-1][1] += dur
                s_start[sid] = t0
                s_end[sid] = t1
                calls[name] = calls.get(name, 0) + 1
                self_s[name] = self_s.get(name, 0.0) + dur - frame[1]

        wrapper.__wrapped__ = fn
        return wrapper

    # -- the counting shims wrapped inside spans -------------------------------

    def _integrate(self, orig, rhs_name):
        counts = self.counts

        def integrate(rhs, *args, **kwargs):
            traj = orig(self.span(rhs_name, rhs), *args, **kwargs)
            counts["integrate.steps"] += traj.states.shape[0] - 1
            return traj

        return integrate

    def _zero_band(self, orig):
        counts = self.counts

        def project(x_old, x_new, band):
            out = orig(x_old, x_new, band)
            if out is not x_new:
                counts["integrate.zero_band_hits"] += int(((out == 0.0) & (x_new != 0.0)).sum())
            return out

        return project

    def _hook_step(self, orig):
        counts = self.counts

        def step(hook, t, x, traj):
            before = hook.state.mode
            orig(hook, t, x, traj)
            if hook.state.mode != before:
                counts["control.mode_switches"] += 1

        return step

    def _contacts(self, orig):
        counts = self.counts

        def contact_point_decrease(*args, **kwargs):
            points = orig(*args, **kwargs)
            counts["monitors.contact_points"] += len(points)
            counts["monitors.contact_failures"] += sum(1 for p in points if not p.ok)
            return points

        return contact_point_decrease

    def _csv(self, orig):
        counts = self.counts

        def csv_io(path, *args, **kwargs):
            result = orig(path, *args, **kwargs)
            counts["cli.csv_bytes"] += os.path.getsize(path)
            return result

        return csv_io

    def _replacement(self, owner, attr, orig, span_name):
        if attr == "_project_zero_band":
            return self._zero_band(orig)
        if attr == "integrate":
            rhs_name = "network.rhs" if owner.__name__ == "fintstab.network" else "integrate.rhs"
            return self.span(span_name, self._integrate(orig, rhs_name))
        if attr == "step":
            return self.span(span_name, self._hook_step(orig))
        if attr == "contact_point_decrease":
            return self.span(span_name, self._contacts(orig))
        if span_name in ("cli.write_csv", "cli.read_csv"):
            return self.span(span_name, self._csv(orig))
        return self.span(span_name, orig)

    # -- install / uninstall ---------------------------------------------------

    def install(self):
        for owner, attr, orig, span_name in bindings():
            setattr(owner, attr, self._replacement(owner, attr, orig, span_name))
            self._patched.append((owner, attr, orig))

    def uninstall(self):
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def dump(self, path):
        """Write every recorded span to `path` (.npz: name table plus columns)."""
        import numpy as np
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int64),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))
