"""The benchmark's span tracer still binds every name it wraps, leaves the
package as it found it, and its traced gain_sweep and lorenz_sync reps pass
the golden record."""
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _tracing():
    return _bench("tracing")


def _resolve(modname, target):
    owner = importlib.import_module(modname)
    if "." in target:
        cls_name, attr = target.split(".")
        return getattr(owner, cls_name).__dict__[attr]
    return getattr(owner, target)


def test_every_span_entry_is_bound():
    tracing = _tracing()
    bound = {id(obj) for _, _, obj, _ in tracing.bindings()}
    missing = [target for modname, target, _ in tracing.SPANS
               if id(_resolve(modname, target)) not in bound]
    assert missing == []


def test_install_then_uninstall_restores_every_binding():
    tracing = _tracing()
    snapshot = tracing.bindings()
    assert tracing.unchanged(snapshot)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert not tracing.unchanged(snapshot)
    finally:
        tracer.uninstall()
    assert tracing.unchanged(snapshot)


def _traced_rep(name, tmp_path):
    """What `bench/run.py --workload <name> --trace 1` checks on one rep: the
    seed-0 outputs and the exact traced counters.  Returns the tracer's totals."""
    tracing, workloads = _tracing(), _bench("workloads")
    wl = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, tmp_path)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        raw = tracer.span(tracing.ROOT_SPAN, wl.run)()
        totals = tracer.totals()
    finally:
        tracer.uninstall()
    chk = wl.check(raw)
    for counter in tracing.COUNTERS:
        chk.observe("trace", f"count.{counter}", "exact", totals[counter])
    assert chk.compare(workloads.load_golden(wl.name, workloads.DEFAULT_SEED)) == []
    assert chk.messages() == [] and chk.failed == 0
    assert totals["integrate.steps"] == wl.steps_per_rep
    return totals


def test_traced_gain_sweep_matches_the_golden_record(tmp_path):
    _traced_rep("gain_sweep", tmp_path)


def test_traced_lorenz_sync_matches_the_golden_record(tmp_path):
    # the network rhs runs on floats, but a step the zero band hits still goes
    # through _project_zero_band and every hook step through
    # NetworkAdaptiveHook.step, where the tracer counts them
    totals = _traced_rep("lorenz_sync", tmp_path)
    assert (totals["integrate.steps"], totals["integrate.zero_band_hits"],
            totals["control.mode_switches"], totals["monitors.contact_points"]
            ) == (80000, 166312, 2, 425)


def _untraced_rep(name, tmp_path):
    """One untraced seed-0 rep of workload `name`: its check, folded with the
    golden record, and its observations by key."""
    workloads = _bench("workloads")
    wl = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, tmp_path)
    chk = wl.check(wl.run())
    chk.compare(workloads.load_golden(name, workloads.DEFAULT_SEED))
    assert chk.messages() == [] and chk.failed == 0
    return {key: value for _, key, _, value in chk.observations}


def test_scalar_certify_rep_matches_the_golden_record(tmp_path):
    seen = _untraced_rep("scalar_certify", tmp_path)
    # the golden's info-only digest, e862e3471ad67d34, predates the grid snap
    # rule of grid_rows and is stale; this is the digest of today's outputs
    assert seen["simulate.digest"] == "0bc05f53b76839a2"


def test_lorenz_sync_rep_matches_the_golden_record(tmp_path):
    assert _untraced_rep("lorenz_sync", tmp_path)["network.digest"] == "82e2b959e181524d"
