"""The benchmark's span tracer still binds every name it wraps, and leaves
the package as it found it."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


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
