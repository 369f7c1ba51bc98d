"""The traced benchmark run (perfbench/tracing.py) wraps efalg's module-level
names by getattr/setattr; every name it plans to wrap must exist, and
uninstalling must put the originals back."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_wraps_and_restores_every_planned_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    planned = [
        (importlib.import_module(module), name)
        for module, names in tracing.wrap_plan().items()
        for name in names
    ]
    missing = [f"{m.__name__}.{name}" for m, name in planned if not hasattr(m, name)]
    assert not missing

    originals = [getattr(m, name) for m, name in planned]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (m, name), original in zip(planned, originals):
            assert getattr(m, name).__wrapped__ is original
    finally:
        tracer.uninstall()
    assert [getattr(m, name) for m, name in planned] == originals
