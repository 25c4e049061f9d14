"""The benchmark's tracer names its layers by attribute path; each must exist.

``perfbench/tracer.py`` reads a missing name as zero calls, so an API change
that drops a traced name would otherwise show up only as a per-layer count
of 0, which reads as an improvement.  The tracer file is loaded by path and
not modified.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = []
    for module_name, path, label in tracer.TARGETS:
        module = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if not callable(getattr(owner, attr, None)):
            missing.append(label)
    assert missing == []
