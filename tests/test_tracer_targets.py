"""The benchmark's tracer wraps edgestream names from outside, by owner and
attribute; a rename under src/ would make it fail at install time. This reads
perfbench/tracer.py and changes nothing there."""
from __future__ import annotations

import importlib
import pathlib
import sys

import edgestream

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_traced_name_is_in_its_owners_namespace(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    for name in ("tracer", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    tracer = importlib.import_module("tracer")
    targets = tracer.TARGETS + (tracer.REPLICATION,)
    assert len(targets) > 10
    for target in targets:
        owner = tracer._resolve(edgestream, target.owner)
        # installed() reads owner.__dict__, so an inherited or re-exported name is not enough
        assert callable(owner.__dict__.get(target.attr)), f"{target.owner}.{target.attr}"
