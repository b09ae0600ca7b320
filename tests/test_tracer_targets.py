"""The benchmark's tracer wraps edgestream names from outside, by owner and
attribute, and reads fields of what they return; a rename under src/ would
make it fail at install time, and a changed result at the first call. This
reads perfbench/tracer.py and changes nothing there."""
from __future__ import annotations

import dataclasses
import importlib
import pathlib
import sys

import pytest

import edgestream

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture
def tracer(monkeypatch):
    """perfbench/tracer.py, imported afresh."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    for name in ("tracer", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    return importlib.import_module("tracer")


def test_the_package_exports_what_the_benchmark_reads():
    # perfbench/run.py and workloads.py read these two from the package itself
    assert edgestream.__all__ == ["ScenarioConfig", "run_replication"]
    assert edgestream.ScenarioConfig is edgestream.cli_metrics.ScenarioConfig
    assert edgestream.run_replication is edgestream.cli_metrics.run_replication


def test_every_traced_name_is_in_its_owners_namespace(tracer):
    targets = tracer.TARGETS + (tracer.REPLICATION,)
    assert len(targets) > 10
    for target in targets:
        owner = tracer._resolve(edgestream, target.owner)
        # installed() reads owner.__dict__, so an inherited or re-exported name is not enough
        assert callable(owner.__dict__.get(target.attr)), f"{target.owner}.{target.attr}"


def test_traced_replications_count_every_layer(tracer):
    # one replication of each solver and one passthrough replication, run as
    # the benchmark's traced pass runs them
    cfg = dataclasses.replace(edgestream.ScenarioConfig(), n_clients=3, chunk_count=8,
                              schemes=("CPH", "BUFF", "CLIENT"), reps=1)
    t = tracer.Tracer()
    run = t.wrap(tracer.REPLICATION, edgestream.cli_metrics.run_replication)
    with t.installed(edgestream):
        results = [run(cfg, scheme, 0) for scheme in cfg.schemes]
    assert tracer.self_check(t.stats, results) == []
    metrics = tracer.layer_metrics(t.stats, 1)
    assert metrics["buffer_airtime.allocate_airtime.calls"][0] > 0
    assert metrics["buffer_airtime.allocate_airtime.risky"][0] > 0
    assert metrics["buffer_airtime.equal_airtime.calls"][0] > 0
    assert metrics["cph.cph_assign.calls"][0] > 0
    # read off SolveGroup.cluster_key and BUFF's AssignmentResult.no_valid_config
    assert metrics["cph.solve_groups.max_cluster"][0] >= 1
    assert metrics["buff.buff_assign.calls"][0] > 0
