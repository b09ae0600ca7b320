"""Smoke test: every experiment script runs end to end on a tiny config.

The scripts forward fixed flags to the CLI, so this also catches a script
that still passes a flag the CLI no longer accepts. bench_pairs.py is
checked on stand-in benchmark runs.
"""
from __future__ import annotations

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("run_*.py"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.stem)
def test_script_writes_its_csv(script, tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("chunk_count = 8\nn_videos = 2\nreps = 1\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script), "--config", str(cfg)],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    csv = tmp_path / "results" / (script.stem.removeprefix("run_") + ".csv")
    assert len(csv.read_text().splitlines()) > 1


@pytest.fixture
def bench_pairs(tmp_path):
    """scripts/bench_pairs.py as a module, beside two stand-in checkouts in
    tmp_path: each side holds an empty perfbench/run.py, and the change holds
    this repository's BENCHMARK.json."""
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for side in module.SIDES:
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    return module


@pytest.mark.parametrize("wrong", [None, "plain", "traced"])
def test_bench_pairs_exits_1_when_a_run_is_not_correct(bench_pairs, tmp_path, monkeypatch, capsys,
                                                       wrong):
    def fake_run_bench(checkout, workload, seed, seconds, trace=0):
        # one change run reads "correct": false, untraced or traced
        correct = not (checkout.name == "change" and seed == 4 and wrong == "plain"
                       or checkout.name == "change" and trace and wrong == "traced")
        names = [m["name"] for m in BENCHMARK["end_to_end"]] + ["trace.overhead_ratio"]
        info = {"digest": "d", "src_loc": 1, "layer_share": {}, "ref_loop_ms": 2.5}
        result = {"correct": correct, "failed": int(not correct), "attempted": 1,
                  "metrics": {name: {"value": 1.0, "unit": ""} for name in names}}
        return info, result

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run_bench)
    out = tmp_path / "bench.json"
    code = bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"), "--label", "x",
                             "--workload", "sync_burst", "--seeds", "3-4",
                             "--traced-seed", "1", "--out", str(out)])
    doc = json.loads(out.read_text())  # written whatever the verdict
    assert doc["workloads"]["sync_burst"]["all_correct"] is (wrong != "plain")
    assert code == (0 if wrong is None else 1)
    assert ("not correct on sync_burst" in capsys.readouterr().err) is (wrong is not None)


def test_bench_pairs_names_the_seeds_whose_digests_differ(bench_pairs, tmp_path, monkeypatch,
                                                          capsys):
    def fake_run_bench(checkout, workload, seed, seconds, trace=0):
        # the change's output differs from the parent's on seeds 4 and 5 only
        digest = "changed" if checkout.name == "change" and seed in (4, 5) else "same"
        names = [m["name"] for m in BENCHMARK["end_to_end"]] + ["trace.overhead_ratio"]
        info = {"digest": digest, "src_loc": 1, "layer_share": {}, "ref_loop_ms": 2.5}
        result = {"correct": True, "failed": 0, "attempted": 1,
                  "metrics": {name: {"value": 1.0, "unit": ""} for name in names}}
        return info, result

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run_bench)
    out = tmp_path / "bench.json"
    code = bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"), "--label", "x",
                             "--workload", "sync_burst", "--workload", "population",
                             "--seeds", "3-6", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert code == 0
    assert [doc["workloads"][w]["digests_equal"] for w in ("sync_burst", "population")] \
        == [False, False]
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning:")]
    assert warnings == [
        "warning: sync_burst: parent and change digests differ on seeds 4, 5",
        "warning: population: parent and change digests differ on seeds 4, 5",
    ]


def test_bench_pairs_scales_and_summarizes_three_traced_runs_per_side(bench_pairs, tmp_path,
                                                                       monkeypatch):
    traced = []

    def fake_run_bench(checkout, workload, seed, seconds, trace=0):
        # the k-th traced run of a side takes 3 host seconds in its solver on
        # a host whose loop takes (k + 1) * 2.5 ms, 1.5 ms more for the change:
        # 3 / (k + 1) reference seconds, and 3 * 2.5 / (2.5 * (k + 1) + 1.5)
        names = [m["name"] for m in BENCHMARK["end_to_end"]]
        if trace:
            traced.append(checkout.name)
            k = traced.count(checkout.name) - 1
            loop_ms = 2.5 * (k + 1) + (1.5 if checkout.name == "change" else 0.0)
            names = ["cph.solve_groups.self_s", "cph.solve_groups.calls",
                     "trace.overhead_ratio"]
        else:
            loop_ms = 2.5
        values = {"cph.solve_groups.self_s": 3.0, "cph.solve_groups.calls": 7.0,
                  "trace.overhead_ratio": 1.0 + len(traced) / 10}
        info = {"digest": "d", "src_loc": 1, "layer_share": {"cph": 0.1 * len(traced)},
                "ref_loop_ms": loop_ms}
        result = {"correct": True, "failed": 0, "attempted": 1,
                  "metrics": {name: {"value": values.get(name, 1.0), "unit": ""}
                              for name in names}}
        return info, result

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run_bench)
    out = tmp_path / "bench.json"
    code = bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"), "--label", "x",
                             "--workload", "sync_burst", "--seeds", "3-4",
                             "--traced-seed", "1", "--out", str(out)])
    assert code == 0
    # three runs per side, and the side that goes first alternates
    assert traced == ["parent", "change", "change", "parent", "parent", "change"]
    record = json.loads(out.read_text())["traced"]["sync_burst"]
    parent, change = record["parent"], record["change"]
    assert parent["self_s"]["cph.solve_groups.self_s"] == {"median": 1.5, "q1": 1.25, "q3": 2.25}
    scaled = sorted(7.5 / (2.5 * (k + 1) + 1.5) for k in range(3))
    assert change["self_s"]["cph.solve_groups.self_s"] == {
        "median": round(scaled[1], 6), "q1": round((scaled[0] + scaled[1]) / 2, 6),
        "q3": round((scaled[1] + scaled[2]) / 2, 6)}
    # the parent's runs were the 1st, 4th and 5th traced: overhead 1.1, 1.4, 1.5
    assert parent["trace.overhead_ratio"] == {"median": 1.4, "q1": 1.25, "q3": 1.45}
    assert parent["layer_share"] == {"cph": 0.4}
    assert parent["counts"] == change["counts"] == {"cph.solve_groups.calls": 7.0}
    assert record["counts_equal"] is True
    assert record["counts_moved"] == {}


def test_bench_pairs_names_each_count_that_moved(bench_pairs, tmp_path, monkeypatch):
    def fake_run_bench(checkout, workload, seed, seconds, trace=0):
        # the change makes fewer allocator calls; every other count stays
        values = {"cph.solve_groups.calls": 7.0, "buffer_airtime.allocate_airtime.calls":
                  120.0 if checkout.name == "change" else 504.0, "trace.overhead_ratio": 1.0}
        names = [m["name"] for m in BENCHMARK["end_to_end"]] + (list(values) if trace else [])
        info = {"digest": "d", "src_loc": 1, "layer_share": {}, "ref_loop_ms": 2.5}
        result = {"correct": True, "failed": 0, "attempted": 1,
                  "metrics": {name: {"value": values.get(name, 1.0), "unit": ""}
                              for name in names}}
        return info, result

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run_bench)
    out = tmp_path / "bench.json"
    code = bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"), "--label", "x",
                             "--workload", "sync_burst", "--seeds", "3-4",
                             "--traced-seed", "1", "--out", str(out)])
    assert code == 0
    record = json.loads(out.read_text())["traced"]["sync_burst"]
    assert record["counts_equal"] is False
    assert record["counts_moved"] == {
        "buffer_airtime.allocate_airtime.calls": {"parent": 504.0, "change": 120.0}}
