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


def _load_bench_pairs():
    path = ROOT / "scripts" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("wrong", [None, "plain", "traced"])
def test_bench_pairs_exits_1_when_a_run_is_not_correct(tmp_path, monkeypatch, capsys, wrong):
    bench_pairs = _load_bench_pairs()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    for side in bench_pairs.SIDES:
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(benchmark))

    def fake_run_bench(checkout, workload, seed, seconds, trace=0):
        # one change run reads "correct": false, untraced or traced
        correct = not (checkout.name == "change" and seed == 4 and wrong == "plain"
                       or checkout.name == "change" and trace and wrong == "traced")
        names = [m["name"] for m in benchmark["end_to_end"]] + ["trace.overhead_ratio"]
        info = {"digest": "d", "src_loc": 1, "layer_share": {}}
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


def test_bench_pairs_names_the_seeds_whose_digests_differ(tmp_path, monkeypatch, capsys):
    bench_pairs = _load_bench_pairs()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    for side in bench_pairs.SIDES:
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(benchmark))

    def fake_run_bench(checkout, workload, seed, seconds, trace=0):
        # the change's output differs from the parent's on seeds 4 and 5 only
        digest = "changed" if checkout.name == "change" and seed in (4, 5) else "same"
        names = [m["name"] for m in benchmark["end_to_end"]] + ["trace.overhead_ratio"]
        info = {"digest": digest, "src_loc": 1, "layer_share": {}}
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
