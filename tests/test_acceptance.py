"""Acceptance suite: end-to-end guarantees the package is built to honor.

Each test pins an externally checkable property — solver exactness against
exhaustive search, worked merge examples, engine invariants, scheme
orderings at scale, determinism, and the differential oracles for the
buffer model and the cache. Tolerances are stated inline and deliberately
strict; these tests are the contract, not smoke checks.
"""
from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from edgestream import cph
from edgestream.assign_core import estimate_buffer
from edgestream.cache import LruChunkCache, OversizedObjectError
from edgestream.cli_metrics import (
    ScenarioConfig,
    mean_ci,
    oracle_check,
    run_replication,
    run_scenario,
    run_sweep,
)
from edgestream.cph import SolveGroup, solve_groups
from plain_fold import plain_fold
from reference_lru import ReferenceLru, keys_by_recency
from reference_scoring import candidate_group
from replay_oracle import replay_buffer_projection
from test_cph import Metered, path_counting


# ---- 1: solver exactness on randomized instances ---------------------


def test_solver_matches_exhaustive_oracle_on_500_instances(monkeypatch):
    # the instances must reach both of the solver's paths: the exit at the
    # floor and the merge
    paths = {"exits": 0, "merges": 0}
    monkeypatch.setattr(cph, "solve_groups", path_counting(cph.solve_groups, paths))
    t0 = time.monotonic()
    checked, mismatches = oracle_check(500, seed=1)
    elapsed = time.monotonic() - t0
    assert checked == 500
    assert mismatches == []
    assert elapsed < 30.0
    assert paths["exits"] > 0 and paths["merges"] > 0, paths


# ---- 2: worked merge examples, exact -----------------------------------


def test_distinct_content_merge_reaches_known_optimum():
    groups = [
        candidate_group("a", [(3, 150), (10, 400), (4, 500)]),
        candidate_group("b", [(3, 450), (10, 450), (12, 800)]),
        candidate_group("c", [(2, 100), (9, 300), (11, 900)]),
    ]
    utility, cost, picks = solve_groups(groups, 1200.0)
    assert utility == 29.0
    assert cost == 1150.0
    assert picks == (1, 1, 1)  # middle level to every client


def test_shared_content_merge_beats_eager_pruning():
    shared = [
        candidate_group("v0", [(5, 300), (9, 700), (8, 1700)]),
        candidate_group("v0", [(6, 300), (11, 700), (12, 1700)]),
        candidate_group("v0", [(4, 300), (7, 700), (15, 1700)]),
    ]
    deferred = solve_groups(shared, 2000.0)
    eager = plain_fold(shared, 2000.0)
    assert deferred == (35.0, 1700.0, (2, 2, 2))
    assert eager == (27.0, 700.0, (1, 1, 1))


def test_dominated_point_is_dropped_exactly():
    # the best picks cost 10,850, over the capacity, so the floor is -inf and
    # only dominance can drop (7, 950); b's items then meet one frontier entry
    b = Metered(candidate_group("b", [(1, 0), (100, 10000)]).items, lambda: math.inf)
    groups = [candidate_group("a", [(20, 850), (7, 950)]), SolveGroup("b", b)]
    assert solve_groups(groups, 1000.0) == (21.0, 850.0, (0, 0))
    assert b.scans == 1


# ---- 3: engine invariants over 50 seeded runs --------------------------


def test_invariants_hold_across_fifty_seeded_runs():
    t0 = time.monotonic()
    base = dataclasses.replace(
        ScenarioConfig(), n_clients=6, n_videos=4, chunk_count=60, reps=5)
    tight = dataclasses.replace(
        ScenarioConfig(), n_clients=8, n_videos=2, chunk_count=60,
        backhaul_mbps=6.0, start_offset_max_s=10.0, reps=5, base_seed=101)
    runs = 0
    for cfg in (base, tight):
        for scheme in cfg.schemes:
            for rep in range(cfg.reps):
                result = run_replication(cfg, scheme, rep, record_events=True)
                runs += 1
                assert result.violations == [], (
                    f"{scheme} rep {rep}: {result.violations[:3]}")
                for e in result.events:
                    assert abs(e.delivered_quality - e.requested_quality) <= cfg.gamma
    elapsed = time.monotonic() - t0
    assert runs == 50
    assert elapsed < 300.0


# ---- 4: zero tolerance never rewrites a request ------------------------


@pytest.mark.parametrize("scheme", ["CPH", "CPH-EQ", "BUFF"])
def test_zero_tolerance_preserves_every_request(scheme):
    cfg = dataclasses.replace(ScenarioConfig(), gamma=0)
    result = run_replication(cfg, scheme, rep=0, record_events=True)
    assert result.violations == []
    assert result.events  # the run actually delivered something
    for e in result.events:
        assert e.delivered_quality == e.requested_quality


# ---- 5: scheme orderings at desk scale ---------------------------------


@pytest.fixture(scope="module")
def n_sweep():
    """20-rep sweep over the client population, all five schemes."""
    t0 = time.monotonic()
    rows, violations = run_sweep(ScenarioConfig(), "n_clients", [1, 5, 10, 20],
                                 jobs=min(2, os.cpu_count() or 1))
    return rows, violations, time.monotonic() - t0


def _means(rows, n, metric):
    out = {}
    for row in rows:
        if row["n_clients"] != n:
            continue
        out.setdefault(row["scheme"], []).append(row[metric])
    return {scheme: sum(v) / len(v) for scheme, v in out.items()}


def test_population_sweep_is_clean_and_fast(n_sweep):
    rows, violations, elapsed = n_sweep
    assert violations == []
    assert len(rows) == 5 * 20 * 4
    assert elapsed < 1200.0


@pytest.mark.parametrize("n", [10, 20])
def test_bitrate_ordering_under_contention(n_sweep, n):
    rows, _, _ = n_sweep
    kbps = _means(rows, n, "mean_bitrate_kbps")
    assert kbps["CPH"] >= kbps["BUFF"] >= kbps["CLIENT-CACHE"] >= kbps["CLIENT"]
    assert kbps["CPH"] >= 1.25 * kbps["CLIENT"]


def test_stall_ordering_at_heavy_load(n_sweep):
    rows, _, _ = n_sweep
    stalls = _means(rows, 20, "stall_ratio")
    # Vacuous as it stands: at N=20 with the 20 Mbps default backhaul every
    # scheme stalls about 0, so this holds as 0 >= 0. ROADMAP item 9 keeps
    # it unchanged and asks for a strict test at a backhaul-bound point.
    assert stalls["CLIENT"] >= 2.0 * stalls["CPH"]


@pytest.mark.parametrize("n", [10, 20])
def test_cache_hit_ordering_under_contention(n_sweep, n):
    rows, _, _ = n_sweep
    hits = _means(rows, n, "cache_bit_hit_ratio")
    assert hits["CPH"] >= hits["CLIENT-CACHE"] >= hits["CLIENT"]
    assert hits["CLIENT"] == 0.0


# ---- 6: single-video cache amplification --------------------------------


def test_single_video_cache_amplification():
    # The rewriting scheme must at least double the exact-match baseline's
    # cache bit hit ratio in >= 90% of seeded runs when everyone watches the
    # same video. The premise: clients of one video still request different
    # qualities, so exact-match caching finds few hits, while rewriting a
    # request to a cached quality within the tolerance window multiplies them.
    cfg = dataclasses.replace(
        ScenarioConfig(), n_videos=1, schemes=("CPH", "CLIENT-CACHE"))
    rows, _ = run_scenario(cfg, jobs=min(2, os.cpu_count() or 1))
    hits = {(r["scheme"], r["replication"]): r["cache_bit_hit_ratio"] for r in rows}
    passes = sum(hits["CPH", rep] >= 2.0 * hits["CLIENT-CACHE", rep] for rep in range(cfg.reps))
    assert passes >= 18, f"amplification held in only {passes}/20 runs"


# ---- 7: cache-weight monotonicity ---------------------------------------


def test_cache_weight_raises_hit_ratio_within_ci():
    cfg = dataclasses.replace(ScenarioConfig(), schemes=("CPH",))
    rows, violations = run_sweep(cfg, "mu_c", [1.0, 1.3, 1.5],
                                 jobs=min(2, os.cpu_count() or 1))
    assert violations == []
    by_mu = {}
    for row in rows:
        by_mu.setdefault(row["mu_c"], []).append(row["cache_bit_hit_ratio"])
    lo_mean, lo_half = mean_ci(by_mu[1.0])
    hi_mean, _ = mean_ci(by_mu[1.5])
    assert hi_mean >= lo_mean - lo_half


# ---- 8: buffer model against a discrete-event replay ---------------------


def test_buffer_projection_hand_cases_exact():
    def run(**kw):
        base = dict(current_buffer_s=8.0, backhaul_delay_s=0.0,
                    dl_transmit_s=1.0, dl_queue_bits=0.0, dl_queue_media_s=0.0,
                    effective_rate_bps=1e6)
        base.update(kw)
        return estimate_buffer(**base)

    assert run(backhaul_delay_s=3.0) == 4.0
    assert run(backhaul_delay_s=3.0, dl_queue_bits=4e6, dl_queue_media_s=6.0) == 9.0
    assert run(backhaul_delay_s=0.0) == 7.0
    assert run(backhaul_delay_s=0.0, dl_queue_bits=4e6, dl_queue_media_s=6.0) == 9.0


def test_buffer_projection_matches_replay_on_1000_states():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        rate = float(rng.uniform(1e5, 5e7))
        chunks = [(float(rng.uniform(1e5, 8e6)), float(rng.uniform(0.5, 4.0)))
                  for _ in range(int(rng.integers(0, 6)))]
        cand_bits = float(rng.uniform(1e5, 8e6))
        from_cache = bool(rng.integers(0, 2))
        t_b = 0.0 if from_cache else float(rng.uniform(0.0, 10.0))
        b0 = float(rng.uniform(-5.0, 20.0))
        got = estimate_buffer(
            current_buffer_s=b0,
            backhaul_delay_s=t_b,
            dl_transmit_s=cand_bits / rate,
            dl_queue_bits=sum(s for s, _ in chunks),
            dl_queue_media_s=sum(m for _, m in chunks),
            effective_rate_bps=rate,
        )
        want = replay_buffer_projection(b0, chunks, cand_bits, rate,
                                        from_cache, t_b)
        assert abs(got - want) <= 0.5


# ---- 9: byte-identical output across process invocations -----------------


def test_csv_output_is_byte_identical_across_processes(tmp_path):
    cfg = tmp_path / "repro.cfg"
    cfg.write_text(
        "schemes = CPH, CLIENT\nn_clients = 3\nn_videos = 3\n"
        "chunk_count = 30\nreps = 2\nbase_seed = 5\n")
    # the child imports this checkout's package whether or not it is installed
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    outputs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "edgestream",
             "run", "--config", str(cfg), "--out-csv", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") == 1 + 2 * 2  # header + scheme*rep rows


# ---- 10: cache against a reference LRU -----------------------------------


def test_lru_matches_reference_on_ten_thousand_ops():
    rng = np.random.default_rng(31337)
    cache = LruChunkCache(capacity_bits=400)
    ref = ReferenceLru(400)
    keys = [(v, k, m) for v in range(3) for k in range(6) for m in range(3)]
    for _ in range(10_000):
        op = int(rng.integers(0, 3))
        key = keys[int(rng.integers(0, len(keys)))]
        if op == 0:
            size = float(rng.integers(1, 150))
            try:
                got = cache.insert(*key, size)
            except OversizedObjectError:
                got = None
            try:
                want = ref.insert(key, size)
            except OversizedObjectError:
                want = None
            assert got == want
        elif op == 1:
            cache.touch(*key)
            ref.touch(key)
        else:
            assert cache.contains(*key) == ref.contains(key)
        assert keys_by_recency(cache) == [k for k, _ in ref.items]
        assert cache.used_bits == sum(s for _, s in ref.items)
