"""Golden output: the simulated statistics and delivery events of a fixed
config matrix, hashed.

ROADMAP's "CSV byte-identical" contract in test form. Any change to the
engine, the client, the solvers or the cache that moves a single output bit
on this matrix changes a hash: EXPECTED_SHA256 covers the statistics,
EVENTS_SHA256 every delivery's requested and delivered quality, cache flag,
times and delays, riders included, and CSV_SHA256 the bytes `write_csv`
writes for the matrix's rows. The matrix runs once, with events recorded,
so the statistics hash also checks that recording events changes no
statistic. A change that is meant to move outputs must say so and re-record
the hashes from the new code.
"""
from __future__ import annotations

import dataclasses
import hashlib

from edgestream.ap_engine import SCHEMES
from edgestream.cache import LruChunkCache
from edgestream.cli_metrics import ScenarioConfig, _result_row, run_replication, write_csv

# The simulated statistics a result carries (events and violations left out).
DIGEST_FIELDS = (
    "t_end_s", "delivered_chunks", "delivered_bits", "cache_bits",
    "backhaul_attributed_bits", "pipe_bits", "bitrate_sum_bps", "solver_calls",
    "solver_fallbacks", "startup_latencies_s", "stall_ratios", "all_finished",
)

BASE = dataclasses.replace(ScenarioConfig(), chunk_count=30, reps=1)
# every scheme on both ends of the population and of the catalog size, plus
# one point whose small cache evicts and whose slow backhaul queues jobs long
# enough for later requesters to ride them
POINTS = tuple(
    dataclasses.replace(BASE, n_clients=n, n_videos=v)
    for n in (1, 12) for v in (1, 10)
) + (dataclasses.replace(BASE, n_clients=12, n_videos=10,
                         cache_capacity_bits=64e6, backhaul_mbps=8.0),)

EXPECTED_SHA256 = "487c4f571c6ddcd676de43ce5cef853593efbdbf6053d15534a03895ab232473"
# sha256 over repr(event) of every DeliveryEvent, in point x SCHEMES order
EVENTS_SHA256 = "c401c2cbe915cedd17f5dc6f60773244ff9eb47e4cd23b2c2e4ce05b80275937"
# sha256 of the CSV file of every result's row, labelled param "point" = index
CSV_SHA256 = "b3a580a4da411f3873e70c25562a4dd5ffd6b7d4bd207b96f76d19a1751c3a3c"

# the evicting, slow-backhaul point at a fifth of the default step: many
# backhaul completions split an interval into sub-segments, and many downlink
# finishes land within _EPS past a segment's end and are clamped to it
SHORT_STEP = (dataclasses.replace(POINTS[-1], t_ap_s=0.1),)
SHORT_STEP_SHA256 = "6158e39f68956b33752e2a89cf6f14be6652de9706f6496f6c046c2eada8ad64"
SHORT_STEP_EVENTS_SHA256 = "ccfd72afa9cc524c4b77a38a476ea78a46af351bd1e8a7ef98c9251199030713"
SHORT_STEP_CSV_SHA256 = "ddb68b91ff6f56b724a58e43f21e9f76893b234ff130b2c4555027a83e684ecc"


def _hashes(points, tmp_path):
    """Run every scheme on `points`, check each run is clean, and return
    (results, statistics hash, events hash, CSV hash)."""
    h = hashlib.sha256()
    events = hashlib.sha256()
    results = []
    rows = []
    for i, cfg in enumerate(points):
        for scheme in SCHEMES:
            result = run_replication(cfg, scheme, rep=0, record_events=True)
            head = (scheme, cfg.n_clients, cfg.n_videos, cfg.cache_capacity_bits,
                    cfg.backhaul_mbps)
            record = repr(head + tuple(getattr(result, f) for f in DIGEST_FIELDS))
            assert result.violations == [], record
            assert result.all_finished, record
            results.append(result)
            rows.append(_result_row(cfg, 0, result, "point", str(i)))
            h.update(record.encode())
            h.update(b"\n")
            for event in result.events:
                events.update(repr(event).encode())
    write_csv(rows, tmp_path / "matrix.csv")
    csv_sha = hashlib.sha256((tmp_path / "matrix.csv").read_bytes()).hexdigest()
    return results, h.hexdigest(), events.hexdigest(), csv_sha


def test_outputs_match_the_recorded_hash(monkeypatch, tmp_path):
    evictions = []
    insert = LruChunkCache.insert

    def counting_insert(self, *args):
        evicted = insert(self, *args)
        evictions.extend(evicted)
        return evicted

    monkeypatch.setattr(LruChunkCache, "insert", counting_insert)
    results, stats_sha, events_sha, csv_sha = _hashes(POINTS, tmp_path)
    assert evictions, "no point of the matrix evicted from the cache"
    # a rider's bits reach its client without crossing the backhaul again
    assert any(r.pipe_bits < r.backhaul_attributed_bits for r in results), \
        "no request rode a queued backhaul job"
    assert stats_sha == EXPECTED_SHA256
    assert events_sha == EVENTS_SHA256
    assert csv_sha == CSV_SHA256


def test_short_step_outputs_match_the_recorded_hash(tmp_path):
    _, stats_sha, events_sha, csv_sha = _hashes(SHORT_STEP, tmp_path)
    assert stats_sha == SHORT_STEP_SHA256
    assert events_sha == SHORT_STEP_EVENTS_SHA256
    assert csv_sha == SHORT_STEP_CSV_SHA256
