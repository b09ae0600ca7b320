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


def _records():
    for i, cfg in enumerate(POINTS):
        for scheme in SCHEMES:
            result = run_replication(cfg, scheme, rep=0, record_events=True)
            head = (scheme, cfg.n_clients, cfg.n_videos, cfg.cache_capacity_bits,
                    cfg.backhaul_mbps)
            row = _result_row(cfg, 0, result, "point", str(i))
            yield result, row, repr(head + tuple(getattr(result, f) for f in DIGEST_FIELDS))


def test_outputs_match_the_recorded_hash(monkeypatch, tmp_path):
    evictions = []
    insert = LruChunkCache.insert

    def counting_insert(self, *args):
        evicted = insert(self, *args)
        evictions.extend(evicted)
        return evicted

    monkeypatch.setattr(LruChunkCache, "insert", counting_insert)
    h = hashlib.sha256()
    events = hashlib.sha256()
    rode = False
    rows = []
    for result, row, record in _records():
        rows.append(row)
        assert result.violations == [], record
        assert result.all_finished, record
        # a rider's bits reach its client without crossing the backhaul again
        rode |= result.pipe_bits < result.backhaul_attributed_bits
        h.update(record.encode())
        h.update(b"\n")
        for event in result.events:
            events.update(repr(event).encode())
    assert evictions, "no point of the matrix evicted from the cache"
    assert rode, "no request rode a queued backhaul job"
    assert h.hexdigest() == EXPECTED_SHA256
    assert events.hexdigest() == EVENTS_SHA256
    write_csv(rows, tmp_path / "matrix.csv")
    assert hashlib.sha256((tmp_path / "matrix.csv").read_bytes()).hexdigest() == CSV_SHA256
