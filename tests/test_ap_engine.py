"""End-to-end engine behavior per scheme: invariants, determinism, cache discipline."""
from __future__ import annotations

import dataclasses
from collections import deque
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgestream import ap_engine
from edgestream.ap_engine import _EPS, SCHEMES, ApEngine, DlItem
from edgestream.assign_core import QualityRequest
from edgestream.cache import LruChunkCache
from edgestream.catalog import make_synthetic_catalog
from edgestream.cli_metrics import ScenarioConfig, run_replication
from edgestream.client import ChunkRequest
from reference_engine import ReferenceEngine
from reference_lru import keys_by_recency


def _params(ladder, backhaul_bps=1e7, **kw):
    """ScenarioConfig(**kw)'s solver parameters on `ladder` and `backhaul_bps`."""
    return dataclasses.replace(ScenarioConfig(**kw).solver_params(), ladder=ladder,
                               backhaul_bps=backhaul_bps)


def _tiny_engine(scheme, *, cache=None, n_clients=3, backhaul_bps=8e6,
                 gamma=2, chunk_count=12, max_time_s=None):
    ladder = make_synthetic_catalog(
        levels=3, min_bps=2e5, max_bps=2e6, chunk_duration_s=2.0, chunk_count=chunk_count)
    return ApEngine(
        scheme=scheme,
        stations=[(i % 2, 0.0, 2e7) for i in range(n_clients)],
        cache=cache if cache is not None else LruChunkCache(),
        t_ap_s=0.5,
        params=_params(ladder, backhaul_bps, gamma=gamma),
        record_events=True,
        max_time_s=max_time_s,
    )


def _prewarmed_cache(catalog_levels=(0,), videos=(0, 1), chunks=12):
    ladder = make_synthetic_catalog(3, 2e5, 2e6, 2.0, chunks)
    cache = LruChunkCache()
    for v in videos:
        for k in range(chunks):
            for m in catalog_levels:
                cache.insert(v, k, m, ladder.bitrates_bps[m] * ladder.chunk_duration_s)
    return cache


@pytest.mark.parametrize("scheme", SCHEMES)
def test_small_run_finishes_clean(scheme):
    res = _tiny_engine(scheme).run()
    assert res.violations == []
    assert res.all_finished
    assert res.delivered_chunks == 3 * 12
    assert res.delivered_bits > 0
    assert res.mean_bitrate_kbps > 0


@pytest.mark.parametrize("scheme", SCHEMES)
def test_same_inputs_same_run(scheme):
    a = _tiny_engine(scheme).run()
    b = _tiny_engine(scheme).run()
    assert a.delivered_bits == b.delivered_bits
    assert a.bitrate_sum_bps == b.bitrate_sum_bps
    assert a.t_end_s == b.t_end_s
    assert a.stall_ratios == b.stall_ratios
    assert a.events == b.events


def test_bit_conservation_across_sources():
    res = _tiny_engine("CPH", cache=_prewarmed_cache()).run()
    assert res.violations == []
    assert res.cache_bits + res.backhaul_attributed_bits == \
        pytest.approx(res.delivered_bits, rel=1e-9)
    assert res.cache_bits > 0  # the prewarmed entries were actually used


def test_client_scheme_ignores_cache_entirely():
    cache = _prewarmed_cache()
    before = keys_by_recency(cache)
    res = _tiny_engine("CLIENT", cache=cache).run()
    assert res.violations == []
    assert res.cache_bits == 0.0
    assert res.cache_bit_hit_ratio == 0.0
    assert all(not e.from_cache for e in res.events)
    # neither read nor written: no entry moves and no download is admitted
    assert keys_by_recency(cache) == before
    cold = LruChunkCache()
    assert _tiny_engine("CLIENT", cache=cold).run().all_finished
    assert keys_by_recency(cold) == []


def test_client_cache_serves_hits_without_rewriting():
    res = _tiny_engine("CLIENT-CACHE", cache=_prewarmed_cache()).run()
    assert res.violations == []
    assert all(e.delivered_quality == e.requested_quality for e in res.events)
    assert any(e.from_cache for e in res.events)
    assert res.cache_bits > 0


def test_client_schemes_never_rewrite_quality():
    for scheme in ("CLIENT", "CLIENT-CACHE"):
        res = _tiny_engine(scheme).run()
        assert all(e.delivered_quality == e.requested_quality for e in res.events)


@pytest.mark.parametrize("scheme", ["CLIENT", "CLIENT-CACHE"])
def test_passthrough_schemes_build_no_solver_requests(scheme, monkeypatch):
    def refuse(self, n1):
        raise AssertionError("passthrough scheme built solver requests")

    monkeypatch.setattr(ApEngine, "_build_requests", refuse)
    res = _tiny_engine(scheme, cache=_prewarmed_cache()).run()
    assert res.violations == []
    assert res.all_finished
    assert res.delivered_chunks == 3 * 12


@pytest.mark.parametrize("scheme", ["CPH", "BUFF"])
def test_solver_requests_are_plain_tuples_in_field_order(scheme, monkeypatch):
    seen = []
    name = ap_engine.POLICIES[scheme].solver
    solve = getattr(ap_engine, name)

    def recorded(requests, *args):
        seen.extend(requests)
        return solve(requests, *args)

    monkeypatch.setattr(ap_engine, name, recorded)
    res = _tiny_engine(scheme).run()
    assert res.violations == []
    assert len(seen) == res.delivered_chunks == 3 * 12
    assert all(type(r) is tuple and len(r) == len(QualityRequest._fields) for r in seen)
    named = [QualityRequest(*r) for r in seen]
    assert all(0 <= r.client_id < 3 and r.video_id == r.client_id % 2 for r in named)
    # an equal share of the 2e7 link among 3 clients, as the engine computes it
    assert all(r.effective_rate_bps == 2e7 * (1.0 / 3) and r.buffer_s >= 0 for r in named)


@pytest.mark.parametrize("scheme", ["CPH", "CPH-EQ", "BUFF"])
def test_rewrites_stay_within_tolerance(scheme):
    res = _tiny_engine(scheme, cache=_prewarmed_cache(catalog_levels=(2,)),
                       gamma=2).run()
    assert res.violations == []
    assert all(abs(e.delivered_quality - e.requested_quality) <= 2
               for e in res.events)
    # the cached top level pulls at least one delivery upward
    assert any(e.delivered_quality > e.requested_quality for e in res.events)


@pytest.mark.parametrize("scheme", ["CPH", "CPH-EQ"])
def test_an_interval_without_a_busy_queue_calls_no_allocator(scheme, monkeypatch):
    # a cold cache sends the first interval's requests to the backhaul, so no
    # downlink queue is busy while airtime is split; the chunks the backhaul
    # finishes wait in their queues for the next interval's split
    def refuse(*args):
        raise AssertionError("an airtime allocator was called with no busy queue")

    monkeypatch.setattr(ap_engine, "allocate_airtime", refuse)
    monkeypatch.setattr(ap_engine, "equal_airtime", refuse)
    engine = _tiny_engine(scheme)
    assert engine._allocate() == []
    engine.step_rai()
    assert any(engine.dl_queues)
    assert engine.result.violations == []


# a segment of length 0, at or below _EPS, or normal
_SEGMENT_S = st.one_of(st.sampled_from([0.0, _EPS / 2, _EPS, 2 * _EPS]),
                       st.floats(min_value=1e-6, max_value=5.0))
# one served queue: its drain rate, where its head finishes relative to t1
# (None: wherever its drawn bits take it), and the bits of its 0-3 items
_SERVED_QUEUE = st.tuples(
    st.floats(min_value=1e3, max_value=1e9),
    st.one_of(st.none(), st.sampled_from([-_EPS, 0.0, _EPS]),
              st.floats(min_value=-2 * _EPS, max_value=2 * _EPS)),
    st.lists(st.floats(min_value=1e3, max_value=1e8), max_size=3),
)


@settings(max_examples=400, deadline=None)
@given(st.floats(min_value=0.0, max_value=1e3), _SEGMENT_S,
       st.lists(_SERVED_QUEUE, max_size=6))
@example(t0=10.0, segment_s=0.5, raw=[(1e6, _EPS, [1e6, 1e6]), (1e6, -_EPS, [1e6, 1e3]),
                                      (2e6, None, [])])
def test_serve_segment_matches_the_reference_drain(t0, segment_s, raw):
    # the fast paths leave every queue and every head's remaining bits as the
    # reference engine's general loop leaves them, bit for bit, and deliver in
    # the same order
    t1 = t0 + segment_s

    def served():
        out, tag = [], 0
        for i, (rate, head_past_t1, sizes) in enumerate(raw):
            q = deque()
            for k, bits in enumerate(sizes):
                remaining = bits
                if k == 0 and head_past_t1 is not None:
                    remaining = max((t1 + head_past_t1 - t0) * rate, 1.0)
                q.append(DlItem(None, tag, bits, remaining, False, 0.0, 0.0))
                tag += 1
            out.append((2 * i, rate, q))
        return out

    def drained_by(engine_class):
        queues, log = served(), []
        stub = SimpleNamespace(
            _deliver=lambda t, cid, item: log.append((t.hex(), cid, item.quality_index)))
        engine_class._serve_segment(stub, t0, t1, queues)
        left = [[(item.quality_index, item.remaining_bits.hex()) for item in q]
                for _, _, q in queues]
        return left, log

    assert drained_by(ApEngine) == drained_by(ReferenceEngine)


def test_solver_is_actually_consulted():
    res = _tiny_engine("CPH").run()
    assert res.solver_calls > 0
    assert res.no_valid_config_fraction <= 1.0


def test_events_are_time_ordered_and_complete():
    res = _tiny_engine("BUFF").run()
    times = [e.time_s for e in res.events]
    assert times == sorted(times)
    assert len(res.events) == res.delivered_chunks
    per_client = {}
    for e in res.events:
        per_client.setdefault(e.client_id, []).append(e.chunk_index)
    for chunks in per_client.values():
        assert sorted(chunks) == list(range(12))


def test_time_budget_cuts_the_run_short():
    res = _tiny_engine("CPH", max_time_s=1.0).run()
    assert not res.all_finished
    assert res.t_end_s <= 1.0 + 0.5


def test_clients_finishing_out_of_index_order_end_the_run_on_time():
    # client 0 starts 6 s late, so client 1 finishes first; the run must stop
    # in the interval where the last client finishes, as a check of every
    # client before each interval would
    ladder = make_synthetic_catalog(2, 2e5, 2e6, 2.0, 6)

    def engine():
        return ApEngine("CLIENT", [(0, 6.0, 2e7), (1, 0.0, 2e7)], LruChunkCache(), 0.5,
                        _params(ladder))

    twin = engine()
    while twin.now < twin.max_time_s and not all(c.finished for c in twin.clients):
        twin.step_rai()
    res = engine().run()
    assert twin.clients[1].finish_time_s < twin.clients[0].finish_time_s
    assert res.all_finished
    assert res.t_end_s == twin.now
    assert res.violations == []


def test_constructor_validation():
    with pytest.raises(ValueError):
        _tiny_engine("NOT-A-SCHEME")
    ladder = make_synthetic_catalog(2, 2e5, 2e6, 2.0, 4)
    for t_ap_s in (0.0, float("nan")):  # a NaN step would end the run at t = nan
        with pytest.raises(ValueError, match="t_ap_s must be > 0"):
            ApEngine("CPH", [(0, 0.0, 1e7)], LruChunkCache(), t_ap_s, _params(ladder))


@pytest.mark.parametrize("capacity_bps", [0.0, -1.0, float("nan")])
def test_a_station_without_link_capacity_is_rejected(capacity_bps):
    # a NaN capacity used to run to max_time_s unfinished with no violation
    ladder = make_synthetic_catalog(2, 2e5, 2e6, 2.0, 4)
    stations = [(0, 0.0, 1e7), (0, 0.0, capacity_bps)]
    with pytest.raises(ValueError, match="client 1: link capacity must be > 0"):
        ApEngine("CLIENT", stations, LruChunkCache(), 0.5, _params(ladder))


def test_clients_are_built_from_stations_and_params():
    ladder = make_synthetic_catalog(2, 2e5, 2e6, 2.0, 4)
    params = _params(ladder, b_max_s=8.0)
    engine = ApEngine("CLIENT", [(1, 0.0, 2e7), (0, 3.5, 1e7)], LruChunkCache(), 0.5, params)
    assert [(c.client_id, c.video_id, c.start_time_s) for c in engine.clients] == \
        [(0, 1, 0.0), (1, 0, 3.5)]
    assert all(c.ladder is params.ladder and c.b_max_s == 8.0 for c in engine.clients)
    assert engine.capacity == [2e7, 1e7]


def test_zero_backhaul_with_cold_cache_delivers_nothing():
    res = _tiny_engine("CLIENT", backhaul_bps=0.0, max_time_s=30.0).run()
    assert res.delivered_chunks == 0
    assert not res.all_finished


def test_zero_backhaul_with_full_cache_still_plays():
    cache = _prewarmed_cache(catalog_levels=(0, 1, 2))
    res = _tiny_engine("CLIENT-CACHE", cache=cache, backhaul_bps=0.0).run()
    assert res.all_finished
    assert res.violations == []
    assert res.backhaul_attributed_bits == 0.0
    assert res.cache_bits == pytest.approx(res.delivered_bits)


def test_full_replication_pipeline_all_schemes():
    cfg = dataclasses.replace(
        ScenarioConfig(), n_clients=3, n_videos=3, chunk_count=20, reps=1)
    for scheme in SCHEMES:
        res = run_replication(cfg, scheme, rep=0)
        assert res.violations == []
        assert res.all_finished
        assert res.delivered_chunks == 3 * 20


def test_late_requester_rides_the_queued_backhaul_job():
    # 4e5-bit chunks on a 1e5 bps backhaul take 4 s each, so the job client 0
    # queues at t=0 is still waiting when client 1 asks for the same chunk at
    # t=0.5; both burst the whole 8 s video to fill their 8 s buffers
    ladder = make_synthetic_catalog(2, 2e5, 2e6, 2.0, 4)
    engine = ApEngine("CLIENT", [(0, 0.0, 2e7), (0, 0.5, 2e7)], LruChunkCache(), 0.5,
                      _params(ladder, 1e5, b_max_s=8.0), record_events=True)
    engine.step_rai()
    engine.step_rai()
    assert [(key, [ChunkRequest(*w).client_id for w in j.waiters])
            for key, j in engine.fifo.items()] == \
        [((0, k, 0), [0, 1]) for k in range(4)]
    res = engine.run()
    assert res.violations == []
    assert res.all_finished
    chunk_bits = 4 * ladder.bitrates_bps[0] * ladder.chunk_duration_s
    assert res.pipe_bits == pytest.approx(chunk_bits)
    assert res.backhaul_attributed_bits == pytest.approx(2 * chunk_bits)
    assert not engine.fifo


def test_same_interval_requesters_share_one_backhaul_job():
    # both clients ask for every chunk in the first interval, so the second
    # request for a chunk finds the job the first one queued moments before
    ladder = make_synthetic_catalog(2, 2e5, 2e6, 2.0, 4)
    engine = ApEngine("CLIENT", [(0, 0.0, 2e7), (0, 0.0, 2e7)], LruChunkCache(), 0.5,
                      _params(ladder, 1e5, b_max_s=8.0))
    engine.step_rai()
    assert engine.fifo
    assert all([ChunkRequest(*w).client_id for w in j.waiters] == [0, 1]
               for j in engine.fifo.values())
    res = engine.run()
    assert res.violations == []
    chunk_bits = 4 * ladder.bitrates_bps[0] * ladder.chunk_duration_s
    assert res.pipe_bits == pytest.approx(chunk_bits)
    assert res.backhaul_attributed_bits == pytest.approx(2 * chunk_bits)
    assert not engine.fifo


def test_request_gates_are_evaluated_only_when_they_can_open(monkeypatch):
    # a client is polled only once its next_poll_s has come or after a
    # delivery; polling every client every interval would make at least
    # clients x intervals calls
    counts = {"polls": 0, "intervals": 0}
    poll, step = ap_engine.DashClient.maybe_issue_requests, ApEngine.step_rai

    def counted_poll(self, t):
        counts["polls"] += 1
        return poll(self, t)

    def counted_step(self):
        counts["intervals"] += 1
        step(self)

    monkeypatch.setattr(ap_engine.DashClient, "maybe_issue_requests", counted_poll)
    monkeypatch.setattr(ApEngine, "step_rai", counted_step)
    cfg = dataclasses.replace(ScenarioConfig(), n_clients=10, chunk_count=30,
                              schemes=("CLIENT",), reps=1)
    res = run_replication(cfg, "CLIENT", 0)
    assert res.all_finished and res.violations == []
    assert counts["polls"] < 10 * counts["intervals"] / 2, counts
