"""Adaptive client behavior: rate estimation, quality choice, request gating, playout."""
from __future__ import annotations

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgestream import client as client_module
from edgestream.catalog import QualityLadder
from edgestream.client import (
    RATE_WINDOW,
    ChunkRequest,
    DashClient,
    select_quality,
)
from reference_abr import reference_harmonic_mean_rate, reference_select_quality

LADDER = QualityLadder(
    bitrates_bps=(1e6, 2e6, 4e6, 8e6),
    chunk_duration_s=2.0,
    chunk_count=10,
)


def _estimate_after(deliveries) -> float | None:
    """The throughput estimate a fresh client picks its next quality from,
    after one delivery per (size in bits, seconds from issue), in order. The
    client stays before playout, so nothing drains and the poll issues."""
    c = DashClient(0, 0, QualityLadder(LADDER.bitrates_bps, 2.0, 100), b_max_s=40.0)
    t = 0.0
    for k, (size_bits, seconds) in enumerate(deliveries):
        c.in_flight[k] = ChunkRequest(0, 0, k, 0, t)
        t += seconds
        c.on_chunk_delivered(t, k, size_bits)
    seen = []

    def spy(estimate_bps, bitrates_bps):
        seen.append(estimate_bps)
        return select_quality(estimate_bps, bitrates_bps)

    with mock.patch.object(client_module, "select_quality", spy):
        assert c.maybe_issue_requests(t)
    assert len(seen) == 1  # one pick per poll
    return seen[0]


class TestRateEstimate:
    def test_cold_start_is_none(self):
        assert _estimate_after([]) is None

    def test_two_samples_frozen(self):
        assert _estimate_after([(2e6, 1.0), (5e6, 1.0)]) == 2857142.8571428573

    def test_single_sample_is_identity(self):
        assert _estimate_after([(3e6, 1.0)]) == 3e6

    def test_dominated_by_slow_samples(self):
        assert _estimate_after([(1e6, 1.0), (100e6, 1.0)]) < 2e6


class TestSelectQuality:
    def test_cold_start_floor(self):
        assert select_quality(None, LADDER.bitrates_bps) == 0

    def test_strictly_below(self):
        assert select_quality(2e6, LADDER.bitrates_bps) == 0   # tie is not below
        assert select_quality(2e6 + 1, LADDER.bitrates_bps) == 1
        assert select_quality(5e6, LADDER.bitrates_bps) == 2

    def test_top_level(self):
        assert select_quality(1e9, LADDER.bitrates_bps) == 3

    def test_below_ladder_floor(self):
        assert select_quality(1e3, LADDER.bitrates_bps) == 0


@st.composite
def _ladder_and_estimate(draw):
    ladder = tuple(sorted(draw(st.lists(st.floats(min_value=1e3, max_value=1e9),
                                        min_size=1, max_size=25, unique=True))))
    estimate = draw(st.one_of(
        st.none(),                                                # cold start
        st.sampled_from(ladder),                                  # a tie is not below
        st.sampled_from(ladder).map(lambda r: math.nextafter(r, math.inf)),
        st.floats(min_value=0.0, max_value=ladder[0]),            # at or below the floor
        st.floats(min_value=ladder[-1], allow_nan=False),         # at or above the top, inf too
        st.floats(min_value=ladder[0], max_value=ladder[-1]),
    ))
    return ladder, estimate


@settings(max_examples=300, deadline=None)
@given(_ladder_and_estimate())
def test_select_quality_matches_the_linear_scan(case):
    ladder, estimate = case
    assert select_quality(estimate, ladder) == reference_select_quality(estimate, ladder)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=1e3, max_value=1e10),
                          st.floats(min_value=1e-3, max_value=1e3)),
                max_size=3 * RATE_WINDOW))
def test_the_estimate_is_bitwise_the_reference_harmonic_mean(deliveries):
    # each raw sample is the chunk's size over the time from its issue
    raw, t = [], 0.0
    for size_bits, seconds in deliveries:
        raw.append(size_bits / ((t + seconds) - t))
        t += seconds
    got = _estimate_after(deliveries)
    want = reference_harmonic_mean_rate(raw[-RATE_WINDOW:])
    assert (got is None) == (want is None)
    if want is not None:
        assert got.hex() == want.hex()


def _client(**kw) -> DashClient:
    base = dict(client_id=0, video_id=0, ladder=LADDER, b_max_s=15.0)
    base.update(kw)
    return DashClient(**base)


class TestRequestGating:
    def test_prebuffer_burst_is_uncapped(self):
        c = _client()
        reqs = c.maybe_issue_requests(0.0)
        # buffer 0, in-flight media must reach b_max: ceil(15/2) = 8 chunks
        assert len(reqs) == 8
        assert [ChunkRequest(*r).chunk_index for r in reqs] == list(range(8))
        assert all(ChunkRequest(*r).quality_index == 0 for r in reqs)  # cold start

    def test_silent_before_start_time(self):
        c = _client(start_time_s=5.0)
        assert c.maybe_issue_requests(0.0) == []
        assert len(c.maybe_issue_requests(5.0)) == 8

    def test_no_new_requests_while_burst_outstanding(self):
        c = _client()
        c.maybe_issue_requests(0.0)
        assert c.maybe_issue_requests(0.5) == []

    def test_playout_starts_when_buffer_first_fills(self):
        c = _client(b_max_s=4.0)
        reqs = c.maybe_issue_requests(0.0)
        assert len(reqs) == 2
        c.on_chunk_delivered(1.0, 0, 2e6)
        assert not c.playout_started
        c.on_chunk_delivered(1.5, 1, 2e6)   # buffer 4 s = b_max_s
        assert c.playout_started
        assert c.startup_latency_s == 1.5

    def test_video_shorter_than_buffer_starts_once_fully_buffered(self):
        short = QualityLadder((1e6,), 2.0, 7)  # 14 s of media, b_max 15 s
        c = DashClient(0, 0, short, b_max_s=15.0)
        assert len(c.maybe_issue_requests(0.0)) == 7
        for k in range(7):
            c.on_chunk_delivered(1.0 + k, k, 2e6)
        assert c.playout_started
        assert c.startup_latency_s == 7.0
        c.advance_to(30.0)
        assert c.finished

    def test_rate_sample_uses_the_in_flight_issue_time(self):
        c = _client(start_time_s=1.0)
        assert ChunkRequest(*c.maybe_issue_requests(1.0)[0]).issue_time_s == 1.0
        c.on_chunk_delivered(1.5, 0, 2e6)
        assert list(c.inv_rates) == [1.0 / (2e6 / (1.5 - 1.0))]
        with pytest.raises(KeyError):
            c.on_chunk_delivered(2.0, 0, 2e6)   # already delivered
        with pytest.raises(KeyError):
            c.on_chunk_delivered(2.0, 9, 2e6)   # never issued

    def test_post_playout_in_flight_cap(self):
        c = _client(ladder=QualityLadder(LADDER.bitrates_bps, 2.0, 20))
        assert len(c.maybe_issue_requests(0.0)) == 8
        for k in range(8):
            c.on_chunk_delivered(1.0, k, 2e6)   # 16 s buffered: playout starts
        assert c.playout_started
        c.advance_to(16.5)                       # buffer 0.5 s: room for 7 chunks
        assert len(c.maybe_issue_requests(16.5)) == 3
        assert c.maybe_issue_requests(16.6) == []   # capped at 3 in flight

    def test_post_playout_needs_room_for_a_whole_chunk(self):
        c = _client(b_max_s=4.0)
        got = c.maybe_issue_requests(0.0)
        assert len(got) == 2
        c.on_chunk_delivered(0.5, 0, 2e6)   # buffer 2.0, still filling
        c.on_chunk_delivered(0.6, 1, 2e6)   # buffer 4.0 -> playing
        # 3.9 + 2 > 4: no room for another chunk yet
        assert c.maybe_issue_requests(0.7) == []
        c.advance_to(2.8)                    # buffer drains to ~1.8
        reqs = c.maybe_issue_requests(2.8)
        assert len(reqs) == 1
        assert ChunkRequest(*reqs[0]).chunk_index == 2

    def test_requests_are_plain_tuples_in_field_order(self):
        c = _client(client_id=3, video_id=7, b_max_s=4.0)
        burst = c.maybe_issue_requests(0.0)
        c.on_chunk_delivered(0.4, 0, 2e6)
        c.on_chunk_delivered(0.5, 1, 2e6)
        c.advance_to(2.5)
        later = c.maybe_issue_requests(2.5)
        assert all(type(r) is tuple for r in burst + later)
        assert ChunkRequest._fields == (
            "client_id", "video_id", "chunk_index", "quality_index", "issue_time_s")
        assert burst + later == [(3, 7, 0, 0, 0.0), (3, 7, 1, 0, 0.0), (3, 7, 2, 2, 2.5)]

    def test_rate_samples_drive_quality_up(self):
        c = _client(b_max_s=4.0)
        c.maybe_issue_requests(0.0)
        c.on_chunk_delivered(0.4, 0, 2e6)   # 5 Mbps sample
        c.on_chunk_delivered(0.5, 1, 2e6)   # 4 Mbps sample, playing
        c.advance_to(2.5)                    # drain room for one chunk
        reqs = c.maybe_issue_requests(2.5)
        # harmonic(5e6, 4e6) = 4.44 Mbps -> highest level strictly below
        assert [ChunkRequest(*r).quality_index for r in reqs] == [2]


def _burst(c: DashClient) -> DashClient:
    c.maybe_issue_requests(0.0)
    return c


def _at_in_flight_cap(c: DashClient) -> DashClient:
    c.maybe_issue_requests(0.0)
    for k in range(8):
        c.on_chunk_delivered(1.0, k, 2e6)
    c.advance_to(16.5)
    assert len(c.maybe_issue_requests(16.5)) == 3
    return c


def _without_room(c: DashClient) -> DashClient:
    c.maybe_issue_requests(0.0)
    c.on_chunk_delivered(0.5, 0, 2e6)
    c.on_chunk_delivered(0.6, 1, 2e6)
    return c


def _finished(c: DashClient) -> DashClient:
    c.maybe_issue_requests(0.0)
    c.on_chunk_delivered(0.5, 0, 2e6)
    c.advance_to(3.0)
    assert c.finished
    return c


# (client arguments, how it is brought to the blocked state, poll time)
_BLOCKED = {
    "before its start": (dict(start_time_s=5.0), lambda c: c, 1.0),
    "burst outstanding": ({}, _burst, 0.5),
    "in-flight cap": (dict(ladder=QualityLadder(LADDER.bitrates_bps, 2.0, 20)),
                      _at_in_flight_cap, 16.6),
    "no room for a chunk": (dict(b_max_s=4.0), _without_room, 0.7),
    "every chunk requested": (dict(ladder=QualityLadder((1e6,), 2.0, 7)), _burst, 0.5),
    "finished": (dict(ladder=QualityLadder((1e6,), 2.0, 1)), _finished, 3.5),
}


@pytest.mark.parametrize("why", _BLOCKED)
def test_a_blocked_poll_only_advances_the_client(why):
    kw, bring, t = _BLOCKED[why]
    polled, twin = bring(_client(**kw)), bring(_client(**kw))
    got = polled.maybe_issue_requests(t)
    assert got == []
    assert polled.maybe_issue_requests(t) is not got   # a new list every call
    twin.advance_to(t)
    # next_poll_s is the only field a blocked poll sets beyond the advance
    assert ({k: v for k, v in vars(polled).items() if k != "next_poll_s"}
            == {k: v for k, v in vars(twin).items() if k != "next_poll_s"})


@pytest.mark.parametrize("why", _BLOCKED)
def test_no_poll_issues_before_next_poll_s(why):
    kw, bring, t = _BLOCKED[why]
    c = bring(_client(**kw))
    assert c.maybe_issue_requests(t) == []
    assert c.next_poll_s > t
    opens = math.isfinite(c.next_poll_s)  # inf: only a delivery can open it
    for k in range(1, 200):  # plain polls on 0.1 s boundaries, no delivery
        boundary = t + 0.1 * k
        blocked_until = c.next_poll_s
        issued = c.maybe_issue_requests(boundary)
        if boundary < blocked_until:
            assert issued == [], (boundary, blocked_until)
        if issued:
            break
    assert bool(issued) == opens


class TestPlayout:
    def test_stall_accrues_only_after_playout_start(self):
        c = _client(b_max_s=2.0)
        c.maybe_issue_requests(0.0)
        c.advance_to(3.0)
        assert c.stall_time_s == 0.0        # still pre-buffering
        c.on_chunk_delivered(3.0, 0, 2e6)
        c.advance_to(7.0)                   # 2 s of media, 4 s of wall clock
        assert c.buffer_s == 0.0
        assert c.stall_time_s == pytest.approx(2.0)
        assert c.stall_ratio(7.0) == pytest.approx(2.0 / 7.0)

    def test_finish_is_detected_and_timed(self):
        short = QualityLadder((1e6,), 2.0, 2)  # 4 s of media
        c = DashClient(0, 0, short, b_max_s=15.0)
        c.maybe_issue_requests(0.0)
        c.on_chunk_delivered(1.0, 0, 2e6)
        c.on_chunk_delivered(1.5, 1, 2e6)   # all 4 s buffered: playout starts
        c.advance_to(10.0)
        assert c.finished
        # 4 s of media played from 1.5 s on
        assert c.finish_time_s == pytest.approx(5.5)
        # no stall is charged past the finish
        assert c.stall_time_s == 0.0
        assert c.stall_ratio(10.0) == 0.0
        assert c.session_time_s(10.0) == pytest.approx(5.5)

    def test_no_requests_after_finish(self):
        short = QualityLadder((1e6,), 2.0, 1)
        c = DashClient(0, 0, short, b_max_s=15.0)
        c.maybe_issue_requests(0.0)
        c.on_chunk_delivered(0.5, 0, 2e6)
        c.advance_to(3.0)
        assert c.finished
        assert c.maybe_issue_requests(3.0) == []

    def test_negative_start_time_rejected(self):
        with pytest.raises(ValueError):
            _client(start_time_s=-1.0)

    def test_delivery_during_stall_resumes_playback(self):
        c = _client(b_max_s=2.0)
        c.maybe_issue_requests(0.0)
        c.on_chunk_delivered(1.0, 0, 2e6)
        c.advance_to(4.0)  # drains 2 s of media, stalls 1 s
        assert c.stall_time_s == pytest.approx(1.0)
        assert [ChunkRequest(*r).chunk_index for r in c.maybe_issue_requests(4.0)] == [1]
        c.on_chunk_delivered(4.0, 1, 2e6)
        c.advance_to(5.0)
        assert c.stall_time_s == pytest.approx(1.0)  # no new stall while playing
        assert c.played_s == pytest.approx(3.0)
