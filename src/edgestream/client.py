"""DASH client model: rate-based adaptation, request gating, playout, stalls.

The client estimates throughput as the harmonic mean of its last five
per-chunk download rates and requests the highest bitrate strictly below the
estimate (lowest level on a cold start). Before playout it bursts requests
back to back, uncapped, until the buffer plus in-flight media reaches
capacity; playout begins once the buffer first fills (or holds the whole of
a video shorter than the buffer), after which at most three requests may be
outstanding and only while the buffer has room for another whole chunk. A client is silent before its session start time;
startup latency and session time are measured from that start.

The rate window holds each sample's reciprocal, so a pick is one sum. Each
poll also records `next_poll_s`, the earliest time its gate can open unless
a delivery comes first; the engine only advances a client before then. A
request is a plain tuple in ChunkRequest's field order, read by position
from issue to delivery.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from typing import NamedTuple

from .catalog import QualityLadder
from .fold import left_sum

_EPS = 1e-9
MAX_IN_FLIGHT = 3  # outstanding requests allowed once playout has started
RATE_WINDOW = 5    # per-chunk rate samples in the harmonic mean
POLL_MARGIN_S = 1e-6  # next_poll_s's rounding margin (maybe_issue_requests)


class ChunkRequest(NamedTuple):
    """One issued chunk request; the client builds plain tuples in this
    field order, and the engine reads them by position."""
    client_id: int
    video_id: int
    chunk_index: int
    quality_index: int
    issue_time_s: float


def select_quality(estimate_bps: float | None, bitrates_bps) -> int:
    """Highest level strictly below the estimate; floor on cold start.
    `bitrates_bps` is strictly ascending (QualityLadder checks it), so the
    levels below the estimate are a prefix of it."""
    if estimate_bps is None:
        return 0
    below = bisect_left(bitrates_bps, estimate_bps)
    return below - 1 if below else 0


class DashClient:
    def __init__(
        self,
        client_id: int,
        video_id: int,
        ladder: QualityLadder,
        b_max_s: float,
        start_time_s: float = 0.0,
    ):
        if not start_time_s >= 0:
            raise ValueError("start_time_s must be >= 0")
        self.client_id = client_id
        self.video_id = video_id
        self.ladder = ladder
        self.b_max_s = b_max_s
        self.total_media_s = ladder.chunk_count * ladder.chunk_duration_s
        self.inv_rates = deque(maxlen=RATE_WINDOW)  # 1 / rate of the last samples
        self.start_time_s = start_time_s
        self.next_poll_s = -math.inf  # not polled yet

        self.buffer_s = 0.0
        self.next_chunk = 0
        self.in_flight: dict[int, ChunkRequest] = {}
        self.playout_started = False
        self.startup_latency_s: float | None = None
        self.played_s = 0.0
        self.stall_time_s = 0.0
        self.finished = False
        self.finish_time_s: float | None = None
        self.last_time_s = 0.0

    def advance_to(self, t: float) -> None:
        """Consume buffer up to time t; idle time with an empty buffer
        after playout start counts as stalling."""
        dt = t - self.last_time_s
        if dt <= 0:
            return
        self.last_time_s = t
        if not self.playout_started or self.finished:
            return
        # min(buffer, dt, media left), with min()'s tie and order rules
        playable = self.buffer_s
        if dt < playable:
            playable = dt
        left = self.total_media_s - self.played_s
        if left < playable:
            playable = left
        self.buffer_s -= playable
        self.played_s += playable
        if self.played_s >= self.total_media_s - _EPS:
            self.finished = True
            self.finish_time_s = t - (dt - playable)
            return
        self.stall_time_s += dt - playable

    def on_chunk_delivered(self, t: float, chunk_index: int, size_bits: float) -> None:
        """Buffer the in-flight chunk and sample its download rate; a chunk
        that is not in flight raises KeyError."""
        self.advance_to(t)
        duration = t - self.in_flight.pop(chunk_index)[4]  # issue_time_s
        self.buffer_s += self.ladder.chunk_duration_s
        if duration > 0:
            self.inv_rates.append(1.0 / (size_bits / duration))
        # a video shorter than the buffer starts once all of it is buffered
        if (not self.playout_started
                and self.buffer_s >= min(self.b_max_s, self.total_media_s) - _EPS):
            self.playout_started = True
            self.startup_latency_s = t - self.start_time_s

    def maybe_issue_requests(self, t: float) -> list[ChunkRequest]:
        """All requests the gating rules allow at time t, in chunk order, each
        a plain tuple in ChunkRequest's field order.

        Sets `next_poll_s`, the earliest time a poll can issue unless a
        delivery comes first: the gate's own start comparison before the
        start; inf when only a delivery can open the gate (in-flight cap,
        every chunk requested, finished, before playout); for a playing
        client the room test blocks, t plus the buffer's excess over the
        test less POLL_MARGIN_S, as playout drains at most dt in dt. The
        margin covers rounding: each boundary step is subtracted exactly
        after the first interval (Sterbenz), so the buffer lags the clock by
        half an ulp of buffer_s per boundary (< 1e-14 s under 64 s), plus a
        few ulps of the clock (< 1e-9 s before 1e6 s); 1e-6 s covers 1e7
        boundaries.
        """
        self.advance_to(t)
        if t < self.start_time_s - _EPS:
            self.next_poll_s = self.start_time_s - _EPS
            return []
        next_poll_s = math.inf
        issued = None  # made at the first request: a blocked poll builds nothing
        tau = self.ladder.chunk_duration_s
        while self.next_chunk < self.ladder.chunk_count and not self.finished:
            n_out = len(self.in_flight)
            if self.playout_started:
                if n_out >= MAX_IN_FLIGHT:
                    break
                # room for one more chunk; a float difference is > 0 exactly
                # when the first operand is the larger
                excess = self.buffer_s + tau * (n_out + 1) - (self.b_max_s + _EPS)
                if excess > 0:
                    next_poll_s = t + excess - POLL_MARGIN_S
                    break
            else:
                if self.buffer_s + tau * n_out >= self.b_max_s - _EPS:
                    break
            if issued is None:  # one pick per call: no rate sample arrives within it
                issued = []
                inv = self.inv_rates
                quality = select_quality(len(inv) / left_sum(inv) if inv else None,
                                         self.ladder.bitrates_bps)
            req = (self.client_id, self.video_id, self.next_chunk, quality, t)
            self.in_flight[self.next_chunk] = req
            self.next_chunk += 1
            issued.append(req)
        self.next_poll_s = next_poll_s
        return [] if issued is None else issued

    def session_time_s(self, now: float) -> float:
        end = self.finish_time_s if self.finished else now
        return max(end - self.start_time_s, 0.0)

    def stall_ratio(self, now: float) -> float:
        session = self.session_time_s(now)
        if session <= 0:
            return 0.0
        return self.stall_time_s / session
