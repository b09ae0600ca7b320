"""DASH client model: rate-based adaptation, request gating, playout, stalls.

The client estimates throughput as the harmonic mean of its last five
per-chunk download rates and requests the highest bitrate strictly below the
estimate (lowest level on a cold start). Before playout it bursts requests
back to back, uncapped, until the buffer plus in-flight media reaches
capacity; playout begins once the buffer first fills (or holds the whole of
a video shorter than the buffer), after which at most three requests may be
outstanding and only while the buffer has room for another whole chunk. A client is silent before its session start time;
startup latency and session time are measured from that start.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import NamedTuple

from .catalog import QualityLadder
from .fold import left_sum

_EPS = 1e-9
MAX_IN_FLIGHT = 3  # outstanding requests allowed once playout has started
RATE_WINDOW = 5    # per-chunk rate samples in the harmonic mean


class ChunkRequest(NamedTuple):
    client_id: int
    video_id: int
    chunk_index: int
    quality_index: int
    issue_time_s: float


def harmonic_mean_rate(samples) -> float | None:
    """n over the sum of reciprocals; None signals a cold start. `samples`
    is a sized collection (the client's deque), read in place."""
    if not samples:
        return None
    return len(samples) / left_sum(1.0 / x for x in samples)


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
        self.rates = deque(maxlen=RATE_WINDOW)
        self.start_time_s = start_time_s

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
        duration = t - self.in_flight.pop(chunk_index).issue_time_s
        self.buffer_s += self.ladder.chunk_duration_s
        if duration > 0:
            self.rates.append(size_bits / duration)
        # a video shorter than the buffer starts once all of it is buffered
        if (not self.playout_started
                and self.buffer_s >= min(self.b_max_s, self.total_media_s) - _EPS):
            self.playout_started = True
            self.startup_latency_s = t - self.start_time_s

    def maybe_issue_requests(self, t: float) -> list[ChunkRequest]:
        """All requests the gating rules allow at time t, in chunk order."""
        self.advance_to(t)
        if t < self.start_time_s - _EPS:
            return []
        issued = None  # made at the first request: a blocked poll builds nothing
        tau = self.ladder.chunk_duration_s
        while self.next_chunk < self.ladder.chunk_count and not self.finished:
            n_out = len(self.in_flight)
            if self.playout_started:
                if n_out >= MAX_IN_FLIGHT:
                    break
                if self.buffer_s + tau * (n_out + 1) > self.b_max_s + _EPS:
                    break
            else:
                if self.buffer_s + tau * n_out >= self.b_max_s - _EPS:
                    break
            if issued is None:  # one pick per call: no rate sample arrives within it
                issued = []
                quality = select_quality(harmonic_mean_rate(self.rates), self.ladder.bitrates_bps)
            req = ChunkRequest(self.client_id, self.video_id, self.next_chunk, quality, t)
            self.in_flight[self.next_chunk] = req
            self.next_chunk += 1
            issued.append(req)
        return [] if issued is None else issued

    def session_time_s(self, now: float) -> float:
        end = self.finish_time_s if self.finished else now
        return max(end - self.start_time_s, 0.0)

    def stall_ratio(self, now: float) -> float:
        session = self.session_time_s(now)
        if session <= 0:
            return 0.0
        return self.stall_time_s / session
