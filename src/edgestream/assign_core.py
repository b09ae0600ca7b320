"""Shared quality-assignment primitives.

Both solvers consume the same per-request context (QualityRequest), the same
tolerated-quality window, the same delivery-cost rule and the same utility
function, so their outputs are comparable candidate by candidate. The run's
one quality ladder is a SolverParams field, so a level is the same bitrate
for every request of a call and equal picks of one chunk are one download.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .buffer_airtime import estimate_buffer
from .cache import LruChunkCache
from .catalog import QualityLadder

BITRATE_UNIT_BPS = 1e3  # log() argument unit for utility values


@dataclass(frozen=True)
class SolverParams:
    gamma: int
    mu_c: float
    b_min_s: float
    b_max_s: float
    ladder: QualityLadder  # every requester's, so a level means one bitrate
    backhaul_bps: float    # the AP's backhaul rate

    def __post_init__(self):
        if not self.gamma >= 0:
            raise ValueError("gamma must be >= 0")
        if not self.mu_c >= 1.0:
            raise ValueError("mu_c must be >= 1")
        if not (0 < self.b_min_s < self.b_max_s):
            raise ValueError("need 0 < b_min_s < b_max_s")
        # a client requests a chunk only once the buffer has room for all of it
        if not self.ladder.chunk_duration_s <= self.b_max_s:
            raise ValueError(f"chunk_duration_s {self.ladder.chunk_duration_s!r} exceeds "
                             f"b_max_s {self.b_max_s!r}: no second chunk would fit the buffer")
        if not self.backhaul_bps >= 0:
            raise ValueError("backhaul_bps must be >= 0")


class QualityRequest(NamedTuple):
    """One pending chunk request plus the state needed to score candidates.

    Snapshot semantics: buffer, queue and backlog fields describe the state
    at the allocation instant; the solver treats them as immutable.
    """
    client_id: int
    video_id: int
    chunk_index: int
    requested_quality: int
    buffer_s: float
    effective_rate_bps: float     # link capacity times the airtime share assumed
    dl_queue_bits: float          # bits already queued for this client
    dl_queue_media_s: float       # playable seconds of whole queued chunks
    fifo_backlog_bits: float      # bits ahead in the shared download FIFO


class CandidateQuality(NamedTuple):
    """One scored tolerated level of a request; the request says whose."""
    quality_index: int
    bitrate_bps: float
    cached: bool
    cost_bps: float
    estimated_buffer_s: float
    utility: float


def tolerated_set(requested_m: int, gamma: int, ladder_size: int) -> tuple[int, ...]:
    """Symmetric window of quality indices around the request, clipped."""
    if not (0 <= requested_m < ladder_size):
        raise ValueError(f"requested quality {requested_m} outside ladder of {ladder_size}")
    lo = max(0, requested_m - gamma)
    hi = min(ladder_size - 1, requested_m + gamma)
    return tuple(range(lo, hi + 1))


def delivery_cost(bitrate_bps: float, cached: bool) -> float:
    """Backhaul bandwidth claimed by one delivery: zero when cache-served."""
    return 0.0 if cached else bitrate_bps


def utility(
    bitrate_bps: float,
    cached: bool,
    mu_c: float,
    b_hat_s: float,
    b_min_s: float,
    b_max_s: float,
) -> float:
    """Buffer-aware log-bitrate utility of delivering one chunk.

    Three regimes on the estimated buffer: comfortable (>= b_min) rewards
    bitrate plus clamped buffer headroom, shallow (0 < b_hat < b_min)
    rewards only the remaining buffer, and non-positive b_hat is returned
    as-is so its magnitude reads as expected stall duration.
    """
    if bitrate_bps <= 0:
        raise ValueError("bitrate_bps must be > 0")
    q = bitrate_bps / BITRATE_UNIT_BPS
    w = mu_c if cached else 1.0
    if b_hat_s >= b_min_s:
        return w * math.log(q) + math.log(min(b_hat_s, b_max_s))
    if b_hat_s > 0:
        return w * math.log(b_hat_s)
    return b_hat_s


def build_candidates(
    request: QualityRequest, cache: LruChunkCache, params: SolverParams
) -> list[CandidateQuality]:
    """Score every tolerated quality level of the params' ladder for one
    request, in ascending level order; a chunk's size is its nominal
    bitrate * duration."""
    (_, video, chunk, requested, buffer_s, effective_rate,
     queue_bits, queue_media_s, backlog_bits) = request
    bitrates, tau = params.ladder.bitrates_bps, params.ladder.chunk_duration_s
    backhaul_rate = params.backhaul_bps
    gamma, mu_c, b_min_s, b_max_s = params.gamma, params.mu_c, params.b_min_s, params.b_max_s
    out: list[CandidateQuality] = []
    for m in tolerated_set(requested, gamma, len(bitrates)):
        rate = bitrates[m]
        cached = cache.contains(video, chunk, m)
        chunk_bits = rate * tau
        dl_transmit_s = chunk_bits / effective_rate if effective_rate > 0 else math.inf
        if cached:
            backhaul_delay_s = 0.0
        elif backhaul_rate > 0:
            backhaul_delay_s = (backlog_bits + chunk_bits) / backhaul_rate
        else:
            backhaul_delay_s = math.inf
        b_hat = estimate_buffer(
            current_buffer_s=buffer_s,
            backhaul_delay_s=backhaul_delay_s,
            dl_transmit_s=dl_transmit_s,
            dl_queue_bits=queue_bits,
            dl_queue_media_s=queue_media_s,
            effective_rate_bps=effective_rate,
        )
        out.append(CandidateQuality(m, rate, cached, delivery_cost(rate, cached), b_hat,
                                    utility(rate, cached, mu_c, b_hat, b_min_s, b_max_s)))
    return out
