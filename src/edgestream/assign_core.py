"""Shared quality-assignment primitives.

Both solvers consume the same per-request context (QualityRequest), the same
tolerated-quality window, the same delivery-cost rule and the same utility
function, so their outputs are comparable candidate by candidate. The run's
one quality ladder is a SolverParams field, so a level is the same bitrate
for every request of a call and equal picks of one chunk are one download.
SolverParams also holds the ladder's per-level constants, built once per
run; `build_candidates` scores a request in one pass over them, and
`tolerated_set`, `estimate_buffer`, `delivery_cost` and `utility` are the
specification it is tested against bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

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
    # per level: (bitrate, chunk bits, log(q), mu_c * log(q)), q the bitrate in
    # BITRATE_UNIT_BPS; derived from the fields above, so replace() rebuilds it
    levels: tuple = field(init=False, repr=False, compare=False)

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
        tau = self.ladder.chunk_duration_s
        levels = []
        for rate in self.ladder.bitrates_bps:
            log_q = math.log(rate / BITRATE_UNIT_BPS)
            levels.append((rate, rate * tau, log_q, self.mu_c * log_q))
        object.__setattr__(self, "levels", tuple(levels))


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


def estimate_buffer(
    *,
    current_buffer_s: float,
    backhaul_delay_s: float,    # download wait incl. queueing; 0 if cache-served
    dl_transmit_s: float,       # candidate bits / (C * theta)
    dl_queue_bits: float,
    dl_queue_media_s: float,    # playable seconds of whole untransmitted chunks
    effective_rate_bps: float,  # C * theta assumed during selection
) -> float:
    """Projected buffer seconds at candidate arrival, for a backhaul- or
    cache-served chunk behind an empty or backlogged queue; may be negative."""
    if dl_queue_bits < 0 or dl_queue_media_s < 0:
        raise ValueError("queue fields must be non-negative")
    b = current_buffer_s
    if dl_queue_bits == 0:
        return b - (backhaul_delay_s + dl_transmit_s)
    if effective_rate_bps > 0:
        drain_s = dl_queue_bits / effective_rate_bps
    else:
        drain_s = math.inf
    return b - max(drain_s, backhaul_delay_s) - dl_transmit_s + dl_queue_media_s


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
) -> tuple[CandidateQuality, ...]:
    """Score every tolerated quality level of the params' ladder for one
    request, in ascending level order; a chunk's size is its nominal
    bitrate * duration.

    One pass over `params.levels`: each candidate equals, bit for bit,
    `tolerated_set`, `estimate_buffer`, `delivery_cost` and `utility`
    composed at its level (w * log(q) is the table's log(q) or
    mu_c * log(q), and 1.0 * x == x), and both of their ValueErrors are
    raised once per request."""
    (_, video, chunk, requested, buffer_s, effective_rate,
     queue_bits, queue_media_s, backlog_bits) = request
    levels = params.levels
    if not (0 <= requested < len(levels)):
        raise ValueError(f"requested quality {requested} outside ladder of {len(levels)}")
    if queue_bits < 0 or queue_media_s < 0:
        raise ValueError("queue fields must be non-negative")
    gamma, mu_c, b_min_s, b_max_s = params.gamma, params.mu_c, params.b_min_s, params.b_max_s
    backhaul_rate = params.backhaul_bps
    # estimate_buffer's two regimes: None when the downlink queue is empty
    if queue_bits == 0:
        drain_s = None
    elif effective_rate > 0:
        drain_s = queue_bits / effective_rate
    else:
        drain_s = math.inf
    contains = cache.contains
    log = math.log
    out = []
    for m in range(max(0, requested - gamma), min(len(levels) - 1, requested + gamma) + 1):
        rate, chunk_bits, log_q, weighted_log_q = levels[m]
        cached = contains(video, chunk, m)
        dl_transmit_s = chunk_bits / effective_rate if effective_rate > 0 else math.inf
        if cached:
            backhaul_delay_s = 0.0
        elif backhaul_rate > 0:
            backhaul_delay_s = (backlog_bits + chunk_bits) / backhaul_rate
        else:
            backhaul_delay_s = math.inf
        if drain_s is None:
            b_hat = buffer_s - (backhaul_delay_s + dl_transmit_s)
        else:
            b_hat = buffer_s - max(drain_s, backhaul_delay_s) - dl_transmit_s + queue_media_s
        if b_hat >= b_min_s:
            u = (weighted_log_q if cached else log_q) + log(min(b_hat, b_max_s))
        elif b_hat > 0:
            u = mu_c * log(b_hat) if cached else log(b_hat)
        else:
            u = b_hat
        out.append(CandidateQuality(m, cached, 0.0 if cached else rate, b_hat, u))
    return tuple(out)
