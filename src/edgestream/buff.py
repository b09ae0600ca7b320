"""Greedy stall-avoiding quality assignment.

Candidates are the tolerated levels whose projected buffer stays
non-negative under equal airtime, plus each request's minimum tolerated
level which is always kept as the last resort. The assigner repeatedly takes
the global best candidate by cache-weighted log-bitrate, makes the identical
content free for everyone else, and charges the remaining backhaul budget
until nothing assignable is left. Requests still unassigned at exhaustion
keep their requested quality.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .assign_core import BITRATE_UNIT_BPS, QualityRequest, SolverParams, build_candidates
from .cache import LruChunkCache
from .cph import Assignment, AssignmentResult, canonical_order, passthrough


@dataclass
class BuffCandidate:
    request_index: int
    client_id: int
    video_id: int
    chunk_index: int
    quality_index: int
    bitrate_bps: float
    cached: bool
    utility: float
    cost_bps: float


def _weighted_log_bitrate(bitrate_bps: float, cached: bool, params: SolverParams) -> float:
    q = bitrate_bps / BITRATE_UNIT_BPS
    w = params.mu_c if cached else 1.0
    return w * math.log(q)


def buff_assign(
    requests: Sequence[QualityRequest],
    cache: LruChunkCache,
    backhaul_bps: float,
    params: SolverParams,
) -> AssignmentResult:
    if not requests:
        return AssignmentResult((), False, 0.0, 0.0)
    order = canonical_order(requests)
    pool: list[BuffCandidate] = []
    for ri in order:
        req = requests[ri]
        cands = build_candidates(req, cache, params)
        min_level = min(c.quality_index for c in cands)
        for c in cands:
            safe = c.estimated_buffer_s >= 0
            if not safe and c.quality_index != min_level:
                continue
            pool.append(BuffCandidate(
                request_index=ri,
                client_id=c.client_id,
                video_id=c.video_id,
                chunk_index=c.chunk_index,
                quality_index=c.quality_index,
                bitrate_bps=c.bitrate_bps,
                cached=c.cached,
                utility=_weighted_log_bitrate(c.bitrate_bps, c.cached, params),
                cost_bps=c.cost_bps,
            ))

    remaining = backhaul_bps
    chosen: dict[int, BuffCandidate] = {}
    total_utility = 0.0
    total_cost = 0.0
    while True:
        affordable = [c for c in pool
                      if c.request_index not in chosen and c.cost_bps <= remaining]
        if not affordable:
            break
        best = min(affordable, key=lambda c: (
            -c.utility, -c.quality_index, c.client_id, c.video_id, c.chunk_index))
        chosen[best.request_index] = best
        total_utility += best.utility
        total_cost += best.cost_bps
        remaining -= best.cost_bps
        if best.cost_bps > 0:
            # the chunk is being fetched once; identical picks ride along free
            key = (best.video_id, best.chunk_index, best.quality_index)
            for c in pool:
                if (c.video_id, c.chunk_index, c.quality_index) == key:
                    c.cost_bps = 0.0

    assignments: list[Assignment] = []
    for ri, req in enumerate(requests):
        pick = chosen.get(ri)
        if pick is None:
            assignments += passthrough([req], cache)
            continue
        assignments.append(Assignment(
            client_id=req.client_id,
            video_id=req.video_id,
            chunk_index=req.chunk_index,
            quality_index=pick.quality_index,
            from_cache=pick.cached,
            requested_quality=req.requested_quality,
        ))
    fell_back = len(chosen) < len(requests)
    return AssignmentResult(tuple(assignments), fell_back, total_utility, total_cost)
