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
from typing import Sequence

from .assign_core import BITRATE_UNIT_BPS, QualityRequest, SolverParams, build_candidates
from .cache import LruChunkCache
from .cph import AssignmentResult


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
    # pool entry = (rank, request index, chunk key, candidate, weighted utility)
    pool = []
    for ri, req in enumerate(requests):
        cands = build_candidates(req, cache, params)
        min_level = min(c.quality_index for c in cands)
        for c in cands:
            safe = c.estimated_buffer_s >= 0
            if not safe and c.quality_index != min_level:
                continue
            u = _weighted_log_bitrate(c.bitrate_bps, c.cached, params)
            rank = (-u, -c.quality_index, req.client_id, req.video_id, req.chunk_index)
            pool.append((rank, ri, (req.video_id, req.chunk_index, c.quality_index), c, u))

    remaining = backhaul_bps
    chosen: dict[int, int] = {}  # request index -> quality
    paid: set = set()  # chunks being fetched once; identical picks ride along free
    total_utility = 0.0
    total_cost = 0.0
    while True:
        best = None  # (entry, cost) of the lowest-ranked affordable candidate
        for entry in pool:
            rank, ri, key, c, _ = entry
            cost = 0.0 if key in paid else c.cost_bps
            if ri not in chosen and cost <= remaining and (best is None or rank < best[0][0]):
                best = entry, cost
        if best is None:
            break
        (_, ri, key, c, u), cost = best
        chosen[ri] = c.quality_index
        total_utility += u
        total_cost += cost
        remaining -= cost
        if cost > 0:
            paid.add(key)

    qualities = [r.requested_quality for r in requests]
    for ri, m in chosen.items():
        qualities[ri] = m
    fell_back = len(chosen) < len(requests)
    return AssignmentResult(tuple(qualities), fell_back, total_utility, total_cost)
