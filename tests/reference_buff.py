"""Reference greedy assigner: BUFF as a repeated scan for the global best.

This is the earlier implementation of `edgestream.buff.buff_assign`, kept
unchanged as an independent check on the one-pass version. Each round scans
the whole candidate pool for the lowest-ranked candidate whose request is
still open and whose cost (zero once its chunk is paid) fits the remaining
budget, takes it, and repeats until nothing fits. It does not import
`edgestream.buff`.
"""
from __future__ import annotations

import math
from typing import Sequence

from edgestream.assign_core import BITRATE_UNIT_BPS, QualityRequest, SolverParams, build_candidates
from edgestream.cache import LruChunkCache
from edgestream.cph import AssignmentResult


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
            u = _weighted_log_bitrate(params.ladder.bitrates_bps[c.quality_index], c.cached,
                                      params)
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
