"""Greedy stall-avoiding quality assignment.

Candidates are the tolerated levels whose projected buffer stays
non-negative under equal airtime, plus each request's minimum tolerated
level which is always kept as the last resort. One pass, best
cache-weighted log-bitrate first, takes every candidate whose request is
still open and whose cost fits the remaining backhaul budget; a pick makes
the identical content free for everyone else. The run has one ladder, so
identical content has one cost, and the budget only falls: a candidate
skipped once never fits later. Open requests keep their requested quality.
"""
from __future__ import annotations

from typing import Sequence

from .assign_core import QualityRequest, SolverParams, build_candidates
from .cache import LruChunkCache
from .cph import AssignmentResult


def buff_assign(
    requests: Sequence[QualityRequest],
    cache: LruChunkCache,
    capacity_bps: float,
    params: SolverParams,
) -> AssignmentResult:
    # pool entry = (rank, request index, chunk key, candidate, weighted utility)
    pool = []
    levels = params.levels
    for ri, req in enumerate(requests):
        cands = build_candidates(req, cache, params)
        for c in cands:
            # cands[0] is the window's floor, kept even when unsafe
            if not c.estimated_buffer_s >= 0 and c is not cands[0]:
                continue
            # mu_c * log(q) when cached, else 1.0 * log(q) == log(q)
            u = levels[c.quality_index][3 if c.cached else 2]
            rank = (-u, -c.quality_index, req.client_id, req.video_id, req.chunk_index)
            pool.append((rank, ri, (req.video_id, req.chunk_index, c.quality_index), c, u))
    # stable: a client asking twice for one chunk ties on rank, lower index first
    pool.sort(key=lambda e: e[0])

    remaining = capacity_bps
    chosen: dict[int, int] = {}  # request index -> quality
    paid: set = set()  # chunks being fetched once; identical picks ride along free
    total_utility = 0.0
    total_cost = 0.0
    for _, ri, key, c, u in pool:
        cost = 0.0 if key in paid else c.cost_bps
        if ri in chosen or cost > remaining:
            continue
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
