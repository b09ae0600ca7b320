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

from operator import itemgetter
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
    # pool entry = (rank, request index, chunk key, quality, cost, weighted utility)
    pool = []
    levels = params.levels
    for ri, req in enumerate(requests):
        client, video, chunk = req[0], req[1], req[2]
        cands = build_candidates(req, cache, params)
        for c in cands:
            m, cached, cost, b_hat, _ = c
            # cands[0] is the window's floor, kept even when unsafe
            if not b_hat >= 0 and c is not cands[0]:
                continue
            # mu_c * log(q) when cached, else 1.0 * log(q) == log(q)
            u = levels[m][3 if cached else 2]
            pool.append(((-u, -m, client, video, chunk), ri, (video, chunk, m), m, cost, u))
    # stable: a client asking twice for one chunk ties on rank, lower index first
    pool.sort(key=itemgetter(0))

    remaining = capacity_bps
    chosen: dict[int, int] = {}  # request index -> quality
    paid: set = set()  # chunks being fetched once; identical picks ride along free
    total_utility = 0.0
    total_cost = 0.0
    for _, ri, key, m, cost, u in pool:
        if key in paid:
            cost = 0.0
        if ri in chosen or cost > remaining:
            continue
        chosen[ri] = m
        total_utility += u
        total_cost += cost
        remaining -= cost
        if cost > 0:
            paid.add(key)

    qualities = [r[3] for r in requests]  # requested_quality
    for ri, m in chosen.items():
        qualities[ri] = m
    fell_back = len(chosen) < len(requests)
    return AssignmentResult(tuple(qualities), fell_back, total_utility, total_cost)
