"""Compositional Pareto-algebraic quality assignment with exact oracle.

The solver forms one group of scored candidates per request, merges groups
by Cartesian product under the shared-download cost rule (a chunk fetched
for one client is free for every other client picking the identical
content), and prunes merged frontiers to Pareto-optimal
(utility, cost) points. Inside a cluster of groups that can share content
(same video and chunk) a locally dominated pick can win globally once
enough clients share its cost, so a configuration is only compared with
those that have paid for the same content: they face identical costs for
the rest of the cluster. Across clusters costs are strictly additive and
pruning after every merge preserves exactness.

Determinism contract: requests are put into one canonical order and both
the heuristic and the brute-force oracle accumulate utility and cost by an
identical left fold over that order, so optimal utilities compare bitwise.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Hashable, Sequence

from .assign_core import (
    CandidateQuality,
    QualityRequest,
    SolverParams,
    build_candidates,
)
from .cache import LruChunkCache


@dataclass(frozen=True)
class SolveItem:
    quality_index: int
    utility: float
    cost_bps: float
    # items with equal content_key share one download cost; None never shares
    content_key: Hashable | None = None


@dataclass(frozen=True)
class SolveGroup:
    group_id: int
    cluster_key: Hashable
    items: tuple[SolveItem, ...]


@dataclass(frozen=True)
class Assignment:
    client_id: int
    video_id: int
    chunk_index: int
    quality_index: int
    from_cache: bool
    requested_quality: int


@dataclass(frozen=True)
class AssignmentResult:
    assignments: tuple[Assignment, ...]  # aligned with the input request order
    no_valid_config: bool
    total_utility: float | None
    total_cost_bps: float | None


def passthrough(
    requests: Sequence[QualityRequest], cache: LruChunkCache | None
) -> tuple[Assignment, ...]:
    """Every request at its requested quality, served from `cache` when it
    holds that exact chunk; None means the cache is never read."""
    return tuple(
        Assignment(
            client_id=r.client_id,
            video_id=r.video_id,
            chunk_index=r.chunk_index,
            quality_index=r.requested_quality,
            from_cache=cache is not None
            and cache.contains(r.video_id, r.chunk_index, r.requested_quality),
            requested_quality=r.requested_quality,
        )
        for r in requests
    )


def pareto_min(points: Sequence[tuple]) -> list[tuple]:
    """Keep the non-dominated (utility, cost, ...) points.

    A dominates B when utility_A >= utility_B and cost_A <= cost_B with at
    least one strict. Full (utility, cost) ties keep one representative,
    the one with the smallest trailing payload.
    """
    ordered = sorted(points, key=lambda p: (p[1], -p[0], p[2:]))
    kept: list[tuple] = []
    best_u = -math.inf
    for p in ordered:
        if p[0] > best_u:
            kept.append(p)
            best_u = p[0]
    return kept


def _truncate(frontier: list[tuple], cap: int | None) -> list[tuple]:
    if cap is None or len(frontier) <= cap:
        return frontier
    ranked = sorted(frontier, key=lambda p: (-p[0], p[1], p[2:]))
    return sorted(ranked[:cap], key=lambda p: (p[1], -p[0], p[2:]))


def solve_groups(
    groups: Sequence[SolveGroup],
    capacity_bps: float,
    pareto_cap: int | None = None,
    prune_by_paid_set: bool = True,
) -> tuple[float, float, tuple[int, ...]] | None:
    """Best (utility, cost, picks) over all feasible configurations.

    Groups sharing a cluster_key must be contiguous in `groups`. With
    prune_by_paid_set=True (the default) a merge inside a cluster prunes
    only among configurations with the same paid content, which keeps the
    heuristic exact up to float rounding: a point dropped as dominated can
    round to a tie with a kept one after later additions, and the oracle
    breaks such ties on picks, which may favour the dropped point. False
    prunes across paid sets after every merge, the plain variant that can
    discard shared-cost optima.
    Returns None when no configuration fits the capacity.
    """
    # configuration = (utility, cost, picks, shared) where shared maps
    # content_key -> already-paid marker within the current cluster
    frontier: list[tuple[float, float, tuple[int, ...], frozenset]] = [
        (0.0, 0.0, (), frozenset())
    ]
    for gi, group in enumerate(groups):
        cluster_ends = gi + 1 == len(groups) or groups[gi + 1].cluster_key != group.cluster_key
        merged: list[tuple[float, float, tuple[int, ...], frozenset]] = []
        for (u, c, picks, shared) in frontier:
            for item in group.items:
                if item.content_key is not None and item.content_key in shared:
                    cost = c
                    shared2 = shared
                else:
                    cost = c + item.cost_bps
                    if item.content_key is not None and item.cost_bps > 0:
                        shared2 = shared | {item.content_key}
                    else:
                        shared2 = shared
                if cost > capacity_bps:
                    continue
                merged.append((u + item.utility, cost, picks + (item.quality_index,), shared2))
        if not merged:
            return None
        if cluster_ends:
            # shared state is dead weight beyond the cluster boundary
            merged = _prune_configs(merged, pareto_cap, reset_shared=True)
        elif not prune_by_paid_set:
            merged = _prune_configs(merged, pareto_cap, reset_shared=False)
        else:
            merged = _prune_within_paid_sets(merged)
        frontier = merged

    best = max(frontier, key=lambda p: (p[0], -p[1], _neg_lex(p[2])))
    return best[0], best[1], best[2]


def _neg_lex(picks: tuple[int, ...]) -> tuple[int, ...]:
    # max() helper: prefer lexicographically smaller picks on full ties
    return tuple(-q for q in picks)


def _prune_configs(configs, cap, reset_shared):
    # picks determine the shared set, so it survives pruning via lookup;
    # mid-cluster prunes (plain variant) must keep it, boundary prunes drop it
    pts = [(u, c, picks) for (u, c, picks, _) in configs]
    pts = _truncate(pareto_min(pts), cap)
    if reset_shared:
        return [(u, c, picks, frozenset()) for (u, c, picks) in pts]
    shared_by_picks = {picks: shared for (_, _, picks, shared) in configs}
    return [(u, c, picks, shared_by_picks[picks]) for (u, c, picks) in pts]


def _prune_within_paid_sets(configs):
    # equal paid sets mean equal costs for every completion of the cluster,
    # so dominance among them is final and Cartesian growth stays bounded
    by_paid: dict[frozenset, list[tuple]] = {}
    for (u, c, picks, shared) in configs:
        by_paid.setdefault(shared, []).append((u, c, picks))
    return [(u, c, picks, shared) for shared, pts in by_paid.items()
            for (u, c, picks) in pareto_min(pts)]


def canonical_order(requests: Sequence[QualityRequest]) -> list[int]:
    """Indices of `requests` sorted so shareable groups are contiguous."""
    return sorted(
        range(len(requests)),
        key=lambda i: (
            requests[i].video_id,
            requests[i].chunk_index,
            requests[i].client_id,
            requests[i].requested_quality,
        ),
    )


def _request_groups(
    requests: Sequence[QualityRequest],
    cache: LruChunkCache,
    params: SolverParams,
) -> tuple[list[int], list[SolveGroup], list[list[CandidateQuality]]]:
    order = canonical_order(requests)
    groups: list[SolveGroup] = []
    candidates: list[list[CandidateQuality]] = []
    for gi, ri in enumerate(order):
        req = requests[ri]
        cands = build_candidates(req, cache, params)
        items = tuple(
            SolveItem(
                quality_index=c.quality_index,
                utility=c.utility,
                cost_bps=c.cost_bps,
                content_key=(c.video_id, c.chunk_index, c.quality_index),
            )
            for c in cands
        )
        groups.append(SolveGroup(gi, (req.video_id, req.chunk_index), items))
        candidates.append(cands)
    return order, groups, candidates


def _result_from_picks(
    requests: Sequence[QualityRequest],
    order: list[int],
    candidates: list[list[CandidateQuality]],
    picks: tuple[int, ...],
    utility: float,
    cost: float,
) -> AssignmentResult:
    by_input: dict[int, Assignment] = {}
    for gi, ri in enumerate(order):
        req = requests[ri]
        cand = next(c for c in candidates[gi] if c.quality_index == picks[gi])
        by_input[ri] = Assignment(
            client_id=req.client_id,
            video_id=req.video_id,
            chunk_index=req.chunk_index,
            quality_index=cand.quality_index,
            from_cache=cand.cached,
            requested_quality=req.requested_quality,
        )
    assignments = tuple(by_input[i] for i in range(len(requests)))
    return AssignmentResult(assignments, False, utility, cost)


def cph_assign(
    requests: Sequence[QualityRequest],
    cache: LruChunkCache,
    backhaul_bps: float,
    params: SolverParams,
) -> AssignmentResult:
    """Assign a quality to every request, falling back to the requested
    qualities (flagged) when no configuration fits the backhaul budget."""
    if not requests:
        return AssignmentResult((), False, 0.0, 0.0)
    order, groups, candidates = _request_groups(requests, cache, params)
    # in-cluster pruning by paid set is exact but keeps up to one frontier
    # per subset of the cluster's uncached levels; only afford it when uncapped
    best = solve_groups(groups, backhaul_bps, params.pareto_cap,
                        prune_by_paid_set=params.pareto_cap is None)
    if best is None:
        return AssignmentResult(passthrough(requests, cache), True, None, None)
    utility, cost, picks = best
    return _result_from_picks(requests, order, candidates, picks, utility, cost)


def brute_force_assign(
    requests: Sequence[QualityRequest],
    cache: LruChunkCache,
    backhaul_bps: float,
    params: SolverParams,
    guard: int = 10**6,
) -> AssignmentResult:
    """Exhaustive oracle over all tolerated combinations; same fold and
    tie-breaking as cph_assign so optima compare bitwise."""
    if not requests:
        return AssignmentResult((), False, 0.0, 0.0)
    order, groups, candidates = _request_groups(requests, cache, params)
    space = 1
    for g in groups:
        space *= len(g.items)
        if space > guard:
            raise ValueError(f"instance too large for exhaustive search (> {guard})")
    best: tuple[float, float, tuple[int, ...]] | None = None
    for combo in itertools.product(*(g.items for g in groups)):
        u = 0.0
        c = 0.0
        seen: set = set()
        feasible = True
        for item in combo:
            u += item.utility
            if item.content_key is not None and item.content_key in seen:
                pass
            else:
                c += item.cost_bps
                if item.content_key is not None and item.cost_bps > 0:
                    seen.add(item.content_key)
            if c > backhaul_bps:
                feasible = False
                break
        if not feasible:
            continue
        picks = tuple(item.quality_index for item in combo)
        if best is None or (u, -c, _neg_lex(picks)) > (best[0], -best[1], _neg_lex(best[2])):
            best = (u, c, picks)
    if best is None:
        return AssignmentResult(passthrough(requests, cache), True, None, None)
    return _result_from_picks(requests, order, candidates, best[2], best[0], best[1])


# Instance files for the oracle differential harness. UTF-8 text, one record
# per line:
#   params <gamma> <mu_c> <b_min_s> <b_max_s> <pareto_cap|none> <unit_bps>
#   backhaul <bps>
#   cached <video> <chunk> <quality> <size_bits>
#   request <client> <video> <chunk> <m> <tau> <buffer> <C> <share> \
#           <dlq_bits> <dlq_media> <backlog_bits> <bh_rate> <rate0,rate1,...>

def dump_instance(
    path: str,
    requests: Sequence[QualityRequest],
    cache: LruChunkCache,
    backhaul_bps: float,
    params: SolverParams,
) -> None:
    keys = set()
    for r in requests:
        for m in range(len(r.bitrates_bps)):
            if cache.contains(r.video_id, r.chunk_index, m):
                keys.add((r.video_id, r.chunk_index, m))
    with open(path, "w", encoding="utf-8") as f:
        f.write("# solver instance\n")
        cap = "none" if params.pareto_cap is None else str(params.pareto_cap)
        f.write(
            f"params {params.gamma} {params.mu_c!r} {params.b_min_s!r} "
            f"{params.b_max_s!r} {cap} {params.bitrate_unit_bps!r}\n"
        )
        f.write(f"backhaul {backhaul_bps!r}\n")
        for (v, k, m) in sorted(keys):
            size = cache.size_of(v, k, m)
            f.write(f"cached {v} {k} {m} {size!r}\n")
        for r in requests:
            rates = ",".join(repr(b) for b in r.bitrates_bps)
            f.write(
                f"request {r.client_id} {r.video_id} {r.chunk_index} "
                f"{r.requested_quality} {r.chunk_duration_s!r} {r.buffer_s!r} "
                f"{r.link_capacity_bps!r} {r.equal_share!r} {r.dl_queue_bits!r} "
                f"{r.dl_queue_media_s!r} {r.fifo_backlog_bits!r} "
                f"{r.backhaul_rate_bps!r} {rates}\n"
            )


def load_instance(
    path: str,
) -> tuple[list[QualityRequest], LruChunkCache, float, SolverParams]:
    requests: list[QualityRequest] = []
    cache = LruChunkCache()
    backhaul = None
    params = None
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                if parts[0] == "params" and len(parts) == 7:
                    cap = None if parts[5] == "none" else int(parts[5])
                    params = SolverParams(
                        gamma=int(parts[1]), mu_c=float(parts[2]),
                        b_min_s=float(parts[3]), b_max_s=float(parts[4]),
                        pareto_cap=cap, bitrate_unit_bps=float(parts[6]),
                    )
                elif parts[0] == "backhaul" and len(parts) == 2:
                    backhaul = float(parts[1])
                elif parts[0] == "cached" and len(parts) == 5:
                    cache.insert(int(parts[1]), int(parts[2]), int(parts[3]), float(parts[4]))
                elif parts[0] == "request" and len(parts) == 14:
                    requests.append(QualityRequest(
                        client_id=int(parts[1]), video_id=int(parts[2]),
                        chunk_index=int(parts[3]), requested_quality=int(parts[4]),
                        chunk_duration_s=float(parts[5]), buffer_s=float(parts[6]),
                        link_capacity_bps=float(parts[7]), equal_share=float(parts[8]),
                        dl_queue_bits=float(parts[9]), dl_queue_media_s=float(parts[10]),
                        fifo_backlog_bits=float(parts[11]), backhaul_rate_bps=float(parts[12]),
                        bitrates_bps=tuple(float(x) for x in parts[13].split(",")),
                    ))
                else:
                    raise ValueError(f"unknown record {parts[0]!r}")
            except (ValueError, IndexError) as e:
                raise ValueError(f"{path}:{lineno}: {e}") from None
    if backhaul is None or params is None:
        raise ValueError(f"{path}: missing params or backhaul record")
    return requests, cache, backhaul, params
