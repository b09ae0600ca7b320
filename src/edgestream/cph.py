"""Compositional Pareto-algebraic quality assignment with exact oracle.

The solver forms one group of scored candidates per request, merges groups
by Cartesian product under the shared-download cost rule (a chunk fetched
for one client is free for every other client picking the identical
content), and after every merge keeps the Pareto-optimal (utility, cost)
points among configurations that have paid for the same content. A
cluster is a run of groups for one video and chunk, so within it an equal
quality is the same chunk and shares one download.

One rule bounds the frontier: a configuration remembers only the paid
levels a later group of its cluster can still pick. Configurations that
remember the same set face identical costs for the rest of the solve, while
a pick dominated by one with other paid levels can still win once enough
clients share its cost. At a cluster's end nothing is live, so there the
whole frontier is compared. `canonical_order` sorts a cluster by requested
quality, so the tolerance windows slide and a live set holds at most
2*gamma + 1 levels: at most 2**(2*gamma + 1) paid sets, 32 at gamma = 2.
A configuration is (paid, cost, -utility, picks), so one keyless sort per
merge orders it by paid set, cost and utility, and picks are unique. A
merge reads each candidate of its group once, into a plain tuple, before
pairing it with every configuration.

Exact up to float rounding: costs are summed in group order, so one paid
set's configurations can differ in the last ulp, and a point dropped as
dominated can round to a tie that the oracle breaks on picks the other way
(the open canonical-cost FOUND entry in CHANGES.md).

Determinism contract: requests are put into one canonical order and both
the heuristic and the brute-force oracle accumulate utility and cost by an
identical left fold over that order, so optimal utilities compare bitwise.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Hashable, NamedTuple, Sequence

from .assign_core import CandidateQuality, QualityRequest, SolverParams, build_candidates
from .cache import LruChunkCache


BRUTE_FORCE_LIMIT = 10**6  # most combinations brute_force_assign enumerates


Best = tuple[float, float, tuple[int, ...]]  # (utility, cost, picks) of an optimum


class SolveGroup(NamedTuple):
    cluster_key: Hashable  # (video, chunk): an equal quality is one download
    items: tuple[CandidateQuality, ...]


@dataclass(frozen=True)
class AssignmentResult:
    qualities: tuple[int, ...]  # one delivery quality per request, in input order
    no_valid_config: bool
    total_utility: float | None
    total_cost_bps: float | None


def solve_groups(groups: Sequence[SolveGroup], capacity_bps: float) -> Best | None:
    """Best (utility, cost, picks) over all feasible configurations, exact
    up to float rounding (see the module docstring).

    Groups sharing a cluster_key must be contiguous in `groups`; within a
    cluster an equal quality_index is one download at one cost, since
    `build_candidates` scores every request on the one ladder of
    `SolverParams`. A configuration keeps only the paid levels a later
    group of its cluster can pick, and each merge compares configurations
    with the same paid set only; in canonical order that is at most
    2**(2*gamma + 1) sets. Returns None when no configuration fits the
    capacity.
    """
    # live[gi]: levels the groups after gi in its cluster can pick (by index:
    # only the merge below iterates a group's items)
    live = [0] * len(groups)
    for gi in range(len(groups) - 2, -1, -1):
        nxt = groups[gi + 1]
        if nxt.cluster_key == groups[gi].cluster_key:
            items = nxt.items
            levels = live[gi + 1]
            for k in range(len(items)):
                levels |= 1 << items[k].quality_index
            live[gi] = levels
    # configuration = (paid, cost, -utility, picks): paid is a bitmask of the
    # live levels already charged in the current cluster, and the layout
    # sorts by paid set, then cost, then utility with no key
    frontier: list[tuple[int, float, float, tuple[int, ...]]] = [(0, 0.0, -0.0, ())]
    for gi, group in enumerate(groups):
        keep = live[gi]
        # each candidate read once per group: (level bit, cost, free, utility, pick)
        items = [(1 << m, cost, cost <= 0, u, (m,)) for m, _, cost, _, u in group.items]
        merged = []
        for (paid, c, nu, picks) in frontier:
            for level, item_cost, free, u, pick in items:
                if paid & level:
                    cost, paid2 = c, paid
                else:
                    cost = c + item_cost
                    paid2 = paid if free else paid | level
                if cost > capacity_bps:
                    continue
                merged.append((paid2 & keep, cost, nu - u, picks + pick))
        if not merged:
            return None
        # equal paid sets mean equal costs for every completion, so dominance
        # among them is final; picks are unique, so the sort stops at them
        merged.sort()
        frontier = []
        last_paid = -1
        for config in merged:
            if config[0] != last_paid or config[2] < best_nu:
                last_paid, best_nu = config[0], config[2]
                frontier.append(config)

    # the last live set is empty, so the frontier is one paid set kept in
    # rising cost and utility: its last entry has the highest utility, then
    # the lowest cost, then the lexicographically smallest picks
    _, cost, nu, picks = frontier[-1]
    return -nu, cost, picks


def canonical_order(requests: Sequence[QualityRequest]) -> list[int]:
    """Indices of `requests` by chunk (clusters contiguous), requested quality, client."""
    # (video_id, chunk_index, requested_quality, client_id) of each request
    keys = list(map(itemgetter(1, 2, 3, 0), requests))
    return sorted(range(len(requests)), key=keys.__getitem__)


def _request_groups(
    requests: Sequence[QualityRequest],
    cache: LruChunkCache,
    params: SolverParams,
) -> tuple[list[int], list[SolveGroup]]:
    order = canonical_order(requests)
    groups = [
        SolveGroup((requests[ri].video_id, requests[ri].chunk_index),
                   build_candidates(requests[ri], cache, params))
        for ri in order
    ]
    return order, groups


def _result(
    requests: Sequence[QualityRequest],
    order: list[int],
    best: Best | None,
) -> AssignmentResult:
    # picks follow the canonical order; None keeps the requests, flagged
    qualities = [r.requested_quality for r in requests]
    if best is None:
        return AssignmentResult(tuple(qualities), True, None, None)
    utility, cost, picks = best
    for ri, m in zip(order, picks):
        qualities[ri] = m
    return AssignmentResult(tuple(qualities), False, utility, cost)


def cph_assign(
    requests: Sequence[QualityRequest],
    cache: LruChunkCache,
    capacity_bps: float,
    params: SolverParams,
) -> AssignmentResult:
    """Assign a quality to every request, falling back to the requested
    qualities (flagged) when no configuration fits `capacity_bps`, the
    backhaul rate left for new downloads."""
    order, groups = _request_groups(requests, cache, params)
    return _result(requests, order, solve_groups(groups, capacity_bps))


def brute_force_groups(groups: Sequence[SolveGroup], capacity_bps: float) -> Best | None:
    """solve_groups by unpruned enumeration, with the same fold, cost rule and
    tie-breaking; raises ValueError past BRUTE_FORCE_LIMIT combinations."""
    space = 1
    for g in groups:
        space *= len(g.items)
        if space > BRUTE_FORCE_LIMIT:
            raise ValueError(f"instance too large for exhaustive search (> {BRUTE_FORCE_LIMIT})")
    best: Best | None = None
    for combo in itertools.product(*(g.items for g in groups)):
        u = 0.0
        c = 0.0
        seen: set = set()
        for g, item in zip(groups, combo):
            u += item.utility
            chunk = (g.cluster_key, item.quality_index)
            if chunk not in seen:
                c += item.cost_bps
                if item.cost_bps > 0:
                    seen.add(chunk)
            if c > capacity_bps:
                break
        else:
            picks = tuple(item.quality_index for item in combo)
            if (best is None or (u, -c) > (best[0], -best[1])
                    or (u, c) == best[:2] and picks < best[2]):
                best = (u, c, picks)
    return best


def brute_force_assign(
    requests: Sequence[QualityRequest],
    cache: LruChunkCache,
    capacity_bps: float,
    params: SolverParams,
) -> AssignmentResult:
    """Exhaustive oracle over all tolerated combinations; same fold and
    tie-breaking as cph_assign so optima compare bitwise."""
    order, groups = _request_groups(requests, cache, params)
    return _result(requests, order, brute_force_groups(groups, capacity_bps))
