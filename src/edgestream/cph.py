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
merge orders it by paid set, cost and utility, and picks are unique. Each
group's candidates are read once, by the scan that takes the floor below;
the merge's rows are built from that copy.
Requests and candidates are read by position (see assign_core); SolveGroup
and AssignmentResult stay NamedTuples, as perfbench's tracer reads them.

Branch and bound (Land & Doig, 1960) drops the rest of the waste. Before
the first merge the solver takes a floor: the utility of every group's
best-utility pick, folded and charged as in brute_force_groups, or -inf if
that configuration breaks the capacity. A merge drops a configuration whose
prefix utility plus the later groups' best utilities plus a rounding slack
(1e-9 times one plus the magnitudes involved) is still below the floor. No
completion of it can reach the utility of a feasible configuration, so the
optimum stays bitwise the same (solve_groups gives the argument). On a
synchronized burst most configurations go this way.

Most calls need no merge at all. When the best picks fit the capacity and
each beats every other candidate of its group by more than the same kind of
slack, no other configuration can fold to their utility, so they are the
unique optimum and the floor is returned as it is. Such a call has no tie,
so its result is exactly brute_force_groups's. The merge runs only when the
best picks break the capacity, when a group's best is within the slack of
another pick, or when a utility is not finite.

Exact up to float rounding: costs are summed in group order, so one paid
set's configurations can differ in the last ulp, and a point dropped as
dominated can round to a tie that the oracle breaks on picks the other way
(the open canonical-cost FOUND entry in CHANGES.md). A call that ends at
the floor has neither caveat.

Determinism contract: requests are put into one canonical order and both
the heuristic and the brute-force oracle accumulate utility and cost by an
identical left fold over that order, so optimal utilities compare bitwise.
"""
from __future__ import annotations

import itertools
import math
from operator import itemgetter
from typing import Hashable, NamedTuple, Sequence

from .assign_core import Candidate, QualityRequest, SolverParams, build_candidates
from .cache import LruChunkCache


BRUTE_FORCE_LIMIT = 10**6  # most combinations brute_force_assign enumerates
_CHUNK = itemgetter(1, 2)  # (video_id, chunk_index) of a request


Best = tuple[float, float, tuple[int, ...]]  # (utility, cost, picks) of an optimum


class SolveGroup(NamedTuple):
    cluster_key: Hashable  # (video, chunk): an equal quality is one download
    items: tuple[Candidate, ...]


class AssignmentResult(NamedTuple):
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

    The bound: a configuration with prefix utility p after group k is
    dropped if p + L + 1e-9 * (1 + |p| + M) is below the floor, where L
    sums the best utilities of the groups after k and M sums their
    absolute values. The slack covers the rounding of any fold
    shorter than about 4e6 terms. A bound or a floor that is not finite
    never prunes. This keeps the result exact: rounded addition is
    monotone, so a completion of the dropped configuration folds to at
    most p followed by the later bests, which the slack puts strictly below
    the floor, the utility of a feasible configuration. No prefix of the
    optimum is dropped, and a point that survives dominance only because
    its dominator was dropped does no better than that dominator. So
    wherever the unbounded merge agrees with brute_force_groups, the result
    is bitwise the same.

    The exit: the floor is returned with no merge when the best picks fit,
    every utility is finite, and in each group the best utility b exceeds
    every other candidate's utility x by more than 1e-9 * (1 + S + |x|),
    where S sums the best utilities' magnitudes. Take any other
    configuration X, differing from the best picks in some group g, and Y,
    the best picks with only g's pick swapped for X's. Rounded addition is
    monotone, so X folds to at most Y's fold. A left fold of n terms lies
    within gamma(n - 1) times the sum of their magnitudes of the exact sum
    (Higham, recursive summation), so below about 4e6 terms the slack
    covers both folds and Y folds strictly below the floor. The best picks
    are then the unique optimum, and their fold, cost and picks are exactly
    what brute_force_groups returns, with no tie to break.
    """
    # one scan of each group's items: its first best-utility pick (as max()
    # picks it) and the highest utility among its other candidates. The best
    # picks are folded and charged as in brute_force_groups: the floor.
    scanned = []  # each group's items, read once
    tops = []  # each group's best pick
    floor = cost = 0.0
    magnitude = 1.0  # 1 plus the best utilities' magnitudes summed
    total = 0.0  # every utility summed: finite only if each one is
    margin = math.inf  # least best - other - 1e-9 * |other| over the groups
    fits = True
    seen = set()
    for key, items in groups:
        items = tuple(items)
        if not items:
            return None
        top = items[0]
        u_top = top[4]
        total += u_top
        if len(items) > 1:
            other = -math.inf
            for item in items[1:]:
                u = item[4]
                total += u
                if u > u_top:
                    other, top, u_top = u_top, item, u
                elif u > other:
                    other = u
            gap = u_top - other - 1e-9 * abs(other)
            if gap < margin:
                margin = gap
        scanned.append(items)
        tops.append(top)
        floor += u_top
        magnitude += abs(u_top)
        if (key, top[0]) not in seen:
            item_cost = top[2]
            cost += item_cost
            if not item_cost <= 0:
                seen.add((key, top[0]))
            if cost > capacity_bps:
                fits = False
    if not fits or not math.isfinite(floor):
        floor = -math.inf  # nothing is pruned
    elif margin > 1e-9 * magnitude and math.isfinite(total):
        # the exit: every other pick trails its group's best by more than
        # the slack, so the best picks are the unique optimum
        return floor, cost, tuple(top[0] for top in tops)
    # each candidate as (level bit, cost, free, utility, pick)
    rows = [[(1 << m, c, c <= 0, u, (m,)) for m, _, c, _, u in items] for items in scanned]
    # right to left: live[gi], the levels the groups after gi in its cluster
    # can pick, and rest[gi], the later groups' best utilities summed and 1
    # plus their magnitudes summed
    live = [0] * len(rows)
    rest = [(0.0, 1.0)] * len(rows)
    later, magnitude = 0.0, 1.0
    for gi in range(len(rows) - 1, 0, -1):
        if groups[gi][0] == groups[gi - 1][0]:
            levels = live[gi]
            for item in rows[gi]:
                levels |= item[0]
            live[gi - 1] = levels
        u = tops[gi][4]
        later += u
        magnitude += abs(u)
        rest[gi - 1] = (later, magnitude)
    # configuration = (paid, cost, -utility, picks): paid is a bitmask of the
    # live levels already charged in the current cluster, and the layout
    # sorts by paid set, then cost, then utility with no key
    frontier: list[tuple[int, float, float, tuple[int, ...]]] = [(0, 0.0, -0.0, ())]
    for gi, items in enumerate(rows):
        keep = live[gi]
        later, magnitude = rest[gi]
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
                nu2 = nu - u
                # no completion of it can reach the floor (a bound that
                # overflows is +inf or nan, as the slack overflows with it)
                if later - nu2 + 1e-9 * (magnitude + abs(nu2)) < floor:
                    continue
                merged.append((paid2 & keep, cost, nu2, picks + pick))
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
    # not -nu: utilities that sum to zero fold nu to +0.0, and the optimum
    # is then +0.0, as brute_force_groups's sum is
    return 0.0 - nu, cost, picks


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
    groups = [SolveGroup(_CHUNK(requests[ri]), build_candidates(requests[ri], cache, params))
              for ri in order]
    return order, groups


def _result(
    requests: Sequence[QualityRequest],
    order: list[int],
    best: Best | None,
) -> AssignmentResult:
    # picks follow the canonical order; None keeps the requests, flagged
    qualities = [r[3] for r in requests]  # requested_quality
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
        for g, (m, _, cost, _, utility) in zip(groups, combo):
            u += utility
            chunk = (g.cluster_key, m)
            if chunk not in seen:
                c += cost
                if cost > 0:
                    seen.add(chunk)
            if c > capacity_bps:
                break
        else:
            picks = tuple(item[0] for item in combo)
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
