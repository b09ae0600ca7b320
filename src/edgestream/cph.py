"""Compositional Pareto-algebraic quality assignment with exact oracle.

The solver forms one group of scored candidates per request, merges groups
by Cartesian product under the shared-download cost rule (a chunk fetched
for one client is free for every other client picking the identical
content), and after every merge keeps the Pareto-optimal (utility, cost)
points among configurations that have paid for the same content. A
cluster is a run of groups for one video and chunk, so within it an equal
quality is the same chunk and shares one download. Configurations with the
same paid levels face identical costs for the rest of the cluster, while a
pick dominated by one with other paid levels can still win once enough
clients share its cost. A cluster boundary resets the paid set, so there the
same rule prunes the whole frontier: across clusters costs are strictly
additive.

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
import math
from dataclasses import dataclass
from typing import Hashable, NamedTuple, Sequence

from .assign_core import (
    CandidateQuality,
    QualityRequest,
    SolverParams,
    build_candidates,
)
from .cache import LruChunkCache


BRUTE_FORCE_LIMIT = 10**6  # most combinations brute_force_assign enumerates


class SolveGroup(NamedTuple):
    cluster_key: Hashable  # (video, chunk): an equal quality is one download
    items: tuple[CandidateQuality, ...]


@dataclass(frozen=True)
class AssignmentResult:
    qualities: tuple[int, ...]  # one delivery quality per request, in input order
    no_valid_config: bool
    total_utility: float | None
    total_cost_bps: float | None


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


def solve_groups(
    groups: Sequence[SolveGroup], capacity_bps: float
) -> tuple[float, float, tuple[int, ...]] | None:
    """Best (utility, cost, picks) over all feasible configurations, exact
    up to float rounding (see the module docstring).

    Groups sharing a cluster_key must be contiguous in `groups`; within a
    cluster an equal quality_index shares one download. After each merge
    only configurations with the same paid set are compared; a cluster
    boundary resets the paid set first. Returns None when no configuration
    fits the capacity.
    """
    # configuration = (utility, cost, picks, paid) where paid is a bitmask of
    # the quality levels already charged within the current cluster
    frontier: list[tuple[float, float, tuple[int, ...], int]] = [(0.0, 0.0, (), 0)]
    for gi, group in enumerate(groups):
        cluster_ends = gi + 1 == len(groups) or groups[gi + 1].cluster_key != group.cluster_key
        merged: list[tuple[float, float, tuple[int, ...], int]] = []
        for (u, c, picks, paid) in frontier:
            for item in group.items:
                level = 1 << item.quality_index
                shared = paid & level
                cost = c if shared else c + item.cost_bps
                if cost > capacity_bps:
                    continue
                if cluster_ends:
                    paid2 = 0  # later clusters share no content with this one
                elif shared or item.cost_bps <= 0:
                    paid2 = paid
                else:
                    paid2 = paid | level
                merged.append((u + item.utility, cost, picks + (item.quality_index,), paid2))
        if not merged:
            return None
        # at a cluster end every paid set is 0, so one pareto_min is the same prune
        frontier = pareto_min(merged) if cluster_ends else _prune_within_paid_sets(merged)

    # highest utility, then lowest cost, then lexicographically smallest picks
    u, neg_c = max((p[0], -p[1]) for p in frontier)
    return u, -neg_c, min(p[2] for p in frontier if p[0] == u and p[1] == -neg_c)


def _prune_within_paid_sets(configs):
    # equal paid sets mean equal costs for every completion of the cluster,
    # so dominance among them is final and Cartesian growth stays bounded;
    # picks are unique, so pareto_min never compares the paid sets
    by_paid: dict[int, list[tuple]] = {}
    for config in configs:
        by_paid.setdefault(config[3], []).append(config)
    return [config for same_paid in by_paid.values() for config in pareto_min(same_paid)]


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
) -> tuple[list[int], list[SolveGroup]]:
    order = canonical_order(requests)
    groups = [
        SolveGroup((requests[ri].video_id, requests[ri].chunk_index),
                   tuple(build_candidates(requests[ri], cache, params)))
        for ri in order
    ]
    return order, groups


def _result(
    requests: Sequence[QualityRequest],
    order: list[int],
    best: tuple[float, float, tuple[int, ...]] | None,
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
    backhaul_bps: float,
    params: SolverParams,
) -> AssignmentResult:
    """Assign a quality to every request, falling back to the requested
    qualities (flagged) when no configuration fits the backhaul budget."""
    if not requests:
        return AssignmentResult((), False, 0.0, 0.0)
    order, groups = _request_groups(requests, cache, params)
    return _result(requests, order, solve_groups(groups, backhaul_bps))


def brute_force_assign(
    requests: Sequence[QualityRequest],
    cache: LruChunkCache,
    backhaul_bps: float,
    params: SolverParams,
) -> AssignmentResult:
    """Exhaustive oracle over all tolerated combinations; same fold and
    tie-breaking as cph_assign so optima compare bitwise."""
    if not requests:
        return AssignmentResult((), False, 0.0, 0.0)
    order, groups = _request_groups(requests, cache, params)
    space = 1
    for g in groups:
        space *= len(g.items)
        if space > BRUTE_FORCE_LIMIT:
            raise ValueError(f"instance too large for exhaustive search (> {BRUTE_FORCE_LIMIT})")
    best: tuple[float, float, tuple[int, ...]] | None = None
    for combo in itertools.product(*(g.items for g in groups)):
        u = 0.0
        c = 0.0
        seen: set = set()
        feasible = True
        for g, item in zip(groups, combo):
            u += item.utility
            chunk = (g.cluster_key, item.quality_index)
            if chunk not in seen:
                c += item.cost_bps
                if item.cost_bps > 0:
                    seen.add(chunk)
            if c > backhaul_bps:
                feasible = False
                break
        if not feasible:
            continue
        picks = tuple(item.quality_index for item in combo)
        if (best is None or (u, -c) > (best[0], -best[1])
                or (u, c) == best[:2] and picks < best[2]):
            best = (u, c, picks)
    return _result(requests, order, best)


# Instance files for the oracle differential harness. UTF-8 text, one record
# per line:
#   params <gamma> <mu_c> <b_min_s> <b_max_s>
#   backhaul <bps>
#   cached <video> <chunk> <quality> <size_bits>
#   request <client> <video> <chunk> <m> <tau> <buffer> <C> <share> \
#           <dlq_bits> <dlq_media> <backlog_bits> <bh_rate> <rate0,rate1,...>
_RECORD_FIELDS = {"params": 5, "backhaul": 2, "cached": 5, "request": 14}
# a request's <tau> .. <bh_rate> fields; all must be >= 0, these three > 0
_REQUEST_FLOATS = ("chunk_duration_s", "buffer_s", "link_capacity_bps", "equal_share",
                   "dl_queue_bits", "dl_queue_media_s", "fifo_backlog_bits",
                   "backhaul_rate_bps")
_POSITIVE_REQUEST_FLOATS = ("chunk_duration_s", "link_capacity_bps", "equal_share")


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
        f.write(
            f"params {params.gamma} {params.mu_c!r} {params.b_min_s!r} "
            f"{params.b_max_s!r}\n"
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
                want = _RECORD_FIELDS.get(parts[0])
                if want is not None and len(parts) != want:
                    raise ValueError(f"{parts[0]} record needs {want} fields, got {len(parts)}")
                if parts[0] == "params":
                    params = SolverParams(
                        gamma=int(parts[1]), mu_c=float(parts[2]),
                        b_min_s=float(parts[3]), b_max_s=float(parts[4]),
                    )
                elif parts[0] == "backhaul":
                    backhaul = float(parts[1])
                elif parts[0] == "cached":
                    cache.insert(int(parts[1]), int(parts[2]), int(parts[3]), float(parts[4]))
                elif parts[0] == "request":
                    rates = tuple(float(x) for x in parts[13].split(","))
                    if not (rates[0] > 0 and all(b > a for a, b in zip(rates, rates[1:]))):
                        raise ValueError("request ladder must be positive and strictly ascending")
                    m = int(parts[4])
                    if not 0 <= m < len(rates):
                        raise ValueError(f"requested quality {m} outside ladder of {len(rates)}")
                    values = dict(zip(_REQUEST_FLOATS, map(float, parts[5:13])))
                    for name, value in values.items():
                        if name in _POSITIVE_REQUEST_FLOATS and not value > 0:
                            raise ValueError(f"request {name} must be > 0, got {value!r}")
                        if not value >= 0:
                            raise ValueError(f"request {name} must be >= 0, got {value!r}")
                    requests.append(QualityRequest(
                        client_id=int(parts[1]), video_id=int(parts[2]),
                        chunk_index=int(parts[3]), requested_quality=m,
                        bitrates_bps=rates, **values,
                    ))
                else:
                    raise ValueError(f"unknown record {parts[0]!r}")
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from None
    if backhaul is None or params is None:
        raise ValueError(f"{path}: missing params or backhaul record")
    return requests, cache, backhaul, params
