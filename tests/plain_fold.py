"""Plain Pareto fold over one cluster: prunes across paid sets after every merge.

It is the eager variant the solver does not use. Comparing configurations
that paid for different content drops a locally dominated pick before later
clients can share its cost, so it can miss the optimum of a shared cluster.
"""
from __future__ import annotations

import math
from typing import Sequence


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


def plain_fold(groups, capacity_bps):
    """Best (utility, cost, picks) of the eager fold, with solve_groups'
    cost rule and tie-breaking; None when nothing fits."""
    frontier = [(0.0, 0.0, (), frozenset())]
    for group in groups:
        merged = []
        for (u, c, picks, paid) in frontier:
            for item in group.items:
                chunk = (group.cluster_key, item.quality_index)
                cost = c if chunk in paid else c + item.cost_bps
                if cost <= capacity_bps:
                    paid2 = paid | {chunk} if item.cost_bps > 0 else paid
                    merged.append((u + item.utility, cost, picks + (item.quality_index,), paid2))
        if not merged:
            return None
        frontier = pareto_min(merged)  # picks are unique, so paid sets never compare
    best = max(frontier, key=lambda p: (p[0], -p[1], tuple(-q for q in p[2])))
    return best[:3]
