"""Plain Pareto fold over one cluster: prunes across paid sets after every merge.

It is the eager variant the solver does not use. Comparing configurations
that paid for different content drops a locally dominated pick before later
clients can share its cost, so it can miss the optimum of a shared cluster.
"""
from __future__ import annotations

from edgestream.cph import pareto_min


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
