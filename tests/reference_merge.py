"""`cph.solve_groups`'s merge with no floor, no bound and no early exit.

It keeps the live-paid-set dominance, so comparing solve_groups with it
checks the bound and the exit, not the dominance rule. That rule is checked
against `brute_force_groups` on small instances by
`test_in_cluster_pruning_matches_exhaustive_fold` and
`test_bounded_merge_matches_exhaustive_fold_bitwise`; this reference reaches
the engine's large calls, which brute force cannot."""
from __future__ import annotations


def reference_merge(groups, capacity_bps):
    """(utility, cost, picks) of the merge's optimum, or None if nothing fits."""
    # live[gi]: the levels the groups after gi in its cluster can pick
    live = [0] * len(groups)
    for gi in range(len(groups) - 1, 0, -1):
        if groups[gi][0] == groups[gi - 1][0]:
            live[gi - 1] = live[gi]
            for m, *_ in groups[gi][1]:
                live[gi - 1] |= 1 << m
    frontier = [(0, 0.0, -0.0, ())]  # (live paid levels, cost, -utility, picks)
    for keep, (_, items) in zip(live, groups):
        merged = []
        for paid, c, nu, picks in frontier:
            for m, _, item_cost, _, u in items:
                if paid & 1 << m:
                    cost, paid2 = c, paid
                else:
                    cost = c + item_cost
                    paid2 = paid if item_cost <= 0 else paid | 1 << m
                if not cost > capacity_bps:
                    merged.append((paid2 & keep, cost, nu - u, picks + (m,)))
        if not merged:
            return None
        merged.sort()
        frontier = [merged[0]]
        for config in merged[1:]:
            if config[0] != frontier[-1][0] or config[2] < frontier[-1][2]:
                frontier.append(config)
    _, cost, nu, picks = frontier[-1]
    return 0.0 - nu, cost, picks
