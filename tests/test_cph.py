"""Compositional Pareto solver: frontier algebra, merge order, exactness."""
from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from edgestream import ap_engine, cph
from edgestream.assign_core import (
    CandidateQuality,
    QualityRequest,
    SolverParams,
    tolerated_set,
)
from edgestream.cache import LruChunkCache
from edgestream.catalog import QualityLadder
from edgestream.cli_metrics import ScenarioConfig, gen_random_instance, run_replication
from edgestream.cph import (
    SolveGroup,
    brute_force_assign,
    brute_force_groups,
    canonical_order,
    cph_assign,
    solve_groups,
)
from plain_fold import pareto_min, plain_fold


class _MeteredIndex(int):
    """A candidate's quality index whose level bit, `1 << m`, counts the
    paid-set tests made on it and fails once they pass `limit()`."""

    def __new__(cls, m, limit):
        obj = super().__new__(cls, m)
        obj.pairs, obj.limit = 0, limit
        return obj

    def __rlshift__(self, other):
        return _MeteredBit(int(other) << int(self), self)


class _MeteredBit(int):
    def __new__(cls, bit, index):
        obj = super().__new__(cls, bit)
        obj.index = index
        return obj

    def __rand__(self, paid):
        index = self.index
        index.pairs += 1
        if index.pairs > index.limit():
            raise AssertionError("in-cluster frontier outgrew its paid sets")
        return paid & int(self)


class Metered(tuple):
    """A group's items that count the frontier entries the merge pairs them with.

    solve_groups reads a group's items once (`reads`), then tests every
    frontier entry's paid set against every item's level bit. The items'
    quality indices here count those tests, so `scans` is the number of
    frontier entries the group was merged with, and a frontier that outgrows
    `limit()` fails at once instead of hanging.
    """

    def __new__(cls, items, limit):
        obj = super().__new__(cls, (i._replace(quality_index=_MeteredIndex(i.quality_index, limit))
                                    for i in items))
        obj.reads = 0
        return obj

    def __iter__(self):
        self.reads += 1
        return super().__iter__()

    @property
    def scans(self):
        return self[0].quality_index.pairs


class TestParetoMin:
    def test_dominated_point_dropped(self):
        assert pareto_min([(20, 850), (7, 950)]) == [(20, 850)]

    def test_incomparable_points_kept(self):
        pts = [(20, 850), (25, 950), (7, 100)]
        assert pareto_min(pts) == [(7, 100), (20, 850), (25, 950)]

    def test_equal_points_keep_one_with_smallest_payload(self):
        assert pareto_min([(5, 100, "b"), (5, 100, "a")]) == [(5, 100, "a")]

    def test_cheaper_tie_on_utility_wins(self):
        assert pareto_min([(5, 100), (5, 80)]) == [(5, 80)]

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 1000),
                              st.integers(0, 9)), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_frontier_properties(self, pts):
        kept = pareto_min(pts)
        assert set(kept) <= set(pts)
        for p in kept:
            # nothing in the input strictly dominates a kept point
            assert not any(
                q[0] >= p[0] and q[1] <= p[1] and (q[0] > p[0] or q[1] < p[1])
                for q in pts
            )
        for p in pts:
            # every input point is covered by something kept
            assert any(k[0] >= p[0] and k[1] <= p[1] for k in kept)
        costs = [k[1] for k in kept]
        utils = [k[0] for k in kept]
        assert costs == sorted(costs)
        assert utils == sorted(utils)
        assert len(set((k[0], k[1]) for k in kept)) == len(kept)


def _group(cluster, pairs):
    # groups of one cluster share content by level; other clusters never do
    items = tuple(
        CandidateQuality(quality_index=m, cached=False,
                         cost_bps=float(c), estimated_buffer_s=0.0, utility=float(u))
        for m, (u, c) in enumerate(pairs)
    )
    return SolveGroup(cluster, items)


def _groups(*clusters):
    """One group per (cluster, [(utility, cost), ...]) pair, levels from 0."""
    return [_group(cluster, pairs) for cluster, pairs in clusters]


def _bits(best):
    """A solve's result with each float as its hex."""
    if best is None:
        return None
    utility, cost, picks = best
    return utility.hex(), cost.hex(), picks


# exact sums: quarters, large negatives and -inf, so that every tie is exact;
# a tie made by rounding is the solver's known caveat, not the bound's
_UTILITIES = st.one_of(
    st.integers(-12, 12).map(lambda k: k / 4),
    st.sampled_from([-1e12, -2.0**40, -math.inf]),
)


@st.composite
def _bound_instances(draw):
    """(groups, capacity): up to 3 clusters over overlapping windows of 1-3
    levels, one cost per level and cluster, and a finite or unbounded capacity."""
    n = draw(st.integers(1, 7))
    clusters = sorted(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    costs = {k: draw(st.lists(st.sampled_from([0.0, 50.5, 100.0, 200.0, 300.0]),
                              min_size=6, max_size=6)) for k in set(clusters)}
    groups = []
    for k in clusters:
        low = draw(st.integers(0, 3))
        groups.append(SolveGroup(k, tuple(
            CandidateQuality(quality_index=m, cached=False, cost_bps=costs[k][m],
                             estimated_buffer_s=0.0, utility=draw(_UTILITIES))
            for m in range(low, low + draw(st.integers(1, 3))))))
    capacity = draw(st.one_of(st.integers(0, 800).map(float), st.just(math.inf)))
    return groups, capacity


class TestSolveGroups:
    def test_additive_clusters_reach_known_optimum(self):
        groups = [
            _group("a", [(3, 150), (10, 400), (4, 500)]),
            _group("b", [(3, 450), (10, 450), (12, 800)]),
            _group("c", [(2, 100), (9, 300), (11, 900)]),
        ]
        assert solve_groups(groups, 1200.0) == (29.0, 1150.0, (1, 1, 1))

    def test_shared_cluster_pays_each_download_once(self):
        shared = [
            _group("v0", [(5, 300), (9, 700), (8, 1700)]),
            _group("v0", [(6, 300), (11, 700), (12, 1700)]),
            _group("v0", [(4, 300), (7, 700), (15, 1700)]),
        ]
        # all three on the top level: 1700 paid once, utilities sum to 35
        assert solve_groups(shared, 2000.0) == (35.0, 1700.0, (2, 2, 2))

    def test_eager_pruning_misses_shared_cost_optimum(self):
        shared = [
            _group("v0", [(5, 300), (9, 700), (8, 1700)]),
            _group("v0", [(6, 300), (11, 700), (12, 1700)]),
            _group("v0", [(4, 300), (7, 700), (15, 1700)]),
        ]
        got = plain_fold(shared, 2000.0)
        # pruning across paid sets drops the locally dominated expensive level
        assert got == (27.0, 700.0, (1, 1, 1))

    def test_equal_quality_shares_only_within_a_cluster(self):
        pair = [(1, 100), (5, 600)]
        one = [_group("v0", pair), _group("v0", pair)]
        two = [_group("v0", pair), _group("v1", pair)]
        # one cluster: the top level is one download, paid once
        assert solve_groups(one, 1200.0) == (10.0, 600.0, (1, 1))
        assert solve_groups(one, 600.0) == (10.0, 600.0, (1, 1))
        # two clusters: each group pays for its own download
        assert solve_groups(two, 1200.0) == (10.0, 1200.0, (1, 1))
        assert solve_groups(two, 600.0) == (2.0, 200.0, (0, 0))

    def test_in_cluster_pruning_matches_exhaustive_fold(self):
        # pruning among configurations with the same paid content must keep
        # the exact optimum of an unpruned enumeration with the same fold
        rng = np.random.default_rng(11)
        for _ in range(20):
            groups = [
                _group("v0" if g < 6 else f"k{g}",
                       [(float(rng.uniform(0, 10)),
                         float(rng.choice([0, rng.integers(1, 500)])))
                        for _ in range(4)])
                for g in range(7)
            ]
            capacity = float(rng.integers(300, 2000))
            assert solve_groups(groups, capacity) == brute_force_groups(groups, capacity)

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_live_paid_levels_match_exhaustive_fold(self, data):
        # overlapping windows of 1-3 levels in up to 3 clusters, one cost per
        # level and cluster, and small integer utilities that force full ties
        n = data.draw(st.integers(1, 7))
        clusters = sorted(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        costs = {k: data.draw(st.lists(st.sampled_from([0, 100, 200, 300]),
                                       min_size=6, max_size=6)) for k in set(clusters)}
        groups = []
        for k in clusters:
            low = data.draw(st.integers(0, 3))
            levels = range(low, low + data.draw(st.integers(1, 3)))
            groups.append(SolveGroup(k, tuple(
                CandidateQuality(quality_index=m, cached=False,
                                 cost_bps=float(costs[k][m]), estimated_buffer_s=0.0,
                                 utility=float(data.draw(st.integers(0, 4))))
                for m in levels)))
        capacity = float(data.draw(st.integers(0, 800)))
        assert solve_groups(groups, capacity) == brute_force_groups(groups, capacity)

    @given(_bound_instances())
    @settings(max_examples=400, deadline=None)
    # the capacity binds the floor's picks (floor -inf), then does not bind
    @example((_groups(("a", [(1, 100), (5, 600)]), ("b", [(1, 100), (5, 600)])), 700.0))
    @example((_groups(("a", [(1, 100), (5, 600)]), ("b", [(1, 100), (5, 600)])), math.inf))
    # exact ties within a group and across groups
    @example((_groups(("a", [(2, 100), (2, 100), (1, 0)]), ("b", [(2, 50), (2, 100)]),
                      ("c", [(1, 0), (2, 100)])), 250.0))
    # a shared-download cluster whose optimum is not every group's best pick
    @example((_groups(("v0", [(5, 300), (9, 700), (8, 1700)]),
                      ("v0", [(6, 300), (11, 700), (12, 1700)]),
                      ("v0", [(4, 300), (7, 700), (15, 1700)])), 2000.0))
    # -inf and large negative utilities, with the floor finite and not
    @example((_groups(("a", [(-math.inf, 0), (-1e300, 100)]), ("b", [(3, 0), (-1e300, 0)])),
              100.0))
    @example((_groups(("a", [(-math.inf, 0), (5, 600)]), ("b", [(1, 0), (4, 600)])), 700.0))
    # a floor that overflows to +inf: the cheaper first pick folds to +inf
    # too, and wins the tie on cost
    @example((_groups(("a", [(9.5e307, 0), (1e308, 100)]), ("b", [(8.9e307, 0)]),
                      ("c", [(-8.9e307, 0)])), 100.0))
    # sums that round: the floor, 0.1 + 0.2 + 0.3 folded, exceeds 0.1 plus the
    # later bests summed (0.6), so only the slack keeps the optimum's prefix
    @example((_groups(("a", [(0.1, 0), (0, 0)]), ("b", [(0.2, 0), (0, 0)]), ("c", [(0.3, 0)])),
              0.0))
    # utilities that sum to zero: the optimum is +0.0 on both sides
    @example((_groups(("a", [(1.0, 0)]), ("b", [(-1.0, 0)])), 0.0))
    def test_bounded_merge_matches_exhaustive_fold_bitwise(self, instance):
        # pruning against the floor keeps the optimum bit for bit. An optimum
        # of -inf ties every feasible configuration, where the unpruned merge
        # already breaks ties its own way, so such draws are skipped.
        groups, capacity = instance
        best = brute_force_groups(groups, capacity)
        assume(best is None or best[0] > -math.inf)
        assert _bits(solve_groups(groups, capacity)) == _bits(best)

    def test_large_shared_cluster_stays_tractable(self):
        # 3^14 unpruned configurations. Configurations with the same paid set
        # cost the same, so one survives per paid set, and five paid sets fit
        # under 1000: no frontier holds more than 5 entries.
        # Everyone on level 2 pays 900 once.
        groups = [_group("v0", [(1, 100), (2, 300), (3, 900)]) for _ in range(14)]
        groups = [SolveGroup(g.cluster_key, Metered(g.items, lambda: 5)) for g in groups]
        assert solve_groups(groups, 1000.0) == (42.0, 900.0, (2,) * 14)

    def test_merge_reads_each_candidate_once_per_group(self):
        # the cluster above: each group's items are read once, and every item
        # is paired with every entry of the frontier it is merged into. Every
        # group's best pick, level 2, is feasible, so the floor is the optimum
        # (42.0) and only the all-level-2 prefix survives each merge
        groups = [_group("v0", [(1, 100), (2, 300), (3, 900)]) for _ in range(14)]
        groups = [SolveGroup(g.cluster_key, Metered(g.items, lambda: 5)) for g in groups]
        assert solve_groups(groups, 1000.0) == (42.0, 900.0, (2,) * 14)
        assert [g.items.reads for g in groups] == [1] * 14
        assert all(len({i.quality_index.pairs for i in g.items}) == 1 for g in groups)
        assert [g.items.scans for g in groups] == [1] * 14

    def test_spread_cluster_stays_tractable(self, monkeypatch):
        # 24 warm requests for one chunk spread over a 19-level ladder, with
        # client ids shuffled: sorted by requested quality the windows slide,
        # so at most 2**5 paid sets are live and every scan count stays small
        rates = tuple(1e5 * 1.25 ** m for m in range(19))
        ids = np.random.default_rng(3).permutation(24)
        reqs = [_mk_request(int(cid), 0, 0, i % 19) for i, cid in enumerate(ids)]
        solve = cph.solve_groups

        def metered_solve(groups, capacity_bps):
            return solve([SolveGroup(g.cluster_key, Metered(g.items, lambda: 1000))
                          for g in groups], capacity_bps)

        monkeypatch.setattr(cph, "solve_groups", metered_solve)
        res = cph_assign(reqs, LruChunkCache(), math.inf, _params(rates, gamma=2))
        assert not res.no_valid_config
        assert all(abs(m - r.requested_quality) <= 2 for r, m in zip(reqs, res.qualities))

    def test_infeasible_returns_none(self):
        groups = [_group("a", [(1, 100), (2, 200)])]
        assert solve_groups(groups, 50.0) is None

    def test_capacity_boundary_is_inclusive(self):
        groups = [_group("a", [(1, 100), (2, 200)])]
        assert solve_groups(groups, 200.0) == (2.0, 200.0, (1,))

    def test_no_groups_is_the_empty_solution(self):
        assert solve_groups([], 100.0) == (0.0, 0.0, ())

    def test_zero_cost_item_survives_zero_capacity(self):
        groups = [_group("a", [(1, 0), (9, 500)])]
        assert solve_groups(groups, 0.0) == (1.0, 0.0, (0,))

    def test_full_ties_return_the_smallest_picks(self):
        def tied(cluster, *points):
            # (quality, utility, cost), listed largest quality first
            return SolveGroup(cluster, tuple(
                CandidateQuality(quality_index=m, cached=False,
                                 cost_bps=float(c), estimated_buffer_s=0.0, utility=float(u))
                for m, u, c in points))
        # singleton clusters: levels 2 and 0 of each group tie on (utility, cost)
        singles = [tied("a", (2, 3, 100), (0, 3, 100)), tied("b", (2, 2, 50), (0, 2, 50))]
        assert solve_groups(singles, 1000.0) == (5.0, 150.0, (0, 0))
        # one shared cluster: (1, 1) and (0, 0) both pay one 100-bps download
        shared = [tied("v0", (1, 2, 100), (0, 1, 100)), tied("v0", (1, 1, 100), (0, 2, 100))]
        assert solve_groups(shared, 100.0) == (3.0, 100.0, (0, 0))


def _mk_request(cid, video, chunk, m, share=0.5) -> QualityRequest:
    return QualityRequest(
        client_id=cid, video_id=video, chunk_index=chunk, requested_quality=m,
        buffer_s=8.0, effective_rate_bps=2e7 * share, dl_queue_bits=0.0,
        dl_queue_media_s=0.0, fifo_backlog_bits=0.0,
    )


def _params(rates, **kw) -> SolverParams:
    """ScenarioConfig(**kw)'s parameters (a 20 Mbps backhaul by default) on a
    ladder of `rates` and 2 s chunks."""
    return dataclasses.replace(ScenarioConfig(**kw).solver_params(),
                               ladder=QualityLadder(rates, 2.0, 1))


class TestCphAssign:
    def test_empty_request_list(self):
        # no shortcut: the general paths fold zero groups into the empty pick
        for solve in (cph_assign, brute_force_assign):
            res = solve([], LruChunkCache(), 2e7, ScenarioConfig().solver_params())
            assert res.qualities == ()
            assert not res.no_valid_config
            assert res.total_utility == 0.0 and res.total_cost_bps == 0.0
        assert brute_force_groups([], 2e7) == solve_groups([], 2e7) == (0.0, 0.0, ())

    def test_infeasible_falls_back_to_requested(self):
        req = _mk_request(0, 0, 0, 1)
        res = cph_assign([req], LruChunkCache(), 0.0, _params((1e6, 2e6), gamma=0))
        assert res.no_valid_config
        assert res.total_utility is None and res.total_cost_bps is None
        assert res.qualities == (1,)

    def test_shared_download_paid_once(self):
        rates = (1e6, 2e6)
        reqs = [_mk_request(0, 0, 0, 1), _mk_request(1, 0, 0, 1)]
        # budget fits a single 2e6 download; sharing it is the only way up
        res = cph_assign(reqs, LruChunkCache(), 2e6, _params(rates, gamma=1))
        assert not res.no_valid_config
        assert res.total_cost_bps == 2e6
        assert res.qualities == (1, 1)

    def test_cached_level_attracts_and_flags(self):
        rates = (1e6, 2e6, 4e6)
        cache = LruChunkCache()
        cache.insert(0, 0, 2, 8e6)
        res = cph_assign([_mk_request(0, 0, 0, 1)], cache, 2e7,
                         _params(rates, gamma=1, mu_c=1.3))
        assert res.qualities == (2,) and cache.contains(0, 0, 2)
        assert res.total_cost_bps == 0.0

    def test_assignments_align_with_input_order(self):
        rates = (1e6, 2e6, 4e6)
        cache = LruChunkCache()
        cache.insert(1, 5, 0, 2e6)
        reqs = [
            _mk_request(2, 1, 5, 0),
            _mk_request(0, 0, 3, 2, share=0.05),
            _mk_request(1, 1, 5, 1),
        ]
        params = _params(rates, gamma=1)
        base = cph_assign(reqs, cache, 2e8, params).qualities
        assert len(set(base)) > 1  # distinct picks, so a misalignment would show
        for perm in itertools.permutations(range(len(reqs))):
            res = cph_assign([reqs[i] for i in perm], cache, 2e8, params)
            assert res.qualities == tuple(base[i] for i in perm), perm

    def test_canonical_order_groups_shareable_requests(self):
        reqs = [
            _mk_request(0, 1, 0, 0),
            _mk_request(1, 0, 0, 0),
            _mk_request(2, 1, 0, 0),
        ]
        order = canonical_order(reqs)
        keys = [(reqs[i].video_id, reqs[i].chunk_index) for i in order]
        assert keys == sorted(keys)

    def test_tolerance_respected(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            requests, cache, backhaul, params = gen_random_instance(rng)
            res = cph_assign(requests, cache, backhaul, params)
            if res.no_valid_config:
                continue
            assert len(res.qualities) == len(requests)
            for req, m in zip(requests, res.qualities):
                assert abs(m - req.requested_quality) <= params.gamma

    def test_matches_exhaustive_search_bitwise(self):
        rng = np.random.default_rng(5)
        for _ in range(120):
            requests, cache, backhaul, params = gen_random_instance(rng)
            optimum = brute_force_assign(requests, cache, backhaul, params).total_cost_bps
            # 0 and the optimum's own cost put the capacity exactly on a sum of costs
            for capacity in (backhaul, 0.0, optimum or 0.0):
                fast = cph_assign(requests, cache, capacity, params)
                slow = brute_force_assign(requests, cache, capacity, params)
                assert fast == slow

    def test_brute_force_refuses_instances_past_its_limit(self):
        rates = (1e6, 2e6, 4e6, 8e6, 1.6e7)
        reqs = [_mk_request(c, 0, c, 2) for c in range(9)]
        # five tolerated levels each: 5**9 combinations > BRUTE_FORCE_LIMIT
        assert 5 ** 9 > cph.BRUTE_FORCE_LIMIT
        with pytest.raises(ValueError, match="instance too large"):
            brute_force_assign(reqs, LruChunkCache(), 2e7, _params(rates, gamma=2))


@pytest.mark.parametrize("scheme", ["CPH", "CPH-EQ", "BUFF"])
def test_synchronized_burst_replication_stays_clean(scheme, monkeypatch):
    # 12 clients of one video start together, so solver calls hold clusters
    # of up to 12 requests: 5^12 unpruned configurations at gamma = 2.
    # Inside a cluster with K chargeable chunks the frontier keeps, for each
    # entry it entered the cluster with, one entry per paid subset and per
    # rounding of that subset's cost: summed in another order, K + 1 terms
    # round to at most 2K + 1 neighbouring floats.
    solve = cph.solve_groups

    def metered_solve(groups, *args, **kwargs):
        wrapped, first = [], {}
        for g in groups:
            key = g.cluster_key
            if key not in first:
                items = first[key] = Metered(g.items, lambda: math.inf)
            else:
                paid = {i.quality_index for h in groups if h.cluster_key == key
                        for i in h.items if i.cost_bps > 0}
                items = Metered(g.items, lambda f=first[key], k=len(paid):
                                f.scans * 2 ** k * (2 * k + 1))
            wrapped.append(SolveGroup(key, items))
        return solve(wrapped, *args, **kwargs)

    monkeypatch.setattr(cph, "solve_groups", metered_solve)
    cfg = dataclasses.replace(ScenarioConfig(), n_clients=12, n_videos=1,
                              start_offset_max_s=0.0, chunk_count=20)
    result = run_replication(cfg, scheme, rep=0)
    assert result.all_finished
    assert result.delivered_chunks == 12 * 20
    assert result.violations == []
    assert result.solver_calls > 0
    assert result.solver_fallbacks == 0


def test_engine_solver_calls_match_exhaustive_search(monkeypatch):
    # oracle-check draws its own instances; this checks the ones the engine
    # builds: warm clusters, real backlogs, startup bursts and fallbacks.
    # Calls whose tolerance product exceeds 2e4 (synchronized startup
    # bursts) are left to the unit tests above.
    counts = {"checked": 0, "fallbacks": 0, "skipped": 0}
    mismatches = []

    def checked_assign(requests, cache, capacity_bps, params):
        res = cph_assign(requests, cache, capacity_bps, params)
        levels = len(params.ladder.bitrates_bps)
        space = math.prod(len(tolerated_set(r.requested_quality, params.gamma, levels))
                          for r in requests)
        if space > 2 * 10**4:
            counts["skipped"] += 1
            return res
        counts["checked"] += 1
        counts["fallbacks"] += res.no_valid_config
        if res != brute_force_assign(requests, cache, capacity_bps, params):
            mismatches.append((len(requests), capacity_bps))
        return res

    monkeypatch.setattr(ap_engine, "cph_assign", checked_assign)
    base = dataclasses.replace(ScenarioConfig(), chunk_count=20, reps=2)
    for point in (dict(n_clients=4, n_videos=1),
                  dict(n_clients=6, n_videos=2, gamma=1),
                  dict(n_clients=5, n_videos=1, backhaul_mbps=5.0,
                       cache_capacity_bits=64e6)):
        cfg = dataclasses.replace(base, **point)
        for scheme in ("CPH", "CPH-EQ"):
            for rep in range(cfg.reps):
                assert run_replication(cfg, scheme, rep).violations == []
    assert mismatches == []
    assert counts["checked"] >= 400, counts
    assert counts["fallbacks"] >= 1, counts
