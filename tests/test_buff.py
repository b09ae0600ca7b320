"""Greedy stall-avoiding assigner: candidate filtering, picking order, budget exhaustion."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from edgestream.assign_core import QualityRequest, SolverParams
from edgestream.buff import buff_assign
from edgestream.cache import LruChunkCache
from edgestream.catalog import QualityLadder
from edgestream.cli_metrics import ScenarioConfig, gen_random_instance
from reference_buff import buff_assign as reference_buff_assign


def _req(cid=0, video=0, chunk=0, m=1, buffer_s=8.0) -> QualityRequest:
    return QualityRequest(
        client_id=cid, video_id=video, chunk_index=chunk, requested_quality=m,
        buffer_s=buffer_s, effective_rate_bps=1e7, dl_queue_bits=0.0,
        dl_queue_media_s=0.0, fifo_backlog_bits=0.0,
    )


def _params(**kw) -> SolverParams:
    """ScenarioConfig(**kw)'s parameters (backhaul rate included) on a
    three-level ladder of 2 s chunks."""
    return dataclasses.replace(ScenarioConfig(**kw).solver_params(),
                               ladder=QualityLadder((1e6, 2e6, 4e6), 2.0, 1))


def test_empty_request_list():
    res = buff_assign([], LruChunkCache(), 2e7, ScenarioConfig().solver_params())
    assert res.qualities == ()
    assert res.total_utility == 0.0 and res.total_cost_bps == 0.0


def test_picks_highest_weighted_level_within_budget():
    res = buff_assign([_req()], LruChunkCache(), 2e7, _params(gamma=1))
    assert res.qualities == (2,)  # highest tolerated level, buffer is deep
    assert not res.no_valid_config
    assert res.total_cost_bps == 4e6


def test_budget_constrains_the_pick():
    # only the lowest tolerated level fits the remaining backhaul
    res = buff_assign([_req()], LruChunkCache(), 1e6, _params(gamma=1))
    assert res.qualities == (0,)
    assert res.total_cost_bps == 1e6


def test_cache_weight_tilts_the_greedy_order():
    cache = LruChunkCache()
    cache.insert(0, 0, 1, 4e6)  # mid level cached
    res = buff_assign([_req()], cache, 2e7, _params(gamma=1, mu_c=1.3))
    # 1.3*ln(2000) = 9.88 beats ln(4000) = 8.29
    assert res.qualities == (1,)
    assert res.total_cost_bps == 0.0


def test_unsafe_levels_filtered_except_the_floor():
    # thin buffer: every level projects negative, only the window floor stays
    res = buff_assign([_req(buffer_s=0.05)], LruChunkCache(),
                      2e7, _params(gamma=1, backhaul_mbps=1.0))
    assert res.qualities == (0,)
    assert not res.no_valid_config


def test_shared_chunk_rides_along_free():
    reqs = [_req(cid=0), _req(cid=1)]
    res = buff_assign(reqs, LruChunkCache(), 4e6, _params(gamma=1))
    # first pick pays 4e6 for the top level; the twin then costs nothing
    assert res.qualities == (2, 2)
    assert res.total_cost_bps == 4e6


def test_exhaustion_keeps_requested_quality_and_flags():
    reqs = [_req(cid=0), _req(cid=1, video=1)]  # distinct content, no sharing
    res = buff_assign(reqs, LruChunkCache(), 1e6, _params(gamma=0))
    # budget fits neither 2e6 download once the first greedy pick ran
    assert res.no_valid_config
    # nothing was affordable at all here, so both keep their requested level
    assert res.qualities == tuple(r.requested_quality for r in reqs) == (1, 1)


def test_partial_exhaustion_assigns_what_fits():
    reqs = [_req(cid=0), _req(cid=1, video=1)]
    res = buff_assign(reqs, LruChunkCache(), 2e6, _params(gamma=0))
    assert res.no_valid_config  # one request fell back
    assert res.total_cost_bps == 2e6
    assert res.qualities == (1, 1)  # fallback keeps the requested level too


def test_zero_tolerance_never_moves_the_level():
    rng = np.random.default_rng(9)
    for _ in range(30):
        requests, cache, backhaul, params = gen_random_instance(rng)
        params = dataclasses.replace(params, gamma=0)
        res = buff_assign(requests, cache, backhaul, params)
        assert res.qualities == tuple(r.requested_quality for r in requests)


def test_tolerance_and_cache_flags_respected():
    rng = np.random.default_rng(10)
    for _ in range(40):
        requests, cache, backhaul, params = gen_random_instance(rng)
        res = buff_assign(requests, cache, backhaul, params)
        assert len(res.qualities) == len(requests)
        for req, m in zip(requests, res.qualities):
            assert abs(m - req.requested_quality) <= params.gamma
        if not res.no_valid_config:
            # each distinct chunk the cache lacks is paid once, a cached one never
            fetched = {(r.video_id, r.chunk_index, m): params.ladder.bitrates_bps[m]
                       for r, m in zip(requests, res.qualities)
                       if not cache.contains(r.video_id, r.chunk_index, m)}
            assert res.total_cost_bps == pytest.approx(sum(fetched.values()))


def test_total_cost_never_exceeds_budget():
    rng = np.random.default_rng(12)
    for _ in range(40):
        requests, cache, backhaul, params = gen_random_instance(rng)
        res = buff_assign(requests, cache, backhaul, params)
        assert res.total_cost_bps <= backhaul + 1e-9


def test_one_pass_matches_the_repeated_scan_reference():
    rng = np.random.default_rng(21)
    fell_back = shared = 0
    for _ in range(2000):
        requests, cache, backhaul, params = gen_random_instance(rng)
        res = buff_assign(requests, cache, backhaul, params)
        assert repr(res) == repr(reference_buff_assign(requests, cache, backhaul, params))
        fell_back += res.no_valid_config
        if not res.no_valid_config:
            # every request took a pick; count draws where two fetched picks are one download
            fetched = [(r.video_id, r.chunk_index, m) for r, m in zip(requests, res.qualities)
                       if not cache.contains(r.video_id, r.chunk_index, m)]
            shared += len(set(fetched)) < len(fetched)
    # both the budget cut-off and the free ride are exercised, not just solo picks
    assert fell_back > 0 and shared > 0
