"""Candidate scoring, and its reference spec: tolerance window, delivery cost, utility."""
from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgestream.assign_core import QualityRequest, SolverParams, build_candidates
from edgestream.cache import LruChunkCache
from edgestream.catalog import QualityLadder, make_synthetic_catalog
from edgestream.cli_metrics import ScenarioConfig
from reference_scoring import delivery_cost, estimate_buffer, tolerated_set, utility


class TestToleratedSet:
    def test_interior_window(self):
        assert tolerated_set(5, 2, 19) == (3, 4, 5, 6, 7)

    def test_clipped_at_bottom(self):
        assert tolerated_set(1, 2, 19) == (0, 1, 2, 3)

    def test_clipped_at_top(self):
        assert tolerated_set(18, 2, 19) == (16, 17, 18)

    def test_zero_tolerance_is_identity(self):
        assert tolerated_set(7, 0, 19) == (7,)

    def test_whole_ladder_when_tolerance_large(self):
        assert tolerated_set(1, 10, 4) == (0, 1, 2, 3)

    @pytest.mark.parametrize("m", [-1, 19])
    def test_request_outside_ladder_rejected(self, m):
        with pytest.raises(ValueError):
            tolerated_set(m, 2, 19)


def test_delivery_cost():
    assert delivery_cost(3e6, cached=True) == 0.0
    assert delivery_cost(3e6, cached=False) == 3e6


class TestUtility:
    def test_cached_comfortable(self):
        assert utility(3e6, True, 1.3, 10.0, 4.0, 15.0) == 12.710862930939367

    def test_uncached_comfortable(self):
        assert utility(3e6, False, 1.3, 10.0, 4.0, 15.0) == 10.308952660644291

    def test_buffer_term_clamped_at_b_max(self):
        got = utility(3e6, False, 1.3, 40.0, 4.0, 15.0)
        assert got == 10.714417768752456
        assert got == utility(3e6, False, 1.3, 15.0, 4.0, 15.0)

    def test_shallow_buffer_rewards_buffer_only(self):
        got = utility(3e6, True, 1.3, 2.0, 4.0, 15.0)
        assert got == pytest.approx(1.3 * math.log(2.0))
        # bitrate must not enter this regime
        assert got == utility(9e6, True, 1.3, 2.0, 4.0, 15.0)

    def test_negative_projection_passes_through(self):
        assert utility(3e6, False, 1.3, -3.25, 4.0, 15.0) == -3.25
        assert utility(3e6, True, 1.3, 0.0, 4.0, 15.0) == 0.0

    def test_cache_weight_is_a_log_multiplier(self):
        q = 2e6 / 1e3
        diff = (utility(2e6, True, 1.3, 10.0, 4.0, 15.0)
                - utility(2e6, False, 1.3, 10.0, 4.0, 15.0))
        assert diff == pytest.approx(0.3 * math.log(q))

    def test_invalid_bitrate(self):
        with pytest.raises(ValueError):
            utility(0.0, False, 1.3, 10.0, 4.0, 15.0)
        with pytest.raises(ValueError):
            utility(-1e6, False, 1.3, 10.0, 4.0, 15.0)


class TestSolverParams:
    def test_defaults_valid(self):
        # the defaults are ScenarioConfig's; SolverParams states none of its own
        p = ScenarioConfig().solver_params()
        assert p == SolverParams(gamma=2, mu_c=1.3, b_min_s=4.0, b_max_s=15.0,
                                 ladder=make_synthetic_catalog(19, 100e3, 15e6, 2.0, 300),
                                 backhaul_bps=2e7)
        with pytest.raises(TypeError):
            SolverParams()

    @pytest.mark.parametrize("kw", [
        dict(gamma=-1),
        dict(mu_c=0.9),
        dict(b_min_s=15.0, b_max_s=4.0),
        dict(b_min_s=0.0),
        dict(b_min_s=0.5, b_max_s=1.0),  # a 2 s chunk never fits a 1 s buffer
        dict(backhaul_bps=-1.0),
        dict(backhaul_bps=math.nan),
    ])
    def test_invalid_params(self, kw):
        with pytest.raises(ValueError):
            dataclasses.replace(ScenarioConfig().solver_params(), **kw)

    def test_level_table_is_out_of_eq_hash_and_repr(self):
        p = ScenarioConfig().solver_params()
        stale = dataclasses.replace(p)
        object.__setattr__(stale, "levels", ())
        assert stale == p and hash(stale) == hash(p)
        assert "levels" not in repr(p)
        with pytest.raises(TypeError):
            SolverParams(gamma=2, mu_c=1.3, b_min_s=4.0, b_max_s=15.0, ladder=p.ladder,
                         backhaul_bps=2e7, levels=())

    def test_replace_rebuilds_the_level_table(self):
        # replace() is how a run swaps its ladder; a stale table would score the old one
        p = ScenarioConfig().solver_params()
        ladder = QualityLadder((1e6, 2e6, 4e6), 2.0, 1)
        swapped = dataclasses.replace(p, ladder=ladder)
        assert [row[0] for row in swapped.levels] == [1e6, 2e6, 4e6]
        assert [row[1] for row in swapped.levels] == [2e6, 4e6, 8e6]
        reweighted = dataclasses.replace(swapped, mu_c=2.5)
        assert [row[2] for row in reweighted.levels] == [row[2] for row in swapped.levels]
        assert [row[3] for row in reweighted.levels] == [2.5 * math.log(q / 1e3)
                                                        for q in (1e6, 2e6, 4e6)]


def _request(**kw) -> QualityRequest:
    base = dict(
        client_id=0,
        video_id=0,
        chunk_index=0,
        requested_quality=1,
        buffer_s=8.0,
        effective_rate_bps=4e6,   # a quarter of a 16 Mbps link
        dl_queue_bits=0.0,
        dl_queue_media_s=0.0,
        fifo_backlog_bits=2e6,
    )
    base.update(kw)
    return QualityRequest(**base)


class TestBuildCandidates:
    def _params(self, backhaul_bps=2e6, **kw) -> SolverParams:
        return dataclasses.replace(ScenarioConfig(gamma=1).solver_params(),
                                   ladder=QualityLadder((1e6, 2e6, 4e6), 2.0, 1),
                                   backhaul_bps=backhaul_bps, **kw)

    def test_window_and_per_level_scoring(self):
        cache = LruChunkCache()
        cache.insert(0, 0, 2, 8e6)  # top level of this chunk is cached
        cands = build_candidates(_request(), cache, self._params())
        assert [m for m, *_ in cands] == [0, 1, 2]

        # level 0: backhaul wait (2e6+2e6)/2e6 = 2 s, transfer 2e6/4e6 = 0.5 s
        _, cached, cost_bps, b_hat, u = cands[0]
        assert not cached
        assert cost_bps == 1e6
        assert b_hat == pytest.approx(8.0 - 2.5)
        assert u == pytest.approx(math.log(1e3) + math.log(5.5))

        # level 1: wait 3 s, transfer 1 s -> lands exactly at the comfort floor
        _, _, _, b_hat, u = cands[1]
        assert b_hat == pytest.approx(4.0)
        assert u == pytest.approx(math.log(2e3) + math.log(4.0))

        # level 2 is cache-served: no backhaul wait, no backhaul cost
        _, cached, cost_bps, b_hat, u = cands[2]
        assert cached
        assert cost_bps == 0.0
        assert b_hat == pytest.approx(8.0 - 2.0)
        assert u == pytest.approx(1.3 * math.log(4e3) + math.log(6.0))

    def test_cache_state_keys_on_exact_level(self):
        cache = LruChunkCache()
        cache.insert(0, 0, 0, 2e6)  # different level than the lookups below
        cands = build_candidates(_request(), cache, self._params())
        assert [cached for _, cached, *_ in cands] == [True, False, False]

    def test_effective_rate_is_equal_share_of_link(self):
        cands = build_candidates(_request(effective_rate_bps=16e6 * 0.5), LruChunkCache(),
                                 self._params(gamma=0))
        _, _, cost_bps, b_hat, _ = cands[0]
        assert cost_bps == 2e6  # uncached, so its cost is its bitrate
        # transfer time halves when the assumed share doubles: 4e6 bits / 8e6 bps
        assert b_hat == pytest.approx(8.0 - 3.0 - 0.5)

    def test_zero_backhaul_rate_sinks_uncached_levels(self):
        cands = build_candidates(_request(), LruChunkCache(),
                                 self._params(backhaul_bps=0.0, gamma=0))
        _, _, _, b_hat, u = cands[0]
        assert b_hat == -math.inf
        assert u == -math.inf

    def test_queued_bits_shift_the_projection(self):
        # 4e6 queued bits at 4e6 bps effective = 1 s extra wait, 6 s media gain
        cands = build_candidates(
            _request(dl_queue_bits=4e6, dl_queue_media_s=6.0),
            LruChunkCache(), self._params(gamma=0))
        # max(drain 1.0, backhaul 3.0) + transfer 1.0, then +6 media
        assert cands[0][3] == pytest.approx(8.0 - 3.0 - 1.0 + 6.0)  # estimated_buffer_s



def _spec_candidates(request: QualityRequest, cache: LruChunkCache,
                     params: SolverParams) -> list[tuple]:
    """build_candidates as the composition of tolerated_set, estimate_buffer,
    delivery_cost and utility, one call each per tolerated level."""
    bitrates, tau = params.ladder.bitrates_bps, params.ladder.chunk_duration_s
    rate_eff, backhaul = request.effective_rate_bps, params.backhaul_bps
    out = []
    for m in tolerated_set(request.requested_quality, params.gamma, len(bitrates)):
        rate = bitrates[m]
        cached = cache.contains(request.video_id, request.chunk_index, m)
        bits = rate * tau
        if cached:
            delay = 0.0
        else:
            delay = (request.fifo_backlog_bits + bits) / backhaul if backhaul > 0 else math.inf
        b_hat = estimate_buffer(
            current_buffer_s=request.buffer_s,
            backhaul_delay_s=delay,
            dl_transmit_s=bits / rate_eff if rate_eff > 0 else math.inf,
            dl_queue_bits=request.dl_queue_bits,
            dl_queue_media_s=request.dl_queue_media_s,
            effective_rate_bps=rate_eff,
        )
        out.append((m, cached, delivery_cost(rate, cached), b_hat,
                    utility(rate, cached, params.mu_c, b_hat, params.b_min_s, params.b_max_s)))
    return out


def _bits(rows) -> list[tuple]:
    # floats by their exact bits, so -0.0 and 0.0 differ
    return [tuple(x.hex() if isinstance(x, float) else x for x in row) for row in rows]


def _regime(b_hat: float, params: SolverParams) -> str:
    return "comfortable" if b_hat >= params.b_min_s else "shallow" if b_hat > 0 else "stall"


@st.composite
def _scoring_instances(draw):
    n = draw(st.integers(1, 6))
    rates = sorted(draw(st.lists(st.floats(1e4, 2e7), min_size=n, max_size=n, unique=True)))
    tau = draw(st.floats(0.25, 4.0))
    b_min = draw(st.floats(0.1, 8.0))
    b_max = max(b_min, tau) + draw(st.floats(0.01, 20.0))
    params = SolverParams(
        gamma=draw(st.integers(0, 3)), mu_c=draw(st.floats(1.0, 3.0)),
        b_min_s=b_min, b_max_s=b_max, ladder=QualityLadder(tuple(rates), tau, 1),
        backhaul_bps=draw(st.sampled_from([0.0, 1e5, 2e6]) | st.floats(1e5, 1e8)))
    queue_bits = draw(st.just(0.0) | st.floats(1.0, 1e8))
    request = QualityRequest(
        client_id=0, video_id=0, chunk_index=0,
        # the ladder's edges, or anywhere on it
        requested_quality=draw(st.sampled_from([0, n - 1]) | st.integers(0, n - 1)),
        buffer_s=draw(st.floats(0.0, 30.0)),
        effective_rate_bps=draw(st.just(0.0) | st.floats(1e4, 1e8)),
        dl_queue_bits=queue_bits,
        dl_queue_media_s=draw(st.floats(0.0, 20.0)) if queue_bits else 0.0,
        fifo_backlog_bits=draw(st.just(0.0) | st.floats(0.0, 1e8)),
    )
    cache = LruChunkCache()
    for m in draw(st.sets(st.integers(0, n - 1))):
        cache.insert(0, 0, m, rates[m] * tau)
    return request, cache, params


class TestOnePassScoring:
    """build_candidates against its specification, bit for bit."""

    @given(_scoring_instances())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_equals_the_composed_specification(self, instance):
        request, cache, params = instance
        got = build_candidates(request, cache, params)
        # plain tuples, positional: no named-tuple constructor on the hot path
        assert type(got) is tuple and all(type(c) is tuple for c in got)
        assert _bits(got) == _bits(_spec_candidates(request, cache, params))

    def test_spec_cases_cover_every_regime(self):
        # empty and queued downlinks, cached and uncached levels, zero rates
        # (infinite delays), each utility regime and both ladder edges
        params = TestBuildCandidates()._params()
        cache = LruChunkCache()
        cache.insert(0, 0, 2, 8e6)
        seen = set()
        for requested in (0, 1, 2):
            for buffer_s in (0.0, 2.0, 5.0, 20.0):
                for queue in ((0.0, 0.0), (4e6, 6.0)):
                    for eff in (4e6, 0.0):
                        for backhaul in (2e6, 0.0):
                            p = dataclasses.replace(params, backhaul_bps=backhaul)
                            req = _request(requested_quality=requested, buffer_s=buffer_s,
                                           dl_queue_bits=queue[0], dl_queue_media_s=queue[1],
                                           effective_rate_bps=eff)
                            got = build_candidates(req, cache, p)
                            assert _bits(got) == _bits(_spec_candidates(req, cache, p))
                            seen.update((_regime(b_hat, p), cached)
                                        for _, cached, _, b_hat, _ in got)
        assert seen == {(r, cached) for r in ("comfortable", "shallow", "stall")
                        for cached in (False, True)}

    @given(_scoring_instances())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_buff_weight_is_the_weighted_log_bitrate(self, instance):
        _, _, params = instance
        for m, rate in enumerate(params.ladder.bitrates_bps):
            for cached in (False, True):
                want = (params.mu_c if cached else 1.0) * math.log(rate / 1e3)
                assert params.levels[m][3 if cached else 2].hex() == want.hex()

    @pytest.mark.parametrize("kw", [
        dict(requested_quality=-1),
        dict(requested_quality=3),
        dict(dl_queue_bits=-1.0),
        dict(dl_queue_bits=4e6, dl_queue_media_s=-0.5),
    ])
    def test_both_value_errors_are_raised(self, kw):
        req = _request(**kw)
        params = TestBuildCandidates()._params()
        with pytest.raises(ValueError) as spec_err:
            _spec_candidates(req, LruChunkCache(), params)
        with pytest.raises(ValueError) as got_err:
            build_candidates(req, LruChunkCache(), params)
        assert str(got_err.value) == str(spec_err.value)
