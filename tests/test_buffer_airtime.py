"""Buffer projection cases and stall-aware/equal airtime allocation."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgestream.assign_core import estimate_buffer
from edgestream.ap_engine import SUFFICIENT_CHUNKS
from edgestream.buffer_airtime import allocate_airtime, equal_airtime
from edgestream.fold import left_sum
from reference_airtime import ClientLoad, reference_allocate_airtime, reference_equal_airtime
from replay_oracle import replay_buffer_projection


def _est(**kw) -> float:
    base = dict(
        current_buffer_s=8.0,
        backhaul_delay_s=0.0,
        dl_transmit_s=1.0,
        dl_queue_bits=0.0,
        dl_queue_media_s=0.0,
        effective_rate_bps=1e6,
    )
    base.update(kw)
    return estimate_buffer(**base)


class TestEstimateBuffer:
    def test_backhaul_empty_queue(self):
        # B=8, backhaul wait 3, transfer 1 -> 4
        assert _est(backhaul_delay_s=3.0) == 4.0

    def test_backhaul_backlogged_queue(self):
        # drain 4e6/1e6 = 4 s overlaps the 3 s backhaul wait; queued media adds 6 s
        got = _est(
            backhaul_delay_s=3.0, dl_queue_bits=4e6, dl_queue_media_s=6.0)
        assert got == 8.0 - max(4.0, 3.0) - 1.0 + 6.0 == 9.0

    def test_cache_empty_queue(self):
        assert _est(backhaul_delay_s=0.0) == 7.0

    def test_cache_backlogged_queue(self):
        got = _est(
            backhaul_delay_s=0.0, dl_queue_bits=4e6, dl_queue_media_s=6.0)
        assert got == 8.0 - 4.0 - 1.0 + 6.0 == 9.0

    def test_identity_limit(self):
        # cache-served, nothing queued, instantaneous transfer: buffer unchanged
        assert _est(backhaul_delay_s=0.0, dl_transmit_s=0.0) == 8.0

    def test_negative_projection_preserved(self):
        got = _est(current_buffer_s=1.0, backhaul_delay_s=9.0)
        assert got == -9.0  # magnitude = expected stall, must not be clamped

    def test_backlog_with_zero_rate_is_unbounded_wait(self):
        got = _est(dl_queue_bits=1e6, dl_queue_media_s=2.0,
                   effective_rate_bps=0.0)
        assert got == -math.inf

    @pytest.mark.parametrize("field", ["dl_queue_bits", "dl_queue_media_s"])
    def test_negative_queue_fields_rejected(self, field):
        with pytest.raises(ValueError):
            _est(**{field: -1.0})

    def test_differential_against_event_replay(self):
        # the closed form must match a chunk-by-chunk drain simulation
        rng = np.random.default_rng(77)
        for _ in range(300):
            rate = float(rng.uniform(1e5, 5e7))
            n_chunks = int(rng.integers(0, 6))
            chunks = [(float(rng.uniform(1e5, 8e6)), float(rng.uniform(0.5, 4.0)))
                      for _ in range(n_chunks)]
            cand_bits = float(rng.uniform(1e5, 8e6))
            from_cache = bool(rng.integers(0, 2))
            t_b = 0.0 if from_cache else float(rng.uniform(0.0, 10.0))
            b0 = float(rng.uniform(-5.0, 20.0))
            got = estimate_buffer(
                current_buffer_s=b0,
                backhaul_delay_s=t_b,
                dl_transmit_s=cand_bits / rate,
                dl_queue_bits=sum(s for s, _ in chunks),
                dl_queue_media_s=sum(m for _, m in chunks),
                effective_rate_bps=rate,
            )
            want = replay_buffer_projection(b0, chunks, cand_bits, rate,
                                            from_cache, t_b)
            assert got == pytest.approx(want, abs=0.5)


def _load(cid, d, b, avg, cap, chunks=0.0, playing=True) -> ClientLoad:
    return ClientLoad(client_id=cid, dl_queue_bits=d, buffer_s=b,
                      avg_queued_bitrate_bps=avg, link_capacity_bps=cap,
                      buffered_chunks=chunks, playing=playing)


def _inputs(loads, b_min_s=4.0, t_ap_s=0.5):
    """(rooms, needs, sated) of the loads, by position, each worked out as
    ApEngine._allocate works it out from a busy queue and its client."""
    rooms, needs, sated = [], [], []
    for c in loads:
        slot = c.link_capacity_bps * t_ap_s
        rooms.append(c.dl_queue_bits / slot)
        needs.append(min(c.dl_queue_bits, (b_min_s - c.buffer_s) * c.avg_queued_bitrate_bps)
                     / slot)
        sated.append(c.playing and c.buffered_chunks >= SUFFICIENT_CHUNKS)
    return rooms, needs, sated


def _rooms(loads, t_ap_s=0.5) -> list[float]:
    """Each load's room, computed as ApEngine computes it."""
    return _inputs(loads, t_ap_s=t_ap_s)[0]


class TestAllocateAirtime:
    # C*T = 20e6 * 0.5 = 1e7 bits per interval for every load below
    def test_required_share_formula(self):
        # need = min(5e6, (4-2)*1e6) = 2e6 bits over C*T = 1e7 -> 0.2
        rooms, needs, sated = _inputs([_load(0, 5e6, 2.0, 1e6, 20e6)])
        assert needs == [0.2]
        alloc = allocate_airtime(rooms, needs, sated)
        assert alloc.risky == [0]
        assert alloc.shares == [0.2]

    def test_comfortable_buffer_not_risky(self):
        alloc = allocate_airtime(*_inputs([_load(0, 5e6, 6.0, 1e6, 20e6)]))
        assert alloc.risky == []
        # residual share is capped at what the queue can absorb: 5e6/1e7
        assert alloc.shares == [0.5]

    def test_proportional_scaling_when_oversubscribed(self):
        alloc = allocate_airtime([0.8, 0.6], [0.8, 0.6], [False, False])
        assert alloc.risky == [0, 1]
        assert alloc.shares == [pytest.approx(0.8 / 1.4), pytest.approx(0.6 / 1.4)]
        assert left_sum(alloc.shares) <= 1.0 + 1e-9

    def test_well_buffered_player_steps_aside(self):
        # SUFFICIENT_CHUNKS itself parks a player; a hair below it does not
        for chunks, parked in ((3.0, True), (SUFFICIENT_CHUNKS, True),
                               (math.nextafter(SUFFICIENT_CHUNKS, 0.0), False)):
            clients = [
                _load(0, 1e7, 10.0, 2e6, 20e6, chunks=chunks, playing=True),
                _load(1, 1e7, 5.0, 2e6, 20e6, chunks=1.0, playing=True),
            ]
            rooms, needs, sated = _inputs(clients)
            assert sated == [parked, False], chunks
            shares = allocate_airtime(rooms, needs, sated).shares
            # cap 1e7/1e7: a lone hungry queue can take the whole interval
            assert shares == ([0.0, 1.0] if parked else [0.5, 0.5]), chunks

    def test_prebuffering_client_is_not_parked(self):
        # same holdings, but playout has not started: both split the interval
        clients = [
            _load(0, 1e7, 10.0, 2e6, 20e6, chunks=3.0, playing=False),
            _load(1, 1e7, 5.0, 2e6, 20e6, chunks=1.0, playing=True),
        ]
        rooms, needs, sated = _inputs(clients)
        assert sated == [False, False]
        assert allocate_airtime(rooms, needs, sated).shares == [0.5, 0.5]

    def test_surplus_falls_through_to_sated_clients(self):
        # the hungry queue caps at 0.2; the leftover reaches the sated one (cap 0.4)
        alloc = allocate_airtime([0.4, 0.2], [0.0, 0.0], [True, False])
        assert alloc.shares == [0.4, 0.2]

    def test_risky_share_is_exactly_the_need(self):
        # a tiny need and a huge queue: never topped up
        alloc = allocate_airtime([10.0, 0.1], [0.01, 0.0], [False, True])
        assert alloc.shares[0] == 0.01
        # the sated queue gets the leftover only up to its room
        assert alloc.shares[1] == 0.1

    def test_exclusion_overrides_risk(self):
        # short chunks: enough chunks buffered to be parked, yet below b_min
        alloc = allocate_airtime([0.5], [0.2], [True])
        assert alloc.risky == [0]
        assert alloc.shares == [0.0]

    def test_empty_queue_gets_nothing(self):
        alloc = allocate_airtime(*_inputs([_load(0, 0.0, 0.0, 0.0, 20e6)]))
        assert alloc.risky == []
        assert alloc.shares == [0.0]


_client_strategy = st.tuples(
    st.floats(min_value=0.0, max_value=1e9),      # dl_queue_bits
    st.floats(min_value=-10.0, max_value=30.0),   # buffer_s
    st.floats(min_value=0.0, max_value=1e7),      # avg_queued_bitrate_bps
    st.floats(min_value=1e3, max_value=1e9),      # link_capacity_bps
    st.floats(min_value=0.0, max_value=20.0),     # buffered_chunks
    st.booleans(),                                # playing
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_client_strategy, min_size=1, max_size=8))
def test_allocation_invariants(raw):
    clients = [ClientLoad(i, *row) for i, row in enumerate(raw)]
    rooms, needs, sated = _inputs(clients)
    alloc = allocate_airtime(rooms, needs, sated)
    assert len(alloc.shares) == len(clients)
    assert left_sum(alloc.shares) <= 1.0 + 1e-9
    assert all(th >= 0.0 for th in alloc.shares)
    assert alloc.risky == [i for i, need in enumerate(needs) if need > 0]
    for c, share in zip(clients, alloc.shares):
        if c.dl_queue_bits == 0:
            assert share == 0.0
    eq = equal_airtime(rooms)
    assert left_sum(eq) <= 1.0 + 1e-9
    for room, share in zip(rooms, eq):
        assert 0.0 <= share <= room + 1e-12


@settings(max_examples=200, deadline=None)
@given(st.lists(_client_strategy, min_size=1, max_size=8))
def test_allocation_scale_consistency(raw):
    # doubling queue bits doubles the queue's average bitrate with it
    clients = [ClientLoad(i, *row) for i, row in enumerate(raw)]
    doubled = [ClientLoad(c.client_id, 2 * c.dl_queue_bits, c.buffer_s,
                          2 * c.avg_queued_bitrate_bps, 2 * c.link_capacity_bps,
                          c.buffered_chunks, c.playing) for c in clients]
    assert allocate_airtime(*_inputs(clients)) == allocate_airtime(*_inputs(doubled))


def _bits(shares) -> list[str]:
    return [share.hex() for share in shares]


@settings(max_examples=300, deadline=None)
@given(st.lists(_client_strategy, min_size=1, max_size=8),
       st.sampled_from([(4.0, 0.5), (2.0, 0.02), (12.0, 2.0)]))
def test_allocate_airtime_matches_the_reference_bitwise(raw, b_min_and_t_ap):
    # the reference sorts loads by id and keys shares by it; in client order
    # the positional split must give every share the same bits and the same
    # queues must be risky
    b_min_s, t_ap_s = b_min_and_t_ap
    loads = [ClientLoad(i, *row) for i, row in enumerate(raw)]
    want, want_risky = reference_allocate_airtime(loads, b_min_s, t_ap_s)
    got = allocate_airtime(*_inputs(loads, b_min_s, t_ap_s))
    assert _bits(got.shares) == _bits(want[c.client_id] for c in loads)
    assert {loads[i].client_id for i in got.risky} == want_risky


@settings(max_examples=200, deadline=None)
@given(st.lists(_client_strategy, min_size=1, max_size=8),
       st.lists(_client_strategy, max_size=8))
def test_empty_queues_leave_other_shares_bitwise_equal(raw, raw_idle):
    # the engine hands over only the busy queues, which is sound only if an
    # idle one gets exactly 0 and moves no other share by a bit: the keyed
    # reference sees idle and busy loads interleaved, the positional
    # allocators only the busy ones
    busy = [ClientLoad(2 * i, *row) for i, row in enumerate(raw)]
    idle = [ClientLoad(2 * i + 1, 0.0, *row[1:]) for i, row in enumerate(raw_idle)]
    mixed = sorted(busy + idle, key=lambda c: c.client_id)
    want, want_risky = reference_allocate_airtime(mixed, b_min_s=4.0, t_ap_s=0.5)
    alone = allocate_airtime(*_inputs(busy))
    assert _bits(alone.shares) == _bits(want[c.client_id] for c in busy)
    assert all(want[c.client_id] == 0.0 for c in idle)
    assert {busy[i].client_id for i in alone.risky} == want_risky
    eq_want = reference_equal_airtime(mixed, t_ap_s=0.5)
    assert _bits(equal_airtime(_rooms(busy))) == _bits(eq_want[c.client_id] for c in busy)
    assert all(eq_want[c.client_id] == 0.0 for c in idle)


class TestEqualAirtime:
    # C*T = 20e6 * 0.5 = 1e7 bits per interval, so a 1e7-bit queue can use it all
    def test_equal_split_skips_empty_queues(self):
        clients = [
            _load(0, 1e7, 0.0, 1e6, 20e6),
            _load(1, 0.0, 0.0, 0.0, 20e6),
            _load(2, 1e7, 0.0, 1e6, 20e6),
        ]
        # the idle client's slice is re-split between the two loaded ones
        assert equal_airtime(_rooms(clients)) == [0.5, 0.0, 0.5]

    def test_empty_client_list(self):
        shares = equal_airtime([])
        assert shares == []
        assert left_sum(shares) == 0.0

    def test_all_loaded(self):
        clients = [_load(i, 1e7, 0.0, 1e6, 20e6) for i in range(4)]
        shares = equal_airtime(_rooms(clients))
        assert all(v == 0.25 for v in shares)
        assert left_sum(shares) == pytest.approx(1.0)

    def test_share_capped_at_queue(self):
        # a 1e6-bit queue absorbs only 1e6 / 1e7 = 0.1 of the interval
        shallow = [_load(i, 1e6, 0.0, 1e6, 20e6) for i in range(2)]
        assert equal_airtime(_rooms(shallow)) == [0.1, 0.1]
        # beside a deep queue, the 0.4 it cannot use goes to the deep one
        mixed = [_load(0, 1e6, 0.0, 1e6, 20e6), _load(1, 1e8, 0.0, 1e6, 20e6)]
        shares = equal_airtime(_rooms(mixed))
        assert shares[0] == 0.1
        assert shares[1] == pytest.approx(0.9)


# queue bits with zero drawn often, as the zero-bit loads the engine leaves out
_queue_bits = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e9))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_queue_bits, st.floats(min_value=1e3, max_value=1e9)), max_size=12),
       st.sampled_from([0.02, 0.1, 0.5, 1.0]))
@example(raw=[(0.0, 2e7), (1e7, 2e7), (0.0, 1e3), (1e6, 2e7)], t_ap_s=0.5)
def test_equal_airtime_matches_the_reference_bitwise(raw, t_ap_s):
    # the reference sorts loads by id and keys shares by it; in client order
    # the positional split must give every share the same bits
    loads = [_load(i, bits, 0.0, 0.0, cap) for i, (bits, cap) in enumerate(raw)]
    want = reference_equal_airtime(loads, t_ap_s)
    assert _bits(equal_airtime(_rooms(loads, t_ap_s))) == _bits(want[c.client_id] for c in loads)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_queue_bits, st.floats(min_value=1e3, max_value=1e9)), max_size=12))
def test_allocate_airtime_without_risky_or_sated_clients_is_the_equal_split(raw):
    # a full buffer makes no client risky and a non-playing one is never
    # set aside, so the stall-aware split is one water-fill over all rooms
    loads = [_load(i, bits, 10.0, 1e6, cap, chunks=5.0, playing=False)
             for i, (bits, cap) in enumerate(raw)]
    alloc = allocate_airtime(*_inputs(loads))
    assert alloc.risky == []
    assert _bits(alloc.shares) == _bits(equal_airtime(_rooms(loads)))
