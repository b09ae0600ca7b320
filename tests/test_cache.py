"""LRU chunk cache semantics, including a differential check against a list-based reference."""
from __future__ import annotations

import math

import numpy as np
import pytest

from edgestream.cache import LruChunkCache, OversizedObjectError
from reference_lru import ReferenceLru, keys_by_recency


def test_insert_and_contains():
    c = LruChunkCache(capacity_bits=100)
    assert not c.contains(0, 0, 0)
    assert c.insert(0, 0, 0, 40) == []
    assert c.contains(0, 0, 0)
    assert c.used_bits == 40
    assert len(c) == 1


def test_eviction_order_is_lru():
    c = LruChunkCache(capacity_bits=100)
    c.insert(0, 0, 0, 40)
    c.insert(1, 0, 0, 40)
    evicted = c.insert(2, 0, 0, 40)
    assert evicted == [(0, 0, 0)]
    assert not c.contains(0, 0, 0)
    assert c.contains(1, 0, 0)
    assert c.used_bits == 80


def test_touch_refreshes_recency():
    c = LruChunkCache(capacity_bits=100)
    c.insert(0, 0, 0, 40)
    c.insert(1, 0, 0, 40)
    c.touch(0, 0, 0)
    evicted = c.insert(2, 0, 0, 40)
    assert evicted == [(1, 0, 0)]
    assert c.contains(0, 0, 0)


def test_contains_does_not_touch():
    c = LruChunkCache(capacity_bits=100)
    c.insert(0, 0, 0, 40)
    c.insert(1, 0, 0, 40)
    # query (0,0,0) through contains(); it must still be the LRU victim
    assert c.contains(0, 0, 0)
    evicted = c.insert(2, 0, 0, 40)
    assert evicted == [(0, 0, 0)]


def test_reinsert_refreshes_and_keeps_old_size():
    c = LruChunkCache(capacity_bits=100)
    c.insert(0, 0, 0, 40)
    c.insert(1, 0, 0, 40)
    assert c.insert(0, 0, 0, 60) == []  # present: recency refresh only
    assert c.used_bits == 80
    evicted = c.insert(2, 0, 0, 40)
    assert evicted == [(1, 0, 0)]


def test_multi_eviction_in_one_insert():
    c = LruChunkCache(capacity_bits=100)
    c.insert(0, 0, 0, 30)
    c.insert(1, 0, 0, 30)
    c.insert(2, 0, 0, 30)
    evicted = c.insert(3, 0, 0, 60)
    # needs 60 free: evicts the two oldest, keeps (2,0,0)
    assert evicted == [(0, 0, 0), (1, 0, 0)]
    assert c.used_bits == 30 + 60
    assert len(c) == 2


def test_float_residue_never_evicts_from_an_empty_cache():
    c = LruChunkCache(capacity_bits=3.0)
    for i, size in enumerate((0.9, 0.19, 1.1)):
        c.insert(i, 0, 0, size)
    # (0.9 + 0.19 + 1.1) - 0.9 - 0.19 - 1.1 leaves 4.4e-16, and a full-size chunk
    # on top of that residue is over capacity even once everything is evicted
    assert (0.9 + 0.19 + 1.1) - 0.9 - 0.19 - 1.1 + 3.0 > 3.0
    evicted = c.insert(3, 0, 0, 3.0)
    assert evicted == [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
    assert keys_by_recency(c) == [(3, 0, 0)]
    assert c.used_bits == 3.0


def test_oversized_object_rejected():
    c = LruChunkCache(capacity_bits=100)
    c.insert(0, 0, 0, 40)
    with pytest.raises(OversizedObjectError):
        c.insert(1, 0, 0, 101)
    # cache untouched by the failed insert
    assert c.contains(0, 0, 0)
    assert c.used_bits == 40


def test_invalid_sizes_and_capacity():
    with pytest.raises(ValueError):
        LruChunkCache(capacity_bits=-1)
    c = LruChunkCache(capacity_bits=100)
    with pytest.raises(ValueError):
        c.insert(0, 0, 0, 0)
    with pytest.raises(ValueError):
        c.insert(0, 0, 0, -5)


def test_unbounded_cache_never_evicts():
    c = LruChunkCache()  # default capacity is unbounded
    assert math.isinf(c.capacity_bits)
    for i in range(1000):
        assert c.insert(i, 0, 0, 1e9) == []
    assert len(c) == 1000


def test_touch_missing_key_is_noop():
    c = LruChunkCache(capacity_bits=100)
    c.touch(9, 9, 9)
    assert len(c) == 0


def test_keys_by_recency_oldest_first():
    c = LruChunkCache(capacity_bits=1000)
    c.insert(0, 0, 0, 10)
    c.insert(1, 0, 0, 10)
    c.insert(2, 0, 0, 10)
    c.touch(0, 0, 0)
    assert keys_by_recency(c) == [(1, 0, 0), (2, 0, 0), (0, 0, 0)]


def test_differential_against_reference_lru():
    # 10^4 random mixed operations must agree with the reference exactly
    rng = np.random.default_rng(1234)
    cache = LruChunkCache(capacity_bits=500)
    ref = ReferenceLru(500)
    keys = [(int(v), int(k), int(m)) for v in range(4) for k in range(5) for m in range(3)]
    for _ in range(10_000):
        op = rng.integers(0, 3)
        key = keys[int(rng.integers(0, len(keys)))]
        if op == 0:
            size = float(rng.integers(1, 120))
            try:
                got = cache.insert(*key, size)
            except OversizedObjectError:
                got = None
            try:
                want = ref.insert(key, size)
            except OversizedObjectError:
                want = None
            assert got == want
        elif op == 1:
            cache.touch(*key)
            ref.touch(key)
        else:
            assert cache.contains(*key) == ref.contains(key)
        assert keys_by_recency(cache) == [k for k, _ in ref.items]
        assert cache.used_bits == sum(s for _, s in ref.items)
