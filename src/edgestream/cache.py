"""Chunk-granularity LRU cache with admit-all policy.

Keys are (video_id, chunk_index, quality_index). Lookups via contains() are
pure queries and never update recency; insert() and touch() do. Recency is
the entries' order alone (no clock or timestamps), so behavior is
deterministic regardless of wall time.
"""
from __future__ import annotations

import math
from collections import OrderedDict

ChunkKey = tuple[int, int, int]


class OversizedObjectError(ValueError):
    """Object larger than the whole cache; insertion rejected."""


class LruChunkCache:
    def __init__(self, capacity_bits: float = math.inf):
        if not capacity_bits >= 0:
            raise ValueError("capacity_bits must be >= 0")
        self.capacity_bits = capacity_bits
        self.used_bits = 0.0
        # key -> size_bits; insertion order = recency order, oldest first
        self._entries: OrderedDict[ChunkKey, float] = OrderedDict()

    def contains(self, video_id: int, chunk_index: int, quality_index: int) -> bool:
        return (video_id, chunk_index, quality_index) in self._entries

    def insert(self, video_id: int, chunk_index: int, quality_index: int,
               size_bits: float) -> list[ChunkKey]:
        """Admit the chunk, evicting LRU entries as needed.

        Returns evicted keys in eviction order. Re-inserting a present key
        refreshes recency without changing stored size.
        """
        if not size_bits > 0:
            raise ValueError("size_bits must be > 0")
        if size_bits > self.capacity_bits:
            raise OversizedObjectError(
                f"size {size_bits} exceeds capacity {self.capacity_bits}"
            )
        key = (video_id, chunk_index, quality_index)
        if key in self._entries:
            self._entries.move_to_end(key)
            return []
        evicted: list[ChunkKey] = []
        # used_bits is a running float sum, so it can keep a rounding residue
        # after evictions; an emptied cache holds exactly 0 bits
        while self._entries and self.used_bits + size_bits > self.capacity_bits:
            old_key, old_size = self._entries.popitem(last=False)
            self.used_bits = self.used_bits - old_size if self._entries else 0.0
            evicted.append(old_key)
        self._entries[key] = size_bits
        self.used_bits += size_bits
        return evicted

    def touch(self, video_id: int, chunk_index: int, quality_index: int) -> None:
        """Mark a use (cache hit). Missing key is a no-op."""
        key = (video_id, chunk_index, quality_index)
        if key in self._entries:
            self._entries.move_to_end(key)
