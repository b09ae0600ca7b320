"""List-backed LRU used as a differential oracle: most recent at the end, O(n) ops."""
from __future__ import annotations

from edgestream.cache import LruChunkCache, OversizedObjectError


def keys_by_recency(cache: LruChunkCache) -> list:
    """An LruChunkCache's keys, oldest first: the order it evicts them in."""
    return list(cache._entries)


class ReferenceLru:
    def __init__(self, capacity: float):
        self.capacity = capacity
        self.items: list[tuple[tuple[int, int, int], float]] = []

    def contains(self, key) -> bool:
        return any(k == key for k, _ in self.items)

    def insert(self, key, size) -> list:
        if size > self.capacity:
            raise OversizedObjectError(key)
        for i, (k, s) in enumerate(self.items):
            if k == key:
                self.items.pop(i)
                self.items.append((k, s))
                return []
        evicted = []
        used = sum(s for _, s in self.items)
        while used + size > self.capacity:
            k, s = self.items.pop(0)
            used -= s
            evicted.append(k)
        self.items.append((key, size))
        return evicted

    def touch(self, key) -> None:
        for i, (k, s) in enumerate(self.items):
            if k == key:
                self.items.pop(i)
                self.items.append((k, s))
                return
