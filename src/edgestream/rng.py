"""Seeded draws, bit-identical to NumPy's `random.default_rng(seed)`.

A run makes a few scalar draws per client, so the generator is plain
Python: NumPy's `SeedSequence` hash of the seed, the PCG64 XSL-RR 128/64
bit generator (O'Neill 2014, https://www.pcg-random.org/paper.html), and
NumPy `Generator`'s rules for `random`, `uniform` and `choice(n, p=pmf)`.
Every draw equals NumPy's, on any host.
"""
from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_POOL_SIZE = 4  # SeedSequence's pool of 32-bit words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(value: int) -> list[int]:
    """A non-negative int as 32-bit words, least significant first; 0 is one word."""
    if value < 0:
        raise ValueError(f"seed words must be >= 0, got {value}")
    words = [value & _M32]
    while value > _M32:
        value >>= 32
        words.append(value & _M32)
    return words


def _seed_state(seed: int | list[int]) -> list[int]:
    """NumPy's `SeedSequence(seed).generate_state(4, uint64)`."""
    entropy = [w for v in (seed if isinstance(seed, (list, tuple)) else [seed]) for w in _words(v)]
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (_MIX_L * x - _MIX_R * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):  # late words reach early ones
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    halves = []
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        halves.append(value ^ value >> 16)
    return [halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2)]


def cumulative(pmf) -> list[float]:
    """The CDF `choice(n, p=pmf)` searches: running sums over their last entry."""
    sums = list(accumulate(pmf))
    return [s / sums[-1] for s in sums]


class Generator:
    """NumPy's `random.default_rng(seed)` for an int seed or a list of ints."""

    def __init__(self, seed: int | list[int]):
        s0, s1, i0, i1 = _seed_state(seed)
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _M128
        # PCG's srandom: step from 0 (giving inc), add the seed, step again
        self._state = ((self._inc + (s0 << 64 | s1)) * _PCG_MULT + self._inc) & _M128

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        rot = state >> 122
        word = (state >> 64 ^ state) & _M64
        return (word >> rot | word << (64 - rot)) & _M64

    def random(self) -> float:
        """Uniform on [0, 1) from the top 53 bits of one word."""
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Uniform on [low, high); always one draw, even when low == high."""
        span = high - low
        if not 0.0 <= span < float("inf"):
            raise ValueError(f"need finite low <= high, got {low!r}, {high!r}")
        return low + span * self.random()

    def pick(self, cdf: list[float]) -> int:
        """`choice(len(cdf), p=pmf)` given `cdf = cumulative(pmf)`."""
        return bisect_right(cdf, self.random())
