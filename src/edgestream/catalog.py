"""Video catalogs: the quality ladder every video shares, and Zipf popularity.

One ladder makes a level the same bitrate for every requester, so equal
picks of one chunk are one download. It is immutable and safe to share
across replications. Every chunk is its nominal size q*tau at its quality.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .fold import left_sum


class CatalogError(ValueError):
    """Raised on invalid catalog parameters."""


@dataclass(frozen=True)
class QualityLadder:
    bitrates_bps: tuple[float, ...]  # strictly ascending
    chunk_duration_s: float
    chunk_count: int

    def __post_init__(self):
        if len(self.bitrates_bps) < 1:
            raise CatalogError("empty ladder")
        if any(not b > a for a, b in zip(self.bitrates_bps, self.bitrates_bps[1:])):
            raise CatalogError("bitrates not strictly ascending")
        if not self.bitrates_bps[0] > 0:  # a zero-size chunk cannot be cached or scored
            raise CatalogError("bitrates must be > 0")
        if not self.chunk_duration_s > 0:
            raise CatalogError("chunk_duration_s must be > 0")
        if self.chunk_count < 1:
            raise CatalogError("chunk_count must be >= 1")

    def nominal_size_bits(self, quality_index: int) -> float:
        return self.bitrates_bps[quality_index] * self.chunk_duration_s


def make_synthetic_catalog(
    levels: int,
    min_bps: float,
    max_bps: float,
    chunk_duration_s: float,
    chunk_count: int,
) -> QualityLadder:
    """The ladder every video shares: geometric, with forced endpoints."""
    if levels < 2:
        raise CatalogError("levels must be >= 2")
    if not (0 < min_bps < max_bps):
        raise CatalogError("need 0 < min_bps < max_bps")
    # NumPy geomspace's arithmetic, in its order: 10 ** linspace(log10 min, log10 max)
    log_min = math.log10(min_bps)
    step = (math.log10(max_bps) - log_min) / (levels - 1)
    inner = [10.0 ** (i * step + log_min) for i in range(1, levels - 1)]
    # exact endpoints despite float rounding
    return QualityLadder((float(min_bps), *inner, float(max_bps)), chunk_duration_s, chunk_count)


def zipf_pmf(exponent: float, video_count: int) -> tuple[float, ...]:
    """P(rank r) ~ r^-s over ranks 1..video_count, normalized; video ids are
    popularity-ranked, so id 0 is the most popular."""
    if not exponent > 0:
        raise CatalogError("zipf exponent must be > 0")
    if not video_count >= 1:
        raise CatalogError("video_count must be >= 1")
    weights = [r ** -float(exponent) for r in range(1, video_count + 1)]
    total = left_sum(weights)
    return tuple(w / total for w in weights)
