"""Video catalogs: quality ladders, chunk sizes, popularity, trace files.

A catalog is immutable after construction and safe to share across
replications. Synthetic catalogs have per-chunk sizes equal to the nominal
size q*tau; trace catalogs carry measured per-chunk sizes that may deviate
from nominal.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class CatalogError(ValueError):
    """Raised on invalid catalog parameters or malformed trace files."""


@dataclass(frozen=True)
class QualityLadder:
    video_id: int
    bitrates_bps: tuple[float, ...]  # strictly ascending
    chunk_duration_s: float
    chunk_count: int

    def __post_init__(self):
        if len(self.bitrates_bps) < 1:
            raise CatalogError(f"video {self.video_id}: empty ladder")
        if any(b <= a for a, b in zip(self.bitrates_bps, self.bitrates_bps[1:])):
            raise CatalogError(f"video {self.video_id}: bitrates not strictly ascending")
        if self.chunk_duration_s <= 0:
            raise CatalogError(f"video {self.video_id}: chunk_duration_s must be > 0")
        if self.chunk_count < 1:
            raise CatalogError(f"video {self.video_id}: chunk_count must be >= 1")

    @property
    def levels(self) -> int:
        return len(self.bitrates_bps)

    def nominal_size_bits(self, quality_index: int) -> float:
        return self.bitrates_bps[quality_index] * self.chunk_duration_s


@dataclass(frozen=True)
class Catalog:
    ladders: tuple[QualityLadder, ...]
    # (video_id, chunk_index, quality_index) -> size_bits; only populated for
    # trace catalogs where actual sizes deviate from nominal
    trace_sizes: dict[tuple[int, int, int], float] = field(default_factory=dict)

    def ladder(self, video_id: int) -> QualityLadder:
        return self.ladders[video_id]

    @property
    def video_count(self) -> int:
        return len(self.ladders)

    def chunk_size_bits(self, video_id: int, chunk_index: int, quality_index: int) -> float:
        size = self.trace_sizes.get((video_id, chunk_index, quality_index))
        if size is not None:
            return size
        return self.ladders[video_id].nominal_size_bits(quality_index)


def make_synthetic_catalog(
    video_count: int,
    levels: int,
    min_bps: float,
    max_bps: float,
    chunk_duration_s: float,
    chunk_count: int,
    spacing: str = "geometric",
) -> Catalog:
    """Uniform catalog: every video gets the same ladder with forced endpoints."""
    if levels < 2:
        raise CatalogError("levels must be >= 2")
    if not (0 < min_bps < max_bps):
        raise CatalogError("need 0 < min_bps < max_bps")
    if video_count < 1:
        raise CatalogError("video_count must be >= 1")
    if spacing == "geometric":
        rates = np.geomspace(min_bps, max_bps, levels)
    elif spacing == "linear":
        rates = np.linspace(min_bps, max_bps, levels)
    else:
        raise CatalogError(f"unknown spacing {spacing!r}")
    # force exact endpoints despite float rounding
    rates[0], rates[-1] = min_bps, max_bps
    bitrates = tuple(float(r) for r in rates)
    ladders = tuple(
        QualityLadder(v, bitrates, chunk_duration_s, chunk_count)
        for v in range(video_count)
    )
    return Catalog(ladders)


def zipf_pmf(exponent: float, video_count: int) -> np.ndarray:
    """P(rank r) ~ r^-s over ranks 1..video_count, normalized."""
    if exponent <= 0:
        raise CatalogError("zipf exponent must be > 0")
    ranks = np.arange(1, video_count + 1, dtype=np.float64)
    weights = ranks ** (-float(exponent))
    return weights / weights.sum()


@dataclass(frozen=True)
class PopularityModel:
    exponent: float
    video_count: int

    def pmf(self) -> np.ndarray:
        return zipf_pmf(self.exponent, self.video_count)

    def sample_video(self, rng: np.random.Generator) -> int:
        """Video ids are popularity-ranked: id 0 is the most popular."""
        return int(rng.choice(self.video_count, p=self.pmf()))


# Trace file format (UTF-8 text):
#   # comment lines allowed anywhere
#   ladder <video_id> <bitrate0,bitrate1,...> <chunk_duration_s>
#   <video_id>,<chunk_index>,<quality_index>,<size_bits>

def dump_trace_catalog(catalog: Catalog, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("# per-chunk trace catalog\n")
        for lad in catalog.ladders:
            rates = ",".join(repr(b) for b in lad.bitrates_bps)
            f.write(f"ladder {lad.video_id} {rates} {lad.chunk_duration_s!r}\n")
        for lad in catalog.ladders:
            for k in range(lad.chunk_count):
                for m in range(lad.levels):
                    size = catalog.chunk_size_bits(lad.video_id, k, m)
                    f.write(f"{lad.video_id},{k},{m},{size!r}\n")


def load_trace_catalog(path: str) -> Catalog:
    headers: dict[int, tuple[tuple[float, ...], float]] = {}
    rows: list[tuple[int, int, int, int, float]] = []  # (lineno, v, k, m, size)
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("ladder "):
                parts = line.split()
                if len(parts) != 4:
                    raise CatalogError(f"{path}:{lineno}: malformed ladder header")
                try:
                    vid = int(parts[1])
                    rates = tuple(float(x) for x in parts[2].split(","))
                    dur = float(parts[3])
                except ValueError as e:
                    raise CatalogError(f"{path}:{lineno}: {e}") from None
                if any(b <= a for a, b in zip(rates, rates[1:])):
                    raise CatalogError(f"{path}:{lineno}: bitrates not strictly ascending")
                headers[vid] = (rates, dur)
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise CatalogError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
            try:
                v, k, m = int(parts[0]), int(parts[1]), int(parts[2])
                size = float(parts[3])
            except ValueError as e:
                raise CatalogError(f"{path}:{lineno}: {e}") from None
            if size <= 0:
                raise CatalogError(f"{path}:{lineno}: size_bits must be > 0")
            rows.append((lineno, v, k, m, size))

    if not headers:
        raise CatalogError(f"{path}: no ladder headers found")
    chunk_counts: dict[int, int] = {v: 0 for v in headers}
    sizes: dict[tuple[int, int, int], float] = {}
    for lineno, v, k, m, size in rows:
        if v not in headers:
            raise CatalogError(f"{path}:{lineno}: video {v} has no ladder header")
        rates, _ = headers[v]
        if not (0 <= m < len(rates)):
            raise CatalogError(f"{path}:{lineno}: quality index {m} out of range")
        if k < 0:
            raise CatalogError(f"{path}:{lineno}: negative chunk index")
        sizes[(v, k, m)] = size
        chunk_counts[v] = max(chunk_counts[v], k + 1)

    video_ids = sorted(headers)
    if video_ids != list(range(len(video_ids))):
        raise CatalogError(f"{path}: video ids must be contiguous from 0")
    ladders = tuple(
        QualityLadder(v, headers[v][0], headers[v][1], max(chunk_counts[v], 1))
        for v in video_ids
    )
    return Catalog(ladders, sizes)
