"""Catalog construction and Zipf popularity."""
from __future__ import annotations

import math
import random

import numpy as np
import pytest

from edgestream import CatalogError, QualityLadder, make_synthetic_catalog, zipf_pmf


def test_geometric_ladder_endpoints_and_ratio():
    lad = make_synthetic_catalog(19, 100e3, 15e6, 2.0, 300)
    assert len(lad.bitrates_bps) == 19
    assert lad.bitrates_bps[0] == 100e3
    assert lad.bitrates_bps[-1] == 15e6
    ratios = [b / a for a, b in zip(lad.bitrates_bps, lad.bitrates_bps[1:])]
    assert max(ratios) - min(ratios) < 1e-9
    assert math.isclose(ratios[0], (15e6 / 100e3) ** (1 / 18))


def test_every_video_shares_the_ladder():
    # the catalog is one ladder; clients name their video themselves
    lad = make_synthetic_catalog(4, 1e5, 1e6, 2.0, 10)
    assert isinstance(lad, QualityLadder)
    assert (lad.chunk_duration_s, lad.chunk_count) == (2.0, 10)
    assert len(lad.bitrates_bps) == 4


def test_nominal_chunk_size_is_rate_times_duration():
    lad = make_synthetic_catalog(3, 1e6, 4e6, 2.0, 10)
    assert lad.nominal_size_bits(0) == 2e6
    assert lad.nominal_size_bits(2) == 8e6


@pytest.mark.parametrize("kwargs", [
    dict(levels=1, min_bps=1e5, max_bps=1e6),
    dict(levels=3, min_bps=1e6, max_bps=1e5),
    dict(levels=3, min_bps=0, max_bps=1e6),
])
def test_invalid_catalog_parameters(kwargs):
    with pytest.raises(CatalogError):
        make_synthetic_catalog(chunk_duration_s=2.0, chunk_count=10, **kwargs)


@pytest.mark.parametrize("bitrates", [
    (0.0, 1e6),
    (-1e6, 1e6),
    (math.nan, 1e6),
    (1e6, math.nan),
], ids=["zero", "negative", "nan-first", "nan-last"])
def test_ladder_rejects_a_non_positive_bitrate(bitrates):
    # a zero-size chunk would fail mid-run, in the cache or the utility
    with pytest.raises(CatalogError):
        QualityLadder(bitrates, 2.0, 10)


def test_zipf_pmf_normalized_and_decreasing():
    pmf = zipf_pmf(1.2, 10)
    assert isinstance(pmf, tuple)
    assert math.isclose(math.fsum(pmf), 1.0, rel_tol=1e-12)
    assert all(a > b for a, b in zip(pmf, pmf[1:]))
    # heavier exponent concentrates more mass on the head
    assert zipf_pmf(2.0, 10)[0] > pmf[0]


def test_zipf_pmf_matches_direct_formula():
    pmf = zipf_pmf(1.2, 4)
    weights = [r ** -1.2 for r in (1, 2, 3, 4)]
    total = sum(weights)
    for got, want in zip(pmf, weights):
        assert math.isclose(got, want / total, rel_tol=1e-12)


# The ladder reference is NumPy's geomspace arithmetic with every power taken
# by libm, as NumPy does on a host without AVX-512; NumPy's AVX-512 power and
# log10 differ from libm in the last bit. The Zipf reference is libm's pow
# over a plain left fold.


def _libm_ladder(levels, min_bps, max_bps):
    exponents = np.linspace(math.log10(min_bps), math.log10(max_bps), levels)
    return (min_bps, *(math.pow(10.0, float(y)) for y in exponents[1:-1]), max_bps)


def _libm_zipf(exponent, n):
    weights = [math.pow(r, -exponent) for r in range(1, n + 1)]
    total = 0.0
    for w in weights:
        total += w
    return tuple(w / total for w in weights)


def test_ladders_and_popularity_do_not_depend_on_the_host():
    rnd = random.Random(20)
    for _ in range(300):
        levels = rnd.randrange(2, 40)
        low = rnd.uniform(1e3, 1e6)
        high = low * rnd.uniform(1.001, 1e3)
        got = make_synthetic_catalog(levels, low, high, 2.0, 3).bitrates_bps
        assert got == _libm_ladder(levels, low, high), (levels, low, high)
    cases = [(1.2, 20), (1.2, 10), (1.0, 300), (0.8, 129), (1.2, 1000), (2.0, 7)]
    cases += [(rnd.uniform(0.1, 3.0), rnd.randrange(1, 600)) for _ in range(300)]
    for exponent, n in cases:
        assert tuple(zipf_pmf(exponent, n)) == _libm_zipf(exponent, n), (exponent, n)
