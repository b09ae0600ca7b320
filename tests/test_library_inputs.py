"""Entry points a library caller reaches without a ScenarioConfig reject NaN
and empty inputs, as ScenarioConfig's own checks do: each is written as
`not x > bound`, which NaN fails."""
from __future__ import annotations

import math

import pytest

from edgestream.cache import LruChunkCache
from edgestream.catalog import CatalogError, QualityLadder, zipf_pmf
from edgestream.client import DashClient
from edgestream.radio import link_capacity_bps

LADDER = QualityLadder(bitrates_bps=(1e6, 2e6), chunk_duration_s=2.0, chunk_count=4)


@pytest.mark.parametrize("call, error, match", [
    # a NaN-capacity cache would never evict
    (lambda: LruChunkCache(math.nan), ValueError, "capacity_bits"),
    # one NaN size would make used_bits NaN, and the cache would then never evict
    (lambda: LruChunkCache(3e6).insert(0, 0, 0, math.nan), ValueError, "size_bits"),
    (lambda: zipf_pmf(math.nan, 3), CatalogError, "exponent"),
    # no videos: sampling the empty pmf's cumulative would raise IndexError
    (lambda: zipf_pmf(1.0, 0), CatalogError, "video_count"),
    # a NaN-start client would issue its requests at once
    (lambda: DashClient(0, 0, LADDER, 30.0, start_time_s=math.nan), ValueError, "start_time_s"),
    (lambda: link_capacity_bps(math.nan), ValueError, "distance_m"),
], ids=["cache-capacity", "cache-insert", "zipf-exponent", "zipf-no-videos",
        "client-start", "link-distance"])
def test_library_entry_points_reject_bad_input(call, error, match):
    with pytest.raises(error, match=match):
        call()
