"""Path loss, capacity curve, and client placement."""
from __future__ import annotations

import math

import numpy as np
import pytest

from edgestream.radio import REFERENCE_LOSS_DB, link_capacity_bps, path_loss_db, place_clients

RADIUS_M = 70.0


def test_cell_edge_capacity_frozen():
    # hand-computed: PL = 46.7 + 35*log10(70) = 111.28 dB,
    # noise = -90.98 dBm, SNR = -0.31 dB -> 0.6 * 4e7 * log2(1+snr)
    assert link_capacity_bps(70.0) == 22828482.52492413


def test_near_client_hits_phy_cap():
    assert link_capacity_bps(1.0) == 3e8
    assert link_capacity_bps(0.0) == 3e8  # clamped to the 1 m reference


def test_capacity_monotone_in_distance():
    caps = [link_capacity_bps(d) for d in (1, 5, 10, 20, 40, 70, 100)]
    assert all(a >= b for a, b in zip(caps, caps[1:]))
    assert caps[-1] > 0


def test_path_loss_reference_point():
    assert path_loss_db(1.0) == REFERENCE_LOSS_DB
    assert path_loss_db(0.3) == REFERENCE_LOSS_DB  # sub-meter clamp
    assert path_loss_db(10.0) == pytest.approx(46.7 + 35.0)


def test_negative_distance_rejected():
    with pytest.raises(ValueError):
        link_capacity_bps(-1.0)


class TestPlacement:
    def test_within_radius_and_deterministic(self):
        d1 = place_clients(50, RADIUS_M, np.random.default_rng(4))
        d2 = place_clients(50, RADIUS_M, np.random.default_rng(4))
        assert d1 == d2
        assert all(0.0 <= d <= RADIUS_M for d in d1)

    def test_uniform_disk_mean_distance(self):
        # E[d] = 2R/3 for uniform-over-area placement
        d = place_clients(20000, RADIUS_M, np.random.default_rng(8))
        assert np.mean(d) == pytest.approx(2 * RADIUS_M / 3, rel=0.02)

    def test_count(self):
        assert place_clients(0, RADIUS_M, np.random.default_rng(1)) == []
        assert len(place_clients(7, RADIUS_M, np.random.default_rng(1))) == 7
