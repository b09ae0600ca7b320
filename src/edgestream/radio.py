"""Downlink PHY abstraction: log-distance path loss into Shannon capacity.

Clients are static; a client's capacity is fixed for a whole run and the
MAC is abstracted as airtime-share times capacity. The calibration is the
module constants below, chosen so a cell-edge client at 70 m still sees a
usable link while near clients saturate at the PHY cap; the cell radius is
the scenario's `radius_m`.
"""
from __future__ import annotations

import math

from .rng import Generator

REFERENCE_LOSS_DB = 46.7     # loss at 1 m
PATH_LOSS_EXPONENT = 3.5
TX_POWER_DBM = 20.0
NOISE_FIGURE_DB = 7.0
BANDWIDTH_HZ = 4e7
EFFICIENCY = 0.6             # PHY/MAC overhead factor on Shannon
MAX_CAPACITY_BPS = 3e8


def path_loss_db(distance_m: float) -> float:
    d = max(distance_m, 1.0)
    return REFERENCE_LOSS_DB + 10.0 * PATH_LOSS_EXPONENT * math.log10(d)


def link_capacity_bps(distance_m: float) -> float:
    """Achievable downlink rate in bps at the given distance."""
    if distance_m < 0:
        raise ValueError("distance_m must be >= 0")
    noise_dbm = -174.0 + 10.0 * math.log10(BANDWIDTH_HZ) + NOISE_FIGURE_DB
    snr_db = TX_POWER_DBM - path_loss_db(distance_m) - noise_dbm
    snr = 10.0 ** (snr_db / 10.0)
    shannon = BANDWIDTH_HZ * math.log2(1.0 + snr)
    return min(EFFICIENCY * shannon, MAX_CAPACITY_BPS)


def place_clients(n: int, radius_m: float, rng: Generator) -> list[float]:
    """Uniform-over-disk distances from the access point."""
    return [radius_m * math.sqrt(rng.random()) for _ in range(n)]
