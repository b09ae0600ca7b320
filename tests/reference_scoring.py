"""The AP's scoring written one rule per function: the specification that
`assign_core.build_candidates` is checked against bit for bit.

`estimate_buffer` is re-exported from `assign_core`, where it stays because
perfbench's tracer wraps it there by name. `CandidateQuality` names the
fields of the plain 5-tuples `build_candidates` returns; the solvers read
candidates by position, so the tests may hand them either form."""
from __future__ import annotations

import math
from typing import NamedTuple

from edgestream.assign_core import BITRATE_UNIT_BPS, estimate_buffer
from edgestream.cph import SolveGroup

__all__ = ["tolerated_set", "estimate_buffer", "delivery_cost", "utility",
           "CandidateQuality", "candidate_group"]


class CandidateQuality(NamedTuple):
    """One scored tolerated level of a request; the request says whose."""
    quality_index: int
    cached: bool
    cost_bps: float
    estimated_buffer_s: float
    utility: float


def candidate_group(cluster, pairs) -> SolveGroup:
    """A solve group of uncached candidates, one per (utility, cost) pair,
    at levels 0, 1, ...; groups of one cluster share content by level, other
    clusters never do."""
    items = tuple(
        CandidateQuality(quality_index=m, cached=False,
                         cost_bps=float(c), estimated_buffer_s=0.0, utility=float(u))
        for m, (u, c) in enumerate(pairs)
    )
    return SolveGroup(cluster, items)


def tolerated_set(requested_m: int, gamma: int, ladder_size: int) -> tuple[int, ...]:
    """Symmetric window of quality indices around the request, clipped."""
    if not (0 <= requested_m < ladder_size):
        raise ValueError(f"requested quality {requested_m} outside ladder of {ladder_size}")
    lo = max(0, requested_m - gamma)
    hi = min(ladder_size - 1, requested_m + gamma)
    return tuple(range(lo, hi + 1))


def delivery_cost(bitrate_bps: float, cached: bool) -> float:
    """Backhaul bandwidth claimed by one delivery: zero when cache-served."""
    return 0.0 if cached else bitrate_bps


def utility(
    bitrate_bps: float,
    cached: bool,
    mu_c: float,
    b_hat_s: float,
    b_min_s: float,
    b_max_s: float,
) -> float:
    """Buffer-aware log-bitrate utility of delivering one chunk.

    Three regimes on the estimated buffer: comfortable (>= b_min) rewards
    bitrate plus clamped buffer headroom, shallow (0 < b_hat < b_min)
    rewards only the remaining buffer, and non-positive b_hat is returned
    as-is so its magnitude reads as expected stall duration.
    """
    if bitrate_bps <= 0:
        raise ValueError("bitrate_bps must be > 0")
    q = bitrate_bps / BITRATE_UNIT_BPS
    w = mu_c if cached else 1.0
    if b_hat_s >= b_min_s:
        return w * math.log(q) + math.log(min(b_hat_s, b_max_s))
    if b_hat_s > 0:
        return w * math.log(b_hat_s)
    return b_hat_s
