"""The client's ABR pick as first written: a copy of the rate samples, a
left-to-right sum, and a scan over every ladder level. select_quality and
harmonic_mean_rate are checked against it."""
from __future__ import annotations


def reference_harmonic_mean_rate(samples) -> float | None:
    xs = list(samples)
    if not xs:
        return None
    total = 0  # what sum() did on 3.10 and 3.11: a plain fold from int 0
    for x in xs:
        total += 1.0 / x
    return len(xs) / total


def reference_select_quality(estimate_bps: float | None, bitrates_bps) -> int:
    if estimate_bps is None:
        return 0
    pick = 0
    for m, rate in enumerate(bitrates_bps):
        if rate < estimate_bps:
            pick = m
    return pick
