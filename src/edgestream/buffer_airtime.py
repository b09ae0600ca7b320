"""Downlink airtime shares.

Both allocators hand out fixed fractions of one interval, by position over
the busy queues, none larger than the queue's room (the most of the interval
it can absorb), through one water-fill: the stall-aware one gives each
stall-endangered queue exactly the need it is handed and water-fills the
rest, hungry queues before sated ones; the equal one, used by the other
schemes, water-fills all of it. Neither sorts nor validates its inputs:
`ApEngine` builds them in client order from capacities and a `t_ap_s` it
checked when it was built. A capped queue is paced to empty at the
interval's end, not sent at link rate.
"""
from __future__ import annotations

from typing import NamedTuple

from .fold import left_sum


class AirtimeAllocation(NamedTuple):
    shares: list[float]  # one per queue, by position
    risky: list[int]     # positions of the queues with a need > 0, ascending


def allocate_airtime(rooms: list[float], needs: list[float],
                     sated: list[bool]) -> AirtimeAllocation:
    """Stall-aware shares, by position: a queue with a need > 0 is risky and
    gets its need, all needs scaled down together if they sum to more than
    the interval; the leftover is water-filled over the other queues' rooms,
    hungry ones first, then sated ones. A sated queue gets nothing before
    that second tier, even when it is risky.
    """
    shares = [0.0] * len(rooms)
    risky, hungry, sated_tier = [], [], []
    for i, need in enumerate(needs):
        if need > 0:
            risky.append(i)
        elif sated[i]:
            sated_tier.append(i)
        else:
            hungry.append(i)
    total_risky = left_sum(needs[i] for i in risky)
    scale = 1.0 / total_risky if total_risky > 1.0 else 1.0
    for i in risky:
        if not sated[i]:
            shares[i] = needs[i] * scale

    residual = 1.0 - left_sum(shares)
    if residual > 0:
        # airtime a queue cannot fill within the interval is dead, so each
        # equal share is capped at the queue's room and the surplus falls
        # through to the sated queues instead of idling; no tier member holds
        # any airtime before its tier fills
        for tier in (hungry, sated_tier):
            filled, residual = _water_fill([rooms[i] for i in tier], residual)
            for i, share in zip(tier, filled):
                shares[i] = share
            if residual <= 0:
                break
    return AirtimeAllocation(shares, risky)


def _water_fill(rooms: list[float], residual: float) -> tuple[list[float], float]:
    """Split `residual` equally by position, capping each share at its room
    (the fraction of the interval its queue can absorb) and re-splitting the
    rest among the uncapped; returns the shares and the surplus."""
    shares = [0.0] * len(rooms)
    live = [(i, room) for i, room in enumerate(rooms) if room > 0]
    while live and residual > 1e-12:
        per = residual / len(live)
        nxt = []
        for i, room in live:
            grant = room if room < per else per  # min(per, room), without the call
            shares[i] += grant
            residual -= grant
            if room - grant > 1e-12:
                nxt.append((i, room - grant))
        if len(nxt) == len(live):    # nobody hit a cap; split is final
            break
        live = nxt
    return shares, max(residual, 0.0)


def equal_airtime(rooms: list[float]) -> list[float]:
    """Equal shares of the whole interval, one per room, by position. A room
    is a busy queue's bits over (link capacity * t_ap_s), the most of the
    interval it can use; a capped queue drains exactly by the interval's end."""
    return _water_fill(rooms, 1.0)[0]
