"""Downlink airtime shares.

Both allocators hand out fixed fractions of one interval, none larger than
what the client's queue can absorb in it, through one water-fill: the
stall-aware one gives stall-endangered clients exactly the share they need
and water-fills the rest, hungry clients before sated ones; the equal one,
used by the other schemes, water-fills all of it over the busy queues'
rooms, by position. A capped queue is paced to empty at the interval's end,
not sent at link rate.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .fold import left_sum

SUFFICIENT_CHUNKS = 2.0  # buffered chunks at which a playing client steps aside


class ClientLoad(NamedTuple):
    client_id: int
    dl_queue_bits: float
    buffer_s: float
    avg_queued_bitrate_bps: float
    link_capacity_bps: float
    buffered_chunks: float
    playing: bool = True


@dataclass(frozen=True)
class AirtimeAllocation:
    shares: dict[int, float]
    risky: frozenset[int]

    def total(self) -> float:
        return left_sum(self.shares.values())


def allocate_airtime(
    clients: list[ClientLoad],
    b_min_s: float,
    t_ap_s: float,
) -> AirtimeAllocation:
    """Stall-aware shares: risky clients get what they need, scaled down
    proportionally if the needs exceed the interval; the leftover is split
    equally among the remaining clients with queued data, where playing
    clients already holding SUFFICIENT_CHUNKS of media step aside until
    everyone hungrier has all the airtime they can use.
    """
    if t_ap_s <= 0:
        raise ValueError("t_ap_s must be > 0")
    ordered = sorted(clients, key=lambda c: c.client_id)
    shares: dict[int, float] = {}
    required: dict[int, float] = {}
    for c in ordered:
        if c.link_capacity_bps <= 0:
            raise ValueError("link_capacity_bps must be > 0")
        need_bits = min(c.dl_queue_bits, (b_min_s - c.buffer_s) * c.avg_queued_bitrate_bps)
        theta = need_bits / (c.link_capacity_bps * t_ap_s)
        required[c.client_id] = theta
        shares[c.client_id] = 0.0

    # required holds the clients in id order, so each sum below runs in it
    risky = frozenset(cid for cid, th in required.items() if th > 0)
    total_risky = left_sum(th for th in required.values() if th > 0)
    scale = 1.0 / total_risky if total_risky > 1.0 else 1.0
    for cid in risky:
        shares[cid] = required[cid] * scale

    # a player still filling toward its start threshold has no playout drain,
    # so parking it at the sufficiency cutoff would freeze the session
    excluded = frozenset(
        c.client_id for c in clients
        if c.playing and c.buffered_chunks >= SUFFICIENT_CHUNKS
    )
    for cid in excluded:
        shares[cid] = 0.0

    residual = 1.0 - left_sum(shares.values())
    if residual > 0:
        waiting = [c for c in ordered if c.client_id not in risky and c.dl_queue_bits > 0]
        hungry = [c for c in waiting if c.client_id not in excluded]
        sated = [c for c in waiting if c.client_id in excluded]
        # airtime a client cannot fill within the interval is dead, so each
        # equal share is capped at what the queue can absorb and the surplus
        # falls through to the well-buffered clients instead of idling; no
        # tier member holds any airtime before its tier fills
        for tier in (hungry, sated):
            filled, residual = _water_fill(
                [c.dl_queue_bits / (c.link_capacity_bps * t_ap_s) for c in tier], residual)
            shares.update(zip([c.client_id for c in tier], filled))
            if residual <= 0:
                break
    return AirtimeAllocation(shares=shares, risky=risky)


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
