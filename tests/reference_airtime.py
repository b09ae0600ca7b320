"""Reference airtime splits over whole client loads, keyed by client id.

These are the earlier implementations of `edgestream.buffer_airtime`'s
`allocate_airtime` and `equal_airtime`, kept as an independent check on the
positional versions: they sort the loads by client id, check every capacity,
compute each need and room themselves and return the shares keyed by client
id. They import nothing from `edgestream.buffer_airtime`, the water-fill
included.
"""
from __future__ import annotations

from typing import NamedTuple

from edgestream.ap_engine import SUFFICIENT_CHUNKS
from edgestream.fold import left_sum


class ClientLoad(NamedTuple):
    client_id: int
    dl_queue_bits: float
    buffer_s: float
    avg_queued_bitrate_bps: float
    link_capacity_bps: float
    buffered_chunks: float
    playing: bool = True


def _fill_equally(tier: list[ClientLoad], shares: dict[int, float],
                  residual: float, t_ap_s: float) -> float:
    """Split `residual` equally across the tier, capping each share at what
    the client's queue can absorb within the interval; returns the surplus.
    """
    live = [
        (c.client_id, c.dl_queue_bits / (c.link_capacity_bps * t_ap_s) - shares[c.client_id])
        for c in tier
    ]
    live = [(cid, room) for cid, room in live if room > 0]
    while live and residual > 1e-12:
        per = residual / len(live)
        nxt = []
        for cid, room in live:
            grant = min(per, room)
            shares[cid] += grant
            residual -= grant
            if room - grant > 1e-12:
                nxt.append((cid, room - grant))
        if len(nxt) == len(live):    # nobody hit a cap; split is final
            break
        live = nxt
    return max(residual, 0.0)


def reference_equal_airtime(clients: list[ClientLoad], t_ap_s: float) -> dict[int, float]:
    """Equal shares of the whole interval across the clients with queued
    data, each capped at what its queue can absorb, keyed by client id."""
    if t_ap_s <= 0 or any(c.link_capacity_bps <= 0 for c in clients):
        raise ValueError("t_ap_s and link_capacity_bps must be > 0")
    shares = {c.client_id: 0.0 for c in clients}
    _fill_equally(sorted(clients, key=lambda c: c.client_id), shares, 1.0, t_ap_s)
    return shares


def reference_allocate_airtime(
    clients: list[ClientLoad],
    b_min_s: float,
    t_ap_s: float,
) -> tuple[dict[int, float], frozenset[int]]:
    """Stall-aware shares keyed by client id, and the ids of the risky
    clients: risky clients get what they need, scaled down proportionally if
    the needs exceed the interval; the leftover is split equally among the
    remaining clients with queued data, where playing clients already holding
    SUFFICIENT_CHUNKS of media step aside until everyone hungrier has all the
    airtime they can use.
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
        # falls through to the well-buffered clients instead of idling
        for tier in (hungry, sated):
            residual = _fill_equally(tier, shares, residual, t_ap_s)
            if residual <= 0:
                break
    return shares, risky
