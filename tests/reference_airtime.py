"""Reference equal airtime split over whole client loads.

This is the earlier implementation of `edgestream.buffer_airtime.equal_airtime`,
kept unchanged as an independent check on the positional version: it sorts
the loads by client id, checks every capacity, computes each room itself and
returns the shares keyed by client id. It does not import the water-fill
from `edgestream.buffer_airtime`.
"""
from __future__ import annotations

from edgestream.buffer_airtime import ClientLoad


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
