"""Reference downlink drain: every served queue through one general loop.

This is `edgestream.ap_engine.ApEngine._serve_segment` as it was before it
skipped idle segments and settled a head that outlasts its segment with one
subtraction. It is kept as a plain function, with the engine's delivery hook
passed in, so the fast paths can be checked against it bit for bit.
"""
from __future__ import annotations

from edgestream.ap_engine import _EPS


def reference_serve_segment(t0: float, t1: float, served, deliver) -> None:
    """Drain the served (client id, rate, queue) entries over [t0, t1],
    calling `deliver(t, client_id, item)` for each completion in time order."""
    if t1 <= t0:
        return
    completions = []
    open_until = t1 - _EPS
    done_by = t1 + _EPS
    for cid, rate, q in served:
        cursor = t0
        while q and cursor < open_until:
            head = q[0]
            finish = cursor + head.remaining_bits / rate
            if finish <= done_by:
                # a finish up to _EPS late is clamped to the segment's end
                completions.append((t1 if t1 < finish else finish, cid, head))
                q.popleft()
                cursor = finish
            else:
                head.remaining_bits -= rate * (t1 - cursor)
                cursor = t1
    # (time, client) is unique within a segment, so no item is compared
    completions.sort()
    for (t, cid, item) in completions:
        deliver(t, cid, item)
