"""`ApEngine` with each exact shortcut replaced by the plain form it must
equal: every client polled at every interval boundary, airtime split by the
keyed allocators of `reference_airtime` on every interval, and every served
queue drained through one general loop. The interval loop is the engine's."""
from __future__ import annotations

import math

from edgestream.ap_engine import _EPS, ApEngine
from edgestream.fold import left_sum
from reference_airtime import ClientLoad, reference_allocate_airtime, reference_equal_airtime


class ReferenceEngine(ApEngine):

    def step_rai(self) -> None:
        for c in self.clients:
            c.next_poll_s = -math.inf  # no gate is trusted shut
        super().step_rai()

    def _allocate(self):
        chunk_s = self.ladder.chunk_duration_s
        loads = []
        for cid, q in enumerate(self.dl_queues):
            if q:
                c = self.clients[cid]
                bits, media = self._queue_snapshot(cid)
                avg_rate = bits / media if media > 0 else q[0].size_bits / chunk_s
                loads.append(ClientLoad(cid, bits, c.buffer_s, avg_rate, self.capacity[cid],
                                        c.buffer_s / chunk_s, c.playout_started))
        if self.policy.stall_aware:
            shares = reference_allocate_airtime(loads, self.params.b_min_s, self.t_ap_s)[0]
        else:
            shares = reference_equal_airtime(loads, self.t_ap_s)
        total = left_sum(shares.values())
        if total > 1.0 + 1e-9:
            self.result.violations.append(f"t={self.now}: airtime shares sum to {total}")
        return [(cid, self.capacity[cid] * share, self.dl_queues[cid])
                for cid, share in shares.items() if share > 0]

    def _serve_segment(self, t0, t1, served) -> None:
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
            self._deliver(t, cid, item)
