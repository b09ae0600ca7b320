"""Access-point control loop on a fixed allocation interval.

Each interval: collect freshly issued requests, pick one delivery quality
per request under the scheme in force, route cache hits straight to
per-client downlink queues and misses into the single shared backhaul FIFO
(one entry per distinct chunk, extra requesters ride along), allocate
downlink airtime, then advance the continuous dynamics inside the window:
the backhaul pipe drains in FIFO order, finished downloads enter the cache
and fan out to waiting clients, and each client's downlink queue drains at
its airtime share of link capacity. Chunk completions are delivered to
clients at exact sub-interval times.

The solvers only pick qualities; whether a delivery is a cache hit is
decided here, once, when the request is routed. The client's own
ChunkRequest travels with it from issue to delivery: a downlink item holds
it, and a backhaul job holds one per request it serves.

A client's request gate is tested only once the `next_poll_s` its last
poll set has come (a delivery polls at once, which resets it), so a gate
held shut by the buffer, the in-flight cap or the start time is not
re-tested each interval. The backhaul FIFO is one ordered map keyed by
chunk, so a rider finds its job with one probe.

The engine is deterministic by construction: no randomness, no iteration
over unordered containers where order can leak into results.
"""
from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

from .assign_core import SolverParams
from .buff import buff_assign  # noqa: F401  (called by name through POLICIES)
from .buffer_airtime import allocate_airtime, equal_airtime
from .cache import LruChunkCache
from .client import ChunkRequest, DashClient
from .cph import cph_assign  # noqa: F401  (called by name through POLICIES)
from .fold import left_sum


class Policy(NamedTuple):
    # name of the quality solver in this module, looked up per call so a
    # wrapper installed in the module namespace is honoured; None = passthrough
    solver: str | None
    stall_aware: bool  # allocate_airtime, else equal_airtime
    reads_cache: bool


POLICIES = {
    "CPH": Policy("cph_assign", stall_aware=True, reads_cache=True),
    "CPH-EQ": Policy("cph_assign", stall_aware=False, reads_cache=True),
    "BUFF": Policy("buff_assign", stall_aware=True, reads_cache=True),
    "CLIENT": Policy(None, stall_aware=False, reads_cache=False),
    "CLIENT-CACHE": Policy(None, stall_aware=False, reads_cache=True),
}
SCHEMES = tuple(POLICIES)

_EPS = 1e-9
# buffered chunks at which a playing client is sated: under stall-aware
# airtime it steps aside until every hungrier queue has all it can use
SUFFICIENT_CHUNKS = 2.0
# ChunkRequest's (issue_time_s, client_id, chunk_index)
_ISSUE_ORDER = itemgetter(4, 0, 2)


@dataclass(slots=True)
class DlItem:
    req: ChunkRequest  # the client's own request, as issued
    quality_index: int
    size_bits: float
    remaining_bits: float
    from_cache: bool
    enqueue_time_s: float
    backhaul_delay_s: float


@dataclass(slots=True)
class BackhaulJob:
    size_bits: float
    remaining_bits: float
    enqueue_time_s: float
    waiters: list[ChunkRequest]  # every request the download serves


@dataclass(frozen=True)
class DeliveryEvent:
    time_s: float
    client_id: int
    video_id: int
    chunk_index: int
    requested_quality: int
    delivered_quality: int
    from_cache: bool
    backhaul_delay_s: float
    dl_delay_s: float


@dataclass
class SimulationResult:
    """The engine's ledger: the engine accumulates into it as the run goes."""
    scheme: str
    backhaul_bps: float
    t_end_s: float = 0.0
    delivered_chunks: int = 0
    delivered_bits: float = 0.0
    cache_bits: float = 0.0
    backhaul_attributed_bits: float = 0.0
    pipe_bits: float = 0.0
    bitrate_sum_bps: float = 0.0
    solver_calls: int = 0
    solver_fallbacks: int = 0
    startup_latencies_s: list[float] = field(default_factory=list)
    stall_ratios: list[float] = field(default_factory=list)
    all_finished: bool = False
    violations: list[str] = field(default_factory=list)
    events: list[DeliveryEvent] = field(default_factory=list)

    @property
    def mean_bitrate_kbps(self) -> float:
        if self.delivered_chunks == 0:
            return 0.0
        return self.bitrate_sum_bps / self.delivered_chunks / 1e3

    @property
    def cache_bit_hit_ratio(self) -> float:
        if self.delivered_bits == 0:
            return 0.0
        return self.cache_bits / self.delivered_bits

    @property
    def stall_ratio(self) -> float:
        if not self.stall_ratios:
            return 0.0
        return left_sum(self.stall_ratios) / len(self.stall_ratios)

    @property
    def initial_latency_s(self) -> float:
        if not self.startup_latencies_s:
            return float("nan")
        return left_sum(self.startup_latencies_s) / len(self.startup_latencies_s)

    @property
    def backhaul_utilization(self) -> float:
        if not (self.backhaul_bps > 0 and self.t_end_s > 0):
            return 0.0
        return self.pipe_bits / (self.backhaul_bps * self.t_end_s)

    @property
    def no_valid_config_fraction(self) -> float:
        if self.solver_calls == 0:
            return 0.0
        return self.solver_fallbacks / self.solver_calls


class ApEngine:
    """One AP run. `stations` holds one (video id, session start in s, link
    capacity in bps) per client, and client i is entry i; the ladder, the
    buffer size and the backhaul rate every client shares come from `params`."""

    def __init__(
        self,
        scheme: str,
        stations: list[tuple[int, float, float]],
        cache: LruChunkCache,
        t_ap_s: float,
        params: SolverParams,
        record_events: bool = False,
        max_time_s: float | None = None,
    ):
        if scheme not in POLICIES:
            raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
        if not t_ap_s > 0:
            raise ValueError("t_ap_s must be > 0")
        self.policy = POLICIES[scheme]
        self.ladder = params.ladder
        self.clients = [DashClient(i, video_id, self.ladder, params.b_max_s, start_time_s=start_s)
                        for i, (video_id, start_s, _) in enumerate(stations)]
        self.capacity = [capacity_bps for _, _, capacity_bps in stations]
        for i, capacity_bps in enumerate(self.capacity):
            if not capacity_bps > 0:  # NaN too: its queue would never drain
                raise ValueError(f"client {i}: link capacity must be > 0, got {capacity_bps!r}")
        self.cache = cache
        self.t_ap_s = t_ap_s
        self.params = params
        self.record_events = record_events
        total_media = self.ladder.chunk_count * self.ladder.chunk_duration_s
        self.max_time_s = max_time_s if max_time_s is not None else total_media * 50 + 60

        self.dl_queues: list[deque[DlItem]] = [deque() for _ in self.clients]
        # backhaul jobs by (video, chunk, quality) in FIFO order; a plain dict's
        # first entry grows slow to reach after many deletions from the front
        self.fifo: OrderedDict[tuple[int, int, int], BackhaulJob] = OrderedDict()
        self.intake: list[ChunkRequest] = []
        self.result = SimulationResult(scheme, params.backhaul_bps)
        self.now = 0.0

    # ---- solver-facing snapshots -------------------------------------

    def _queue_snapshot(self, client_id: int) -> tuple[float, float]:
        """(remaining bits, whole-chunk media seconds) of a client's queue."""
        chunk_s = self.ladder.chunk_duration_s
        bits = 0.0
        media = 0.0
        for i, item in enumerate(self.dl_queues[client_id]):
            bits += item.remaining_bits
            if i > 0 or item.remaining_bits == item.size_bits:
                media += chunk_s
        return bits, media

    def _build_requests(self, n1: list[ChunkRequest]) -> list[tuple]:
        # selection assumes equal airtime; the realized allocation may differ
        share = 1.0 / len(self.clients)
        backlog = left_sum(job.remaining_bits for job in self.fifo.values())
        out = []
        for r in n1:
            cid = r.client_id
            bits, media = self._queue_snapshot(cid)
            # plain, in QualityRequest's field order: (client, video, chunk, requested
            # quality, buffer, effective rate, queue bits, queue media, backlog)
            out.append((cid, r.video_id, r.chunk_index, r.quality_index, self.clients[cid].buffer_s,
                        self.capacity[cid] * share, bits, media, backlog))
        return out

    # ---- scheme dispatch ---------------------------------------------

    def _available_backhaul_bps(self) -> float:
        # only the transfer actually on the wire holds a rate claim; queued
        # jobs would multiply-count a pipelining client's single stream, and
        # their pressure already reaches the solver through the queue-drain
        # term of the buffer estimates
        rate = self.params.backhaul_bps
        if self.fifo:
            head = next(iter(self.fifo.values()))
            return max(0.0, rate - head.size_bits / self.ladder.chunk_duration_s)
        return rate

    def _assign(self, n1: list[ChunkRequest]) -> tuple[int, ...]:
        """One delivery quality per request of `n1`, in its order."""
        if self.policy.solver is None:
            return tuple(r.quality_index for r in n1)  # passthrough, no scoring
        solve = globals()[self.policy.solver]
        result = solve(self._build_requests(n1), self.cache, self._available_backhaul_bps(),
                       self.params)
        self.result.solver_calls += 1
        if result.no_valid_config:
            self.result.solver_fallbacks += 1
        return result.qualities

    # ---- per-interval step -------------------------------------------

    def _enqueue(self, n1: list[ChunkRequest], qualities: tuple[int, ...]) -> None:
        """Route each request at its quality: a cache hit to the client's
        downlink queue, a miss onto the backhaul job for its chunk."""
        tolerance = self.params.gamma if self.policy.solver is not None else 0
        levels = self.params.levels
        for req, m in zip(n1, qualities):
            if abs(m - req.quality_index) > tolerance:
                self.result.violations.append(
                    f"t={self.now}: quality shift beyond tolerance for client {req.client_id} "
                    f"({req.quality_index} -> {m})")
            size = levels[m][1]  # chunk bits: the ladder's nominal_size_bits(m)
            key = (req.video_id, req.chunk_index, m)
            if self.policy.reads_cache and self.cache.contains(*key):
                self.cache.touch(*key)
                self.dl_queues[req.client_id].append(DlItem(
                    req, m, size, size, True, self.now, 0.0))
                continue
            existing = self.fifo.get(key)
            if existing is not None:
                existing.waiters.append(req)
                continue
            self.fifo[key] = BackhaulJob(size_bits=size, remaining_bits=size,
                                         enqueue_time_s=self.now, waiters=[req])

    def _allocate(self) -> list[tuple[int, float, deque[DlItem]]]:
        """(client id, drain rate, queue) of every client granted airtime for
        the interval, in client order. An empty queue would get a share of
        exactly 0 from either allocator and never count as risky, so only the
        busy queues are handed over, by position: each one's room, and for
        the stall-aware split also its need and whether it is sated."""
        capacity = self.capacity
        queues = self.dl_queues
        t_ap_s = self.t_ap_s
        stall_aware = self.policy.stall_aware
        chunk_s = self.ladder.chunk_duration_s
        b_min_s = self.params.b_min_s
        busy, rooms, needs, sated = [], [], [], []
        for cid, q in enumerate(queues):
            if not q:
                continue
            slot = capacity[cid] * t_ap_s  # bits the link carries in the interval
            if stall_aware:
                c = self.clients[cid]
                bits, media = self._queue_snapshot(cid)
                # media is 0 only for a lone, partly sent head: take its bitrate
                avg_rate = bits / media if media > 0 else q[0].size_bits / chunk_s
                # the fraction of the interval that refills the buffer to b_min_s
                needs.append(min(bits, (b_min_s - c.buffer_s) * avg_rate) / slot)
                # a player still filling toward its start threshold has no
                # playout drain, so parking it would freeze the session
                sated.append(c.playout_started and c.buffer_s / chunk_s >= SUFFICIENT_CHUNKS)
            else:
                bits = 0.0
                for item in q:
                    bits += item.remaining_bits
            busy.append(cid)
            rooms.append(bits / slot)
        shares = (allocate_airtime(rooms, needs, sated).shares if stall_aware
                  else equal_airtime(rooms))
        total = left_sum(shares)
        if total > 1.0 + 1e-9:
            self.result.violations.append(f"t={self.now}: airtime shares sum to {total}")
        return [(cid, capacity[cid] * share, queues[cid])
                for cid, share in zip(busy, shares) if share > 0]

    def _deliver(self, t: float, client_id: int, item: DlItem) -> None:
        client = self.clients[client_id]
        req = item.req
        res = self.result
        client.on_chunk_delivered(t, req.chunk_index, item.size_bits)
        res.delivered_chunks += 1
        res.delivered_bits += item.size_bits
        if item.from_cache:
            res.cache_bits += item.size_bits
        else:
            res.backhaul_attributed_bits += item.size_bits
        res.bitrate_sum_bps += self.ladder.bitrates_bps[item.quality_index]
        if self.record_events:
            res.events.append(DeliveryEvent(
                time_s=t, client_id=client_id, video_id=req.video_id,
                chunk_index=req.chunk_index, requested_quality=req.quality_index,
                delivered_quality=item.quality_index, from_cache=item.from_cache,
                backhaul_delay_s=item.backhaul_delay_s,
                dl_delay_s=t - item.enqueue_time_s,
            ))
        self.intake.extend(client.maybe_issue_requests(t))

    def _serve_segment(self, t0: float, t1: float,
                       served: list[tuple[int, float, deque[DlItem]]]) -> None:
        """Drain the served queues over [t0, t1]; deliveries fire in time order."""
        if t1 <= t0:
            return
        completions: list[tuple[float, int, DlItem]] = []
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
        # (time, client) is unique within a segment, so no DlItem is compared
        completions.sort()
        for (t, cid, item) in completions:
            self._deliver(t, cid, item)

    def _complete_backhaul_job(self, t: float, key: tuple, job: BackhaulJob) -> None:
        self.cache.insert(*key, job.size_bits)
        for req in job.waiters:
            self.dl_queues[req.client_id].append(DlItem(
                req, key[2], job.size_bits, job.size_bits, False, t, t - job.enqueue_time_s))

    def step_rai(self) -> None:
        t = self.now
        for c in self.clients:
            if t < c.next_poll_s:  # its gate cannot open before then
                c.advance_to(t)
                continue
            issued = c.maybe_issue_requests(t)  # advances c to t first
            if issued:
                self.intake.extend(issued)
        if self.intake:
            n1 = sorted(self.intake, key=_ISSUE_ORDER)
            self.intake = []
            self._enqueue(n1, self._assign(n1))
        served = self._allocate()

        end = t + self.t_ap_s
        cursor = t
        drained = 0.0
        rate = self.params.backhaul_bps
        while self.fifo and rate > 0 and cursor < end - _EPS:
            key, head = next(iter(self.fifo.items()))
            t_done = cursor + head.remaining_bits / rate
            if t_done > end + _EPS:  # partial send: the head job outlasts the window
                sent = (end - cursor) * rate
                head.remaining_bits -= sent
                drained += sent
                break
            # job finishes inside the window: pop it outright so float
            # roundoff can never strand a sliver of it in the queue
            seg_end = min(t_done, end)
            self._serve_segment(cursor, seg_end, served)
            drained += head.remaining_bits
            self.fifo.popitem(last=False)
            self._complete_backhaul_job(seg_end, key, head)
            cursor = seg_end
        self._serve_segment(cursor, end, served)
        # a job that finishes up to _EPS past the window's end is counted in full
        if drained > rate * (self.t_ap_s + _EPS) * (1 + 1e-9):
            self.result.violations.append(
                f"t={t}: backhaul drained {drained} bits in one interval")
        self.result.pipe_bits += drained
        self.now = end

    def run(self) -> SimulationResult:
        pending = deque(self.clients)  # `finished` is never reset: a finished head is done
        while pending and self.now < self.max_time_s:
            if pending[0].finished:
                pending.popleft()
            else:
                self.step_rai()
        res = self.result
        res.t_end_s = self.now
        for c in self.clients:
            c.advance_to(res.t_end_s)
        expected = res.cache_bits + res.backhaul_attributed_bits
        if abs(expected - res.delivered_bits) > 1e-6 * max(res.delivered_bits, 1.0):
            res.violations.append(
                f"delivered bits {res.delivered_bits} != cache {res.cache_bits} "
                f"+ backhaul {res.backhaul_attributed_bits}")
        res.startup_latencies_s = [c.startup_latency_s for c in self.clients
                                   if c.startup_latency_s is not None]
        res.stall_ratios = [c.stall_ratio(res.t_end_s) for c in self.clients]
        res.all_finished = all(c.finished for c in self.clients)
        return res
