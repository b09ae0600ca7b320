"""Per-layer tracing by wrapping edgestream's public functions from outside.

Each wrapper is installed in the namespace its caller looks the name up in
(for example `edgestream.ap_engine.cph_assign`, because the engine calls the
solver through its own module globals), and removed again on exit. Nothing
under src/ changes. A span's self time is its duration minus the durations
of the wrapped calls it made, so a wrapper's own bookkeeping lands in its
caller's self time; trace.overhead_ratio gives the size of that cost.
"""
from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from time import perf_counter

from workloads import ALL_SCHEMES


def longest_cluster(groups) -> int:
    """Longest run of consecutive solve groups sharing a cluster_key."""
    best = run = 0
    prev = object()
    for g in groups:
        run = run + 1 if g.cluster_key == prev else 1
        prev = g.cluster_key
        best = max(best, run)
    return best


@dataclass(frozen=True)
class Target:
    owner: str                  # dotted path below edgestream, module or class
    attr: str
    name: str                   # <module>.<function>, the metric prefix
    timed: bool = False         # keep every call's duration for percentiles
    ms_max: bool = False        # also report the slowest call
    sums: tuple = ()            # (stat, fn(args, result) -> number), summed
    maxima: tuple = ()          # (stat, fn(args, result) -> number), max kept
    split: bool = False         # durations per scheme (args[1])


TARGETS = (
    Target("ap_engine.ApEngine", "step_rai", "ap_engine.step_rai", timed=True),
    Target("ap_engine", "cph_assign", "cph.cph_assign", timed=True, sums=(
        ("requests", lambda a, r: len(a[0])),
        ("fallbacks", lambda a, r: int(r.no_valid_config)))),
    Target("cph", "solve_groups", "cph.solve_groups", timed=True, ms_max=True,
           maxima=(("max_cluster", lambda a, r: longest_cluster(a[0])),)),
    Target("ap_engine", "buff_assign", "buff.buff_assign", sums=(
        ("fallbacks", lambda a, r: int(r.no_valid_config)),)),
    Target("cph", "build_candidates", "assign_core.build_candidates", sums=(
        ("candidates", lambda a, r: len(r)),)),
    Target("buff", "build_candidates", "assign_core.build_candidates", sums=(
        ("candidates", lambda a, r: len(r)),)),
    Target("assign_core", "estimate_buffer", "buffer_airtime.estimate_buffer"),
    Target("ap_engine", "allocate_airtime", "buffer_airtime.allocate_airtime", sums=(
        ("risky", lambda a, r: len(r.risky)),)),
    Target("ap_engine", "equal_airtime", "buffer_airtime.equal_airtime"),
    Target("client.DashClient", "advance_to", "client.advance_to"),
    Target("client.DashClient", "maybe_issue_requests", "client.maybe_issue_requests",
           sums=(("issued", lambda a, r: len(r)),)),
    Target("client.DashClient", "on_chunk_delivered", "client.on_chunk_delivered"),
    Target("cache.LruChunkCache", "contains", "cache.contains", sums=(
        ("hits", lambda a, r: int(r)),)),
    Target("cache.LruChunkCache", "insert", "cache.insert", sums=(
        ("evictions", lambda a, r: len(r)),)),
    Target("cache.LruChunkCache", "touch", "cache.touch"),
    Target("cli_metrics", "make_synthetic_catalog", "catalog.make_synthetic_catalog"),
)

# the benchmark calls run_replication itself and passes the wrapped callable
REPLICATION = Target("cli_metrics", "run_replication", "cli_metrics.run_replication",
                     split=True)


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)
    durations: list = field(default_factory=list)
    by_scheme: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[float] = []   # child time of each open span

    def wrap(self, target: Target, fn):
        stat = self.stats.setdefault(target.name, Stat())
        for key, _ in target.sums + target.maxima:
            stat.counts.setdefault(key, 0)
        stack = self._stack
        timed, split, sums, maxima = target.timed, target.split, target.sums, target.maxima
        durations, by_scheme, counts = stat.durations, stat.by_scheme, stat.counts

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                child = stack.pop()
            span = t1 - t0
            stat.calls += 1
            stat.self_s += span - child
            if timed:
                durations.append(span)
            if split:
                by_scheme.setdefault(args[1], []).append(span)
            for key, fn_count in sums:
                counts[key] += fn_count(args, result)
            for key, fn_count in maxima:
                counts[key] = max(counts[key], fn_count(args, result))
            if stack:
                stack[-1] += span
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, edgestream):
        """Wrap every target for the duration of the block."""
        undo = []
        try:
            for target in TARGETS:
                owner = _resolve(edgestream, target.owner)
                original = owner.__dict__[target.attr]
                setattr(owner, target.attr, self.wrap(target, original))
                undo.append((owner, target.attr, original))
            yield
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


def _resolve(edgestream, dotted: str):
    obj = edgestream
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def _quantile_ms(values: list[float], q: float) -> float:
    """Nearest-rank quantile in milliseconds; 0 when there were no calls."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return 1e3 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(stats: dict[str, Stat], passes: int) -> dict[str, tuple[float, str]]:
    """Per-pass per-layer metrics as name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    for target in TARGETS + (REPLICATION,):
        stat = stats[target.name]
        prefix = target.name
        out[f"{prefix}.calls"] = (stat.calls / passes, "count")
        out[f"{prefix}.self_s"] = (stat.self_s / passes, "s")
        if target.timed:
            out[f"{prefix}.ms_p50"] = (_quantile_ms(stat.durations, 0.50), "ms")
            out[f"{prefix}.ms_p99"] = (_quantile_ms(stat.durations, 0.99), "ms")
        if target.ms_max:
            out[f"{prefix}.ms_max"] = (1e3 * max(stat.durations, default=0.0), "ms")
        for key, _ in target.sums:
            out[f"{prefix}.{key}"] = (stat.counts[key] / passes, "count")
        for key, _ in target.maxima:
            out[f"{prefix}.{key}"] = (stat.counts[key], "count")
        if target.split:
            for scheme in ALL_SCHEMES:
                spans = stat.by_scheme.get(scheme, [])
                out[f"{prefix}.{scheme}.s_p50"] = (_quantile_ms(spans, 0.50) / 1e3, "s")
    return out


def layer_shares(stats: dict[str, Stat], traced_s: float) -> dict[str, float]:
    """Self time of each module as a share of the traced replications' time."""
    shares: dict[str, float] = {}
    for name, stat in stats.items():
        module = name.split(".", 1)[0]
        shares[module] = shares.get(module, 0.0) + stat.self_s / traced_s
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def self_check(stats: dict[str, Stat], results: list) -> list[str]:
    """Compare the wrappers' counts with the engine's own counters."""
    cph, buff = stats["cph.cph_assign"], stats["buff.buff_assign"]
    expected = {
        "solver calls": (cph.calls + buff.calls, sum(r.solver_calls for r in results)),
        "solver fallbacks": (cph.counts["fallbacks"] + buff.counts["fallbacks"],
                             sum(r.solver_fallbacks for r in results)),
        "delivered chunks": (stats["client.on_chunk_delivered"].calls,
                             sum(r.delivered_chunks for r in results)),
    }
    return [f"tracer self-check: {what} traced {got} != engine {want}"
            for what, (got, want) in expected.items() if got != want]
