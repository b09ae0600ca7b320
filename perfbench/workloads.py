"""Workload table, per-replication output check and result digest.

A workload is a fixed list of (config, scheme, replication) tasks built from
the benchmark seed. Replication r of seed s draws its placement, videos and
start offsets from RNG seed SEED_STRIDE * s + r, so different benchmark
seeds never share an input.
"""
from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass, replace

SEED_STRIDE = 1000

ALL_SCHEMES = ("CPH", "CPH-EQ", "BUFF", "CLIENT", "CLIENT-CACHE")


@dataclass(frozen=True)
class Workload:
    why: str
    points: tuple[dict, ...]    # ScenarioConfig overrides, one per sweep point
    schemes: tuple[str, ...]
    reps: int                   # replications per (point, scheme) in one pass


WORKLOADS = {
    "population": Workload(
        why="the paper's sweep, N in {1,5,10,20} x all five schemes; "
            "time spread across engine, solver, scoring and client",
        points=tuple({"n_clients": n} for n in (1, 5, 10, 20)),
        schemes=ALL_SCHEMES,
        reps=3,
    ),
    "sync_burst": Workload(
        why="7 clients of one video start together, so every solver call "
            "holds a 7-request cluster; the exact solver's worst case",
        points=({"n_videos": 1, "start_offset_max_s": 0.0, "chunk_count": 20,
                 "n_clients": 7},),
        schemes=("CPH", "CPH-EQ", "BUFF"),
        reps=3,
    ),
    "passthrough_crowd": Workload(
        why="40 clients on passthrough schemes over an 8 MB LRU and 8 Mbps "
            "backhaul; engine, client and evicting cache, no solver",
        points=({"n_clients": 40, "cache_capacity_bits": 64e6,
                 "backhaul_mbps": 8.0},),
        schemes=("CLIENT", "CLIENT-CACHE"),
        reps=12,
    ),
}


@dataclass(frozen=True)
class Task:
    cfg: object      # edgestream.ScenarioConfig
    scheme: str
    rep: int


def build_tasks(edgestream, name: str, seed: int) -> list[Task]:
    """Every replication of one pass, in run order."""
    w = WORKLOADS[name]
    cfgs = []
    for point in w.points:
        cfg = replace(edgestream.ScenarioConfig(), schemes=w.schemes, reps=w.reps,
                      base_seed=SEED_STRIDE * seed, **point)
        cfg.validate()
        cfgs.append(cfg)
    return [Task(cfg, scheme, rep)
            for rep in range(w.reps) for cfg in cfgs for scheme in w.schemes]


def output_problem(task: Task, result) -> str | None:
    """Why a finished replication counts as failed, or None if it is sound."""
    cfg = task.cfg
    if result.violations:
        return f"{len(result.violations)} invariant violations, first: {result.violations[0]}"
    if not result.all_finished:
        return "not every client finished its session"
    expected = cfg.n_clients * cfg.chunk_count
    if result.delivered_chunks != expected:
        return f"delivered {result.delivered_chunks} chunks, expected {expected}"
    return None


# The simulated statistics a result carries; events and violations are left
# out, and fields added to the result later do not change the digest.
DIGEST_FIELDS = (
    "t_end_s", "delivered_chunks", "delivered_bits", "cache_bits",
    "backhaul_attributed_bits", "pipe_bits", "bitrate_sum_bps", "solver_calls",
    "solver_fallbacks", "startup_latencies_s", "stall_ratios", "all_finished",
)


def result_record(task: Task, result) -> str:
    """Exact text of one replication's statistics (None if it raised)."""
    head = (task.scheme, task.cfg.n_clients, task.cfg.base_seed + task.rep)
    if result is None:
        return repr(head + ("raised",))
    return repr(head + tuple(getattr(result, f) for f in DIGEST_FIELDS))


def digest(records: list[str]) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(rec.encode())
        h.update(b"\n")
    return h.hexdigest()


def sim_metrics(results: list) -> dict[str, float]:
    """Means over the (scheme, replication) results of one pass."""
    return {
        "sim.mean_bitrate_kbps": statistics.fmean(r.mean_bitrate_kbps for r in results),
        "sim.initial_latency_s": statistics.fmean(
            statistics.fmean(r.startup_latencies_s) for r in results),
        "sim.backhaul_bit_ratio": statistics.fmean(
            r.pipe_bits / r.delivered_bits for r in results),
        # informational only: both are 0 on some workloads
        "sim.stall_ratio": statistics.fmean(
            statistics.fmean(r.stall_ratios) for r in results),
        "sim.cache_bit_hit_ratio": statistics.fmean(
            r.cache_bit_hit_ratio for r in results),
    }
