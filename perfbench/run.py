"""edgestream benchmark: one workload per process, one replication at a time.

Run from the repository root:

    python3 perfbench/run.py --workload population --seed 1 --seconds 30 --trace 0

The workload's fixed list of replications (one pass) is run again and again
until the next pass would end after --seconds. With --trace 0 the last line
of standard output is a JSON object with the end-to-end metrics; with
--trace 1 the passes alternate between untraced and traced, and the metrics
are the per-layer ones (see perfbench/README.md). The line before it is an
informational JSON object: output digest, src/ line count, host times,
simulated statistics and, when traced, each module's share of the time.

Host times are reported in reference seconds. The speed of a shared host
drifts, by up to 2x within minutes, so a fixed pure-Python reference loop
is timed right before and after every measurement, and the measurement is
scaled by REF_NOMINAL_S over the loop's mean time around it. A reference
second is a host second at the speed where the loop takes REF_NOMINAL_S.

The exit code is 0 whenever the result line is printed, "correct": false
included; it is not 0, and no result is printed, when the checkout's
src/edgestream is missing or the arguments are bad.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import (WORKLOADS, build_tasks, digest, output_problem,
                       result_record, sim_metrics)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
REF_ITERATIONS = 15_000
REF_NOMINAL_S = 0.0025    # about the loop's time on an idle 2-core host
REF_SHARE = 0.05          # reference time after a measurement, as its share
REF_FIRST_S = 0.1         # reference time before the first measurement


def import_edgestream():
    """Import edgestream from this checkout's src/, never from elsewhere."""
    package = SRC / "edgestream" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"error: {package} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import edgestream
    if Path(edgestream.__file__).resolve() != package.resolve():
        raise SystemExit(f"error: imported edgestream from {edgestream.__file__}")
    return edgestream


def reference_loop_s(min_s: float) -> float:
    """Mean host seconds of one run of a fixed dict-and-int loop, run at
    least twice and for at least `min_s`."""
    runs = 0
    t0 = time.perf_counter()
    while runs < 2 or time.perf_counter() - t0 < min_s:
        table: dict[int, int] = {}
        total = 0
        for i in range(REF_ITERATIONS):
            table[i & 1023] = i
            total += table.get((i * 7) & 1023, 0)
        runs += 1
    return (time.perf_counter() - t0) / runs


class Timings:
    """Host times of successive measurements, with the reference loop timed
    before the first and after each one."""

    def __init__(self):
        self.host_s: list[float] = []
        self.ref_s = [reference_loop_s(REF_FIRST_S)]

    def add(self, host_s: float) -> None:
        self.host_s.append(host_s)
        self.ref_s.append(reference_loop_s(REF_SHARE * host_s))

    def scaled_s(self) -> list[float]:
        """Each measurement in reference seconds."""
        return [h * REF_NOMINAL_S / ((before + after) / 2)
                for h, before, after in zip(self.host_s, self.ref_s, self.ref_s[1:])]


def probe_setup(workload: str, seed: int) -> None:
    """Child process: import and build the workload, then print the clock."""
    edgestream = import_edgestream()
    build_tasks(edgestream, workload, seed)
    print(time.monotonic(), flush=True)


def measure_setup(workload: str, seed: int) -> Timings:
    """Time from process launch to ready-for-the-first-replication."""
    timings = Timings()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        timings.add(float(done.stdout.split()[-1]) - t0)
    return timings


class Pass:
    """One run of every task of the workload."""

    def __init__(self, tasks, run_replication):
        self.results = []
        self.failures: list[str] = []
        self.timings = Timings()
        records = []
        t0 = time.perf_counter()
        for task in tasks:
            t_task = time.perf_counter()
            try:
                result = run_replication(task.cfg, task.scheme, task.rep)
            except Exception:
                result = None
                self.failures.append(f"{task.scheme} rep {task.rep} raised:\n"
                                     + traceback.format_exc())
            else:
                problem = output_problem(task, result)
                if problem is not None:
                    self.failures.append(f"{task.scheme} rep {task.rep}: {problem}")
                self.results.append(result)
            self.timings.add(time.perf_counter() - t_task)
            records.append(result_record(task, result))
        self.wall_s = time.perf_counter() - t0
        self.digest = digest(records)


def pass_time(passes: list[Pass], scaled: bool = True) -> float:
    """Sum over the tasks of each task's median time across the passes."""
    per_pass = [p.timings.scaled_s() if scaled else p.timings.host_s for p in passes]
    return sum(statistics.median(times) for times in zip(*per_pass))


def run_passes(seconds: float, kinds: list) -> list[list[Pass]]:
    """Cycle through `kinds` (callables that each run one pass) until the next
    cycle would end after `seconds`; returns the passes of each kind."""
    passes: list[list[Pass]] = [[] for _ in kinds]
    start = time.perf_counter()
    while True:
        cycle_s = 0.0
        for i, run_pass in enumerate(kinds):
            p = run_pass()
            passes[i].append(p)
            cycle_s += p.wall_s
        if time.perf_counter() - start + cycle_s > seconds:
            return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0

    edgestream = import_edgestream()
    setup = measure_setup(args.workload, args.seed)
    tasks = build_tasks(edgestream, args.workload, args.seed)

    def plain_pass():
        return Pass(tasks, edgestream.run_replication)

    if args.trace:
        from tracer import REPLICATION, Tracer, layer_metrics, layer_shares, self_check
        tracer = Tracer()
        traced_run = tracer.wrap(REPLICATION, edgestream.cli_metrics.run_replication)

        def traced_pass():
            with tracer.installed(edgestream):
                return Pass(tasks, traced_run)

        plain, traced = run_passes(args.seconds, [plain_pass, traced_pass])
    else:
        (plain,) = run_passes(args.seconds, [plain_pass])
        traced = []

    every = plain + traced
    failures = [f for p in every for f in p.failures]
    digests = {p.digest for p in every}
    if len(digests) > 1:
        failures.append(f"passes disagree on the output digest: {sorted(digests)}")
    first = plain[0]
    sim = sim_metrics(first.results) if not first.failures else {}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "replications_per_pass": len(tasks),
        "digest": first.digest,
        "src_loc": sum(len(f.read_text().splitlines()) for f in SRC.rglob("*.py")),
        "pass_s": [round(p.wall_s, 4) for p in plain],
        "host_reps_per_s": len(tasks) / pass_time(plain, scaled=False),
        "host_setup_s": statistics.median(setup.host_s),
        "ref_loop_ms": 1e3 * statistics.median(r for p in plain for r in p.timings.ref_s),
        **sim,
    }

    if args.trace:
        failures += self_check(tracer.stats, [r for p in traced for r in p.results])
        metrics = layer_metrics(tracer.stats, len(traced))
        metrics["trace.overhead_ratio"] = (pass_time(traced) / pass_time(plain), "ratio")
        info["traced_pass_s"] = [round(p.wall_s, 4) for p in traced]
        info["layer_share"] = {k: round(v, 4) for k, v in layer_shares(
            tracer.stats, sum(sum(p.timings.host_s) for p in traced)).items()}
    else:
        metrics = {
            "reps_per_s": (len(tasks) / pass_time(plain), "1/s"),
            "setup_s": (statistics.median(setup.scaled_s()), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        for name, unit in (("sim.mean_bitrate_kbps", "kbps"),
                           ("sim.initial_latency_s", "s"),
                           ("sim.backhaul_bit_ratio", "ratio")):
            if name in sim:
                metrics[name] = (sim[name], unit)

    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(tasks) * len(every),
        "failed": sum(len(p.failures) for p in every),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
