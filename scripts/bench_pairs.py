#!/usr/bin/env python3
"""Paired benchmark record: a parent checkout against a change checkout.

    python3 scripts/bench_pairs.py --parent ../parent --change . --label "what changed" \\
        --workload population --workload sync_burst --seeds 3-12 --out BENCH_x.json

For every workload and seed it runs `perfbench/run.py --trace 0` once from
each checkout, for the change's BENCHMARK.json `run_seconds`, each run in its
own process; odd seeds run the parent first, even seeds the change first.
The JSON it writes (stdout without --out) holds, per workload and end-to-end
metric of BENCHMARK.json, the median and quartiles of each side, the
relative change of the medians and the number of pairs the change wins,
plus each side's src/ line count and `git describe --always --dirty`. With
--traced-seed N it also runs `--seed N --seconds 1 --trace 1` three times
per side and workload, alternating which side goes first, and records each
side's layer shares, the median and quartiles of its self times in reference
seconds (each run's host seconds times 2.5 / its `ref_loop_ms`), and whether
every per-layer count of BENCHMARK.json is equal over all those runs, naming
each count that is not with each side's value. With
--tier1 it times each side's tier-1 test suite. It changes nothing in either checkout.
It exits 1, after writing the JSON, when any run's result is not
"correct": true. A workload whose parent and change digests differ on some
seed gets one warning line on stderr naming those seeds; the exit code does
not change.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
TRACED_RUNS = 3  # traced runs per side and workload
REF_LOOP_MS = 2.5  # perfbench/run.py REF_NOMINAL_S: a reference second's loop time


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if len(seeds) < 2 or seeds[0] < 0:
        raise argparse.ArgumentTypeError(f"need a range of two or more seeds >= 0: {text!r}")
    return seeds


def run_bench(checkout: Path, workload: str, seed: int, seconds: float,
              trace: int = 0) -> tuple[dict, dict]:
    """(informational line, result line) of one benchmark run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} exited {done.returncode}:\n"
                         + done.stderr[-2000:])
    return json.loads(lines[-2]), json.loads(lines[-1])


def tier1(checkout: Path) -> tuple[float, str]:
    """Wall seconds and summary line of the checkout's tier-1 test suite."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"],
                          cwd=checkout, env=env, capture_output=True, text=True)
    tail = done.stdout.strip().splitlines()
    return round(time.perf_counter() - t0, 1), tail[-1] if tail else ""


def describe(checkout: Path) -> str | None:
    """`git describe --always --dirty` of the checkout; None outside a git checkout."""
    done = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout,
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    sign = 1 if metric["better"] == "higher" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    return {
        "better": metric["better"],
        "parent": summary(parent),
        "change": summary(change),
        "change_vs_parent_median": round((c_med - p_med) / p_med, 4) if p_med else None,
        "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "ties": sum(c == p for p, c in zip(parent, change)),
        "values": {"parent": parent, "change": change},
    }


def bench_workload(checkouts: dict, workload: str, seeds: list[int], seconds: float,
                   metrics: list[dict]) -> tuple[dict, dict]:
    runs = {side: [] for side in SIDES}
    for seed in seeds:
        order = SIDES if seed % 2 else SIDES[::-1]
        for side in order:
            runs[side].append(run_bench(checkouts[side], workload, seed, seconds))
            print(f"{workload} seed {seed} {side}: "
                  f"{runs[side][-1][1]['metrics']['reps_per_s']['value']:.4f} reps/s",
                  file=sys.stderr)
    differ = [seed for seed, p, c in zip(seeds, runs["parent"], runs["change"])
              if p[0]["digest"] != c[0]["digest"]]
    if differ:
        print(f"warning: {workload}: parent and change digests differ on seeds "
              f"{', '.join(map(str, differ))}", file=sys.stderr)
    record = {
        "pairs": len(seeds),
        "seeds": seeds,
        "metrics": {
            m["name"]: compare(m, *([result["metrics"][m["name"]]["value"]
                                     for _, result in runs[side]] for side in SIDES))
            for m in metrics
        },
        "digests_equal": not differ,
        "all_correct": all(result["correct"] for side in SIDES for _, result in runs[side]),
        "failed": {
            **{side: sum(result["failed"] for _, result in runs[side]) for side in SIDES},
            "attempted_each": sum(result["attempted"] for _, result in runs["change"]),
        },
    }
    src_loc = {side: runs[side][0][0]["src_loc"] for side in SIDES}
    return record, src_loc


def traced_workload(checkouts: dict, workload: str, seed: int, counts: list[str]) -> dict:
    """TRACED_RUNS traced runs per side, alternating which side goes first;
    self times in reference seconds, each run scaled by its own loop time."""
    runs = {side: [] for side in SIDES}
    for i in range(TRACED_RUNS):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[side].append(run_bench(checkouts[side], workload, seed, 1, trace=1))
    record, every_counts = {}, []
    for side in SIDES:
        infos = [info for info, _ in runs[side]]
        metrics = [{k: v["value"] for k, v in result["metrics"].items()}
                   for _, result in runs[side]]
        scales = [REF_LOOP_MS / info["ref_loop_ms"] for info in infos]
        record[side] = {
            "correct": all(result["correct"] for _, result in runs[side]),
            "digest": infos[0]["digest"],
            "layer_share": {k: round(statistics.median(info["layer_share"][k] for info in infos), 4)
                            for k in infos[0]["layer_share"]},
            "self_s": {k: summary([m[k] * scale for m, scale in zip(metrics, scales)])
                       for k in metrics[0] if k.endswith(".self_s")},
            "trace.overhead_ratio": summary([m["trace.overhead_ratio"] for m in metrics]),
        }
        every_counts += [{k: m[k] for k in counts if k in m} for m in metrics]
        record[side]["counts"] = every_counts[-1]
    record["counts_equal"] = all(c == every_counts[0] for c in every_counts)
    # each count that is not equal over every run, with each side's last value
    record["counts_moved"] = {k: {side: record[side]["counts"].get(k) for side in SIDES}
                              for k in counts if len({c.get(k) for c in every_counts}) > 1}
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--label", required=True, help="one line on what the change does")
    parser.add_argument("--workload", action="append", required=True,
                        help="benchmark workload; repeatable")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("3-12"),
                        help="inclusive seed range, e.g. 3-12")
    parser.add_argument("--traced-seed", type=int,
                        help="also compare three traced runs per side on this seed")
    parser.add_argument("--tier1", action="store_true",
                        help="also time each side's tier-1 test suite")
    parser.add_argument("--out", type=Path, help="JSON output file (default: stdout)")
    args = parser.parse_args(argv)

    checkouts = {side: getattr(args, side).resolve() for side in SIDES}
    for side, checkout in checkouts.items():
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"--{side} {checkout}: no perfbench/run.py")
    benchmark = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    known = {w["name"] for w in benchmark["workloads"]}
    for workload in args.workload:
        if workload not in known:
            parser.error(f"unknown workload {workload!r}; expected one of {sorted(known)}")

    seconds = benchmark["run_seconds"]
    first, last = args.seeds[0], args.seeds[-1]
    doc = {
        "change": args.label,
        "change_commit": describe(checkouts["change"]),
        "parent_commit": describe(checkouts["parent"]),
        "command": "python3 perfbench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {seconds:g} --trace 0",
        "protocol": f"{len(args.seeds)} pairs per workload, seeds {first}-{last}, one parent "
                    "run and one change run per seed; odd seeds run the parent first, even "
                    "seeds the change first; every run in its own process from its own checkout",
        "statistics": "median and quartiles over the runs of each side (statistics.quantiles, "
                      "n=4, method='inclusive'); change_wins counts the pairs in which the "
                      "change reads better, ties counting for neither",
        "host": f"{os.cpu_count()}-core {platform.system()}, Python "
                f"{platform.python_version()}; reps_per_s and setup_s in the benchmark's "
                "reference seconds (perfbench/README.md)",
        "workloads": {},
    }
    for workload in args.workload:
        record, doc["src_loc"] = bench_workload(checkouts, workload, args.seeds, seconds,
                                                benchmark["end_to_end"])
        doc["workloads"][workload] = record
    if args.traced_seed is not None:
        counts = [m["name"] for m in benchmark["per_layer"] if m["unit"] == "count"]
        doc["traced"] = {
            "command": "python3 perfbench/run.py --workload <workload> "
                       f"--seed {args.traced_seed} --seconds 1 --trace 1",
            "note": f"{TRACED_RUNS} runs per side, alternating which side goes first; "
                    "layer_share is the median over the runs of each module's self time "
                    "over the traced replications' host time; self_s is the median and "
                    "quartiles of each run's self time in reference seconds, scaled by "
                    f"{REF_LOOP_MS:g} / the run's ref_loop_ms; trace.overhead_ratio is "
                    "in reference seconds; counts are the per-layer count metrics of "
                    "BENCHMARK.json, equal over every run of both sides when counts_equal; "
                    "counts_moved names each count that is not, with each side's last value",
            **{w: traced_workload(checkouts, w, args.traced_seed, counts)
               for w in args.workload},
        }
    if args.tier1:
        runs = {side: tier1(checkout) for side, checkout in checkouts.items()}
        doc["tier1_wall_s"] = {
            **{side: wall for side, (wall, _) in runs.items()},
            "note": "PYTHONPATH=src python -m pytest -q, one run per side after the pairs; "
                    + "; ".join(f"{side}: {line}" for side, (_, line) in runs.items()),
        }

    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    traced = doc.get("traced", {})
    incorrect = [w for w in args.workload if not doc["workloads"][w]["all_correct"]
                 or (w in traced and not all(traced[w][side]["correct"] for side in SIDES))]
    if incorrect:
        print(f"error: a run's result is not correct on {', '.join(incorrect)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
