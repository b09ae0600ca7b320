"""Experiment driver: scenario config, replications, sweeps, CSV/JSON output.

A scenario fixes the catalog, radio layout, client population, and control
parameters. Each replication draws placement, video choices, and session
start offsets from its own seed (base seed plus replication index) so every
scheme sees the identical workload within a replication. Results land in long-format CSV rows, one per
(scheme, replication), plus an optional JSON document with per-scheme means
and 95% confidence intervals.

Exit codes: 0 success, 2 configuration error, 3 invariant violation.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import typing
from dataclasses import asdict, dataclass, replace
from decimal import Decimal, localcontext

from .ap_engine import SCHEMES, ApEngine
from .assign_core import QualityRequest, SolverParams
from .cache import LruChunkCache
from .catalog import QualityLadder, make_synthetic_catalog, zipf_pmf
from .cph import brute_force_assign, cph_assign
from .fold import left_sum
from .radio import link_capacity_bps, place_clients
from .rng import Generator, cumulative

METRIC_NAMES = (
    "mean_bitrate_kbps",
    "cache_bit_hit_ratio",
    "stall_ratio",
    "initial_latency_s",
    "backhaul_utilization",
    "no_valid_config_fraction",
)

# the ScenarioConfig fields every CSV row repeats
CONFIG_COLUMNS = ("n_clients", "n_videos", "backhaul_mbps", "gamma", "mu_c")

CSV_COLUMNS = (
    "scheme", "replication", "seed", "param", "param_value",
) + CONFIG_COLUMNS + METRIC_NAMES

SWEEP_PARAMS = ("n_clients", "backhaul_mbps", "mu_c", "gamma", "n_videos")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ScenarioConfig:
    schemes: tuple[str, ...] = SCHEMES
    n_clients: int = 10
    n_videos: int = 10
    levels: int = 19
    min_bitrate_bps: float = 100e3
    max_bitrate_bps: float = 15e6
    chunk_duration_s: float = 2.0
    chunk_count: int = 300
    zipf_exponent: float = 1.2
    gamma: int = 2
    mu_c: float = 1.3
    b_min_s: float = 4.0
    b_max_s: float = 15.0
    backhaul_mbps: float = 20.0
    t_ap_s: float = 0.5
    radius_m: float = 70.0
    start_offset_max_s: float = 35.0
    cache_capacity_bits: float = math.inf
    reps: int = 20
    base_seed: int = 1
    max_time_s: float | None = None

    def __post_init__(self):
        self.validate()  # so every built or replace()d config is a valid one

    def validate(self) -> None:
        if not self.schemes:
            raise ConfigError("schemes must not be empty")
        for i, s in enumerate(self.schemes):
            if s not in SCHEMES:
                raise ConfigError(f"unknown scheme {s!r}; expected one of {SCHEMES}")
            if s in self.schemes[:i]:  # its rows would be written twice
                raise ConfigError(f"scheme {s!r} is given twice")
        # an infinite time, rate or distance never finishes or cannot be drawn
        for name, value in vars(self).items():
            if isinstance(value, float) and math.isinf(value) and name != "cache_capacity_bits":
                raise ConfigError(f"{name} must be finite (only cache_capacity_bits may be inf)")
        # the ladder's own fields are checked by the catalog, in solver_params()
        positive = ("n_clients", "n_videos", "zipf_exponent", "t_ap_s", "radius_m", "reps")
        # every check is written `not x > bound` so that NaN fails it
        for name in positive:
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be > 0")
        for name in ("backhaul_mbps", "start_offset_max_s", "base_seed"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.max_time_s is not None and not self.max_time_s > 0:
            raise ConfigError("max_time_s must be > 0")
        try:
            self.solver_params()
        except ValueError as exc:  # CatalogError included
            raise ConfigError(str(exc)) from None
        largest_chunk_bits = self.max_bitrate_bps * self.chunk_duration_s
        if not self.cache_capacity_bits >= largest_chunk_bits:
            raise ConfigError(
                f"cache_capacity_bits {self.cache_capacity_bits!r} is smaller than the largest "
                f"chunk, max_bitrate_bps * chunk_duration_s = {largest_chunk_bits!r} "
                "(inf for unbounded)")

    def solver_params(self) -> SolverParams:
        """The run's constants, with the one ladder every video of the run uses."""
        ladder = make_synthetic_catalog(
            levels=self.levels, min_bps=self.min_bitrate_bps, max_bps=self.max_bitrate_bps,
            chunk_duration_s=self.chunk_duration_s, chunk_count=self.chunk_count,
        )
        return SolverParams(gamma=self.gamma, mu_c=self.mu_c,
                            b_min_s=self.b_min_s, b_max_s=self.b_max_s, ladder=ladder,
                            backhaul_bps=self.backhaul_mbps * 1e6)


_FIELD_TYPES = typing.get_type_hints(ScenarioConfig)


def _parse_value(key: str, raw: str):
    """One config or sweep value, typed by the ScenarioConfig annotation."""
    kind = _FIELD_TYPES[key]
    if kind == tuple[str, ...]:
        return tuple(part.strip() for part in raw.split(",") if part.strip())
    if type(None) in typing.get_args(kind) and raw.lower() in ("none", "null"):
        return None
    try:
        return int(raw) if kind is int else float(raw)
    except ValueError:
        raise ConfigError(f"bad value for {key}: {raw!r}") from None


def load_config(path: str) -> ScenarioConfig:
    """Read `key = value` lines; # starts a comment; unknown or repeated keys
    are errors."""
    overrides = {}
    first_line: dict[str, int] = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                try:
                    if "=" not in text:
                        raise ConfigError("expected key = value")
                    key, raw = (part.strip() for part in text.split("=", 1))
                    if key not in _FIELD_TYPES:
                        raise ConfigError(f"unknown config key: {key}")
                    if key in first_line:
                        raise ConfigError(f"{key} is given twice, first on line "
                                          f"{first_line[key]}")
                    first_line[key] = lineno
                    overrides[key] = _parse_value(key, raw)
                except ConfigError as exc:
                    raise ConfigError(f"{path}:{lineno}: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return replace(ScenarioConfig(), **overrides)


# ---- single replication ---------------------------------------------


def run_replication(cfg: ScenarioConfig, scheme: str, rep: int,
                    record_events: bool = False):
    """Simulate one scheme for one replication; returns the engine result."""
    seed = cfg.base_seed + rep
    rng = Generator(seed)
    distances = place_clients(cfg.n_clients, cfg.radius_m, rng)
    cdf = cumulative(zipf_pmf(cfg.zipf_exponent, cfg.n_videos))
    videos = [rng.pick(cdf) for _ in range(cfg.n_clients)]
    offsets = [rng.uniform(0.0, cfg.start_offset_max_s) for _ in range(cfg.n_clients)]

    stations = [(videos[i], offsets[i], link_capacity_bps(distances[i]))
                for i in range(cfg.n_clients)]
    engine = ApEngine(
        scheme=scheme, stations=stations,
        cache=LruChunkCache(cfg.cache_capacity_bits),
        t_ap_s=cfg.t_ap_s, params=cfg.solver_params(),
        record_events=record_events, max_time_s=cfg.max_time_s,
    )
    return engine.run()


def _result_row(cfg: ScenarioConfig, rep: int, result, param: str, param_value: str) -> dict:
    return {
        "scheme": result.scheme,
        "replication": rep,
        "seed": cfg.base_seed + rep,
        "param": param,
        "param_value": param_value,
        **{name: getattr(cfg, name) for name in CONFIG_COLUMNS},
        **{name: getattr(result, name) for name in METRIC_NAMES},
    }


def _run_task(task):
    cfg, scheme, rep, param, param_value = task
    result = run_replication(cfg, scheme, rep)
    row = _result_row(cfg, rep, result, param, param_value)
    violations = list(result.violations)
    if not result.all_finished:  # the metrics describe a run cut short
        where = f" at {param}={param_value}" if param else ""
        violations.append(f"{scheme} replication {rep}{where} unfinished at t={result.t_end_s}: "
                          f"{result.delivered_chunks} of {cfg.n_clients * cfg.chunk_count} "
                          "chunks delivered")
    return row, violations


def _execute(tasks: list, jobs: int):
    """(rows, violations) of every (cfg, scheme, rep, param, param_value) task."""
    if jobs <= 1 or len(tasks) <= 1:
        outputs = [_run_task(t) for t in tasks]
    else:
        from multiprocessing import Pool  # deferred: most runs are serial
        with Pool(processes=min(jobs, len(tasks))) as pool:
            outputs = pool.map(_run_task, tasks)
    rows = [row for row, _ in outputs]
    violations = [v for _, vs in outputs for v in vs]
    return rows, violations


def run_scenario(cfg: ScenarioConfig, jobs: int = 1):
    """All (scheme, replication) rows for one configuration."""
    return _execute([(cfg, scheme, rep, "", "")
                     for scheme in cfg.schemes for rep in range(cfg.reps)], jobs)


def run_sweep(cfg: ScenarioConfig, param: str, values: list, jobs: int = 1):
    if param not in SWEEP_PARAMS:
        raise ConfigError(f"unknown sweep param {param!r}; expected one of {SWEEP_PARAMS}")
    if not values:
        raise ConfigError(f"a sweep of {param} needs at least one value")
    tasks = []
    labels = set()
    for value in values:
        label = repr(value)  # the rows' param_value, so it must be unique
        if label in labels:
            raise ConfigError(f"sweep value {label} of {param} is given twice")
        labels.add(label)
        sub = replace(cfg, **{param: value})
        tasks.extend((sub, scheme, rep, param, label)
                     for scheme in sub.schemes for rep in range(sub.reps))
    return _execute(tasks, jobs)


# ---- aggregation and output -----------------------------------------


def mean_ci(values: list[float]) -> tuple[float, float]:
    """Sample mean and half-width of the Student-t 95% interval."""
    n = len(values)
    if n == 0:
        return float("nan"), float("nan")
    mean = left_sum(values) / n
    if n == 1:
        return mean, float("nan")
    var = left_sum((v - mean) ** 2 for v in values) / (n - 1)
    half = student_t_975(n - 1) * math.sqrt(var / n)
    return mean, half


_SQRT_PI = Decimal("1.77245385090551602729816748334114518279754945612238712821381")


@functools.cache
def student_t_975(df: int) -> float:
    """The 0.975 quantile of Student's t with `df` degrees of freedom,
    correctly rounded: Newton's method on the upper tail, in 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        nu, half = Decimal(df), Decimal("0.5")
        a = nu / 2
        # B(a, 1/2) = sqrt(pi) G(a) / G(a + 1/2), the Γ ratio stepped up exactly
        k, ratio = (half, _SQRT_PI) if df % 2 else (Decimal(1), 2 / _SQRT_PI)
        for _ in range((df - 1) // 2):
            ratio, k = ratio * k / (k + half), k + 1
        beta = _SQRT_PI * ratio
        # from 1.96 the iterates rise toward the root and keep x = nu / (nu + t^2)
        # below (a + 1) / (a + 5/2), where the continued fraction converges
        t = Decimal("1.96")
        while True:
            x = nu / (nu + t * t)
            # P(T > t) = I_x(a, 1/2) / 2, by Lentz's continued fraction
            c, d = Decimal(1), 1 / (1 - (a + half) * x / (a + 1))
            frac, m = d, 0
            while True:
                m += 1
                for num in (m * (half - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                            -(a + m) * (a + half + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
                    d = 1 / (1 + num * d)
                    c = 1 + num / c
                    frac *= d * c
                if abs(d * c - 1) < Decimal("1e-55"):
                    break
            tail = x ** a * (1 - x).sqrt() / (a * beta) * frac / 2
            step = (tail - Decimal("0.025")) / (x ** (a + half) / (nu.sqrt() * beta))
            t += step
            if abs(step) < Decimal("1e-40"):
                return float(t)


def summarize(rows: list[dict]) -> dict:
    """Per (param, param_value, scheme): mean and CI of every metric."""
    groups: dict[tuple, list[dict]] = {}  # filled in sort_rows order
    for row in sort_rows(rows):
        groups.setdefault((row["param"], row["param_value"], row["scheme"]), []).append(row)
    out = {}
    for (param, param_value, scheme), block_rows in groups.items():
        block = {}
        for metric in METRIC_NAMES:
            vals = [r[metric] for r in block_rows if not math.isnan(r[metric])]
            mean, half = mean_ci(vals)
            block[metric] = {"mean": mean, "ci95": half, "n": len(vals)}
        out.setdefault(param, {}).setdefault(param_value, {})[scheme] = block
    return out


def _value_sort_key(value: str):
    try:
        return (0, float(value), "")
    except (TypeError, ValueError):
        return (1, 0.0, str(value))


def sort_rows(rows: list[dict]) -> list[dict]:
    return sorted(rows, key=lambda r: (r["param"], _value_sort_key(r["param_value"]),
                                       r["scheme"], r["replication"]))


def write_csv(rows: list[dict], path: str) -> None:
    ordered = sort_rows(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in ordered:
            writer.writerow([row[c] for c in CSV_COLUMNS])


def write_json(cfg: ScenarioConfig, rows: list[dict], path: str) -> None:
    doc = {"config": asdict(cfg), "rows": sort_rows(rows), "summary": summarize(rows)}
    with open(path, "w") as fh:
        json.dump(_scrub(doc), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _scrub(node):
    """JSON-safe copy: a non-finite float becomes its repr ("inf", "-inf", "nan")."""
    if isinstance(node, dict):
        return {k: _scrub(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_scrub(v) for v in node]
    if isinstance(node, float) and not math.isfinite(node):
        return repr(node)
    return node


def print_summary(rows: list[dict], stream=sys.stdout) -> None:
    summary = summarize(rows)
    for param, by_value in summary.items():
        for param_value, by_scheme in by_value.items():
            title = f"{param}={param_value}" if param else "base scenario"
            print(f"== {title} ==", file=stream)
            for scheme, block in by_scheme.items():
                parts = []
                for metric in METRIC_NAMES:
                    cell = block[metric]
                    if math.isnan(cell["ci95"]):
                        parts.append(f"{metric}={cell['mean']:.4g}")
                    else:
                        parts.append(f"{metric}={cell['mean']:.4g}±{cell['ci95']:.2g}")
                print(f"  {scheme:13s} " + "  ".join(parts), file=stream)


# ---- randomized solver cross-check ----------------------------------


def gen_random_instance(rng: Generator):
    """Small random assignment instance for exhaustive cross-checking; some
    are bursts of 6-8 clients on one chunk, with gamma capped so the
    exhaustive space (product of tolerance windows) stays within 10^5.
    The 1-2 videos share one ladder of 2-5 levels, drawn right after the
    video count, and every request sees one backhaul rate, as in a run."""
    def integer(lo: int, hi: int) -> int:  # lo..hi-1; int(uniform(lo, hi)) can round up to hi
        return lo + int(rng.random() * (hi - lo))

    n_videos = integer(1, 3)
    levels = integer(2, 6)
    drawn = sorted(rng.uniform(1e5, 5e6) for _ in range(levels))
    rates = tuple(r + 1e3 * i for i, r in enumerate(drawn))  # strictly ascending
    tau = 2.0
    ladder = QualityLadder(rates, tau, chunk_count=3)
    gamma = integer(0, 3)
    mu_c = rng.uniform(1.0, 2.0)
    backhaul_rate_bps = rng.uniform(1e6, 4e7)
    burst = rng.random() < 0.15
    n_clients = integer(6, 9) if burst else integer(1, 5)
    shared_everything = burst or rng.random() < 0.4
    requests = []
    for cid in range(n_clients):
        for _ in range(1 if burst else integer(1, 3)):
            if shared_everything:
                video, chunk = 0, 0
            else:
                video = integer(0, n_videos)
                chunk = integer(0, 3)
            queued_chunks = integer(0, 3)
            dlq_media = queued_chunks * tau
            dlq_bits = dlq_media * rng.uniform(rates[0], rates[-1])
            requests.append(QualityRequest(
                client_id=cid,
                video_id=video,
                chunk_index=chunk,
                requested_quality=integer(0, levels),
                buffer_s=rng.uniform(0.0, 15.0),
                effective_rate_bps=rng.uniform(1e6, 3e7) * (1.0 / n_clients),
                dl_queue_bits=dlq_bits,
                dl_queue_media_s=dlq_media,
                fifo_backlog_bits=(0.0, rng.uniform(0.0, 2e7))[integer(0, 2)],
            ))
    # each request's tolerated window, clipped to the ladder
    while gamma > 0 and math.prod(
            min(levels - 1, r.requested_quality + gamma) - max(0, r.requested_quality - gamma) + 1
            for r in requests) > 10**5:
        gamma -= 1
    params = SolverParams(gamma=gamma, mu_c=mu_c, b_min_s=4.0, b_max_s=15.0, ladder=ladder,
                          backhaul_bps=backhaul_rate_bps)
    cache = LruChunkCache()
    for req in requests:
        for m in range(levels):
            if rng.random() < 0.25:
                cache.insert(req.video_id, req.chunk_index, m, ladder.nominal_size_bits(m))
    if rng.random() < 0.3:
        capacity_bps = rng.uniform(0.0, 3e5 * n_clients)
    else:
        capacity_bps = rng.uniform(1e6, 4e7)
    return requests, cache, capacity_bps, params


def oracle_check(instances: int, seed: int) -> tuple[int, list[int]]:
    """Compare the compositional solver against exhaustive search.

    Instance i is drawn from its own generator, rng.Generator([seed, i]), so
    any instance can be rebuilt from (seed, i) alone. Returns the number of
    instances checked and the indices of those where the results differ.
    """
    if instances < 0 or seed < 0:
        raise ConfigError(f"instances and seed must be >= 0, got {instances} and {seed}")
    failures = []
    for i in range(instances):
        instance = gen_random_instance(Generator([seed, i]))
        if cph_assign(*instance) != brute_force_assign(*instance):
            failures.append(i)
    return instances, failures


# ---- command line ----------------------------------------------------


# override flag (argparse dest) -> the ScenarioConfig field it sets
_RUN_FLAGS = {"clients": "n_clients", "videos": "n_videos",
              "backhaul_mbps": "backhaul_mbps", "gamma": "gamma", "mu_c": "mu_c",
              "reps": "reps", "seed": "base_seed"}


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="scenario config file (key = value lines)")
    parser.add_argument("--scheme", action="append", choices=SCHEMES,
                        help="restrict to a scheme; repeatable")
    for dest, name in _RUN_FLAGS.items():
        parser.add_argument("--" + dest.replace("_", "-"), type=_FIELD_TYPES[name])
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out-csv")
    parser.add_argument("--out-json")


def _config_from_args(args) -> ScenarioConfig:
    cfg = load_config(args.config) if args.config else ScenarioConfig()
    overrides = {name: getattr(args, dest) for dest, name in _RUN_FLAGS.items()
                 if getattr(args, dest) is not None}
    if args.scheme:
        overrides["schemes"] = tuple(args.scheme)
    return replace(cfg, **overrides)


def _finish(cfg, rows, violations, args) -> int:
    if args.out_csv:
        write_csv(rows, args.out_csv)
    if args.out_json:
        write_json(cfg, rows, args.out_json)
    print_summary(rows)
    if violations:
        for v in violations[:20]:
            print(f"invariant violation: {v}", file=sys.stderr)
        print(f"{len(violations)} invariant violations", file=sys.stderr)
        return 3
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="edgestream",
        description="cache-aware streaming simulation at a wireless access point")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one configuration")
    _add_run_flags(p_run)

    p_sweep = sub.add_parser("sweep", help="simulate across parameter values")
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values for the swept parameter")

    p_oracle = sub.add_parser("oracle-check",
                              help="cross-check the solver against exhaustive search")
    p_oracle.add_argument("--instances", type=int, default=3000)
    p_oracle.add_argument("--seed", type=int, default=7)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            cfg = _config_from_args(args)
            rows, violations = run_scenario(cfg, jobs=args.jobs)
            return _finish(cfg, rows, violations, args)
        if args.command == "sweep":
            cfg = _config_from_args(args)
            values = [_parse_value(args.param, p.strip())
                      for p in args.values.split(",") if p.strip()]
            rows, violations = run_sweep(cfg, args.param, values, jobs=args.jobs)
            return _finish(cfg, rows, violations, args)
        if args.command == "oracle-check":
            checked, failures = oracle_check(args.instances, args.seed)
            print(f"checked {checked} instances, {len(failures)} mismatches")
            if failures:
                k = failures[0]
                print(f"first mismatch: instance {k}; replay with edgestream.cli_metrics."
                      f"gen_random_instance(edgestream.rng.Generator([{args.seed}, {k}]))")
                return 3
            return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
