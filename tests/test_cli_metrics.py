"""Scenario config, replication rows, sweeps, CSV/JSON output, CLI exit codes."""
from __future__ import annotations

import collections
import dataclasses
import json
import math
import multiprocessing
import os
import pathlib
import subprocess
import sys
import typing

import mpmath
import numpy as np
import pytest

import edgestream
import edgestream.cli_metrics as cm
from edgestream.cli_metrics import (
    CSV_COLUMNS,
    ConfigError,
    ScenarioConfig,
    load_config,
    main,
    mean_ci,
    oracle_check,
    run_scenario,
    run_sweep,
    student_t_975,
    summarize,
    write_csv,
    write_json,
)
from edgestream.rng import Generator
from reference_lru import keys_by_recency

ROOT = pathlib.Path(__file__).resolve().parents[1]

TINY = dataclasses.replace(
    ScenarioConfig(), schemes=("CPH", "CLIENT"), n_clients=2, n_videos=2,
    chunk_count=10, reps=2)

FLOAT_FIELDS = [name for name, kind in typing.get_type_hints(ScenarioConfig).items()
                if float in (kind, *typing.get_args(kind))]
FINITE_FIELDS = [name for name in FLOAT_FIELDS if name != "cache_capacity_bits"]


class TestScenarioConfig:
    def test_defaults_validate(self):
        ScenarioConfig().validate()

    @pytest.mark.parametrize("kw", [
        dict(schemes=()),
        dict(schemes=("NOPE",)),
        dict(n_clients=0),
        dict(levels=1),
        dict(min_bitrate_bps=2e6, max_bitrate_bps=1e6),
        dict(gamma=-1),
        dict(b_min_s=10.0, b_max_s=5.0),
        dict(cache_capacity_bits=0.0),
        dict(backhaul_mbps=-1.0),
        dict(start_offset_max_s=-1.0),
        dict(reps=0),
        dict(chunk_duration_s=0.0),
        dict(mu_c=0.5),
        dict(b_min_s=6.0, b_max_s=6.0),
        dict(cache_capacity_bits=1e5),  # smaller than one 15 Mbps, 2 s chunk
        dict(chunk_duration_s=20.0),  # longer than b_max_s = 15: one chunk, then none fits
        dict(schemes=("CLIENT", "CPH", "CLIENT")),  # CLIENT's rows would be written twice
    ])
    def test_invalid_configs_rejected(self, kw):
        with pytest.raises(ConfigError):
            dataclasses.replace(ScenarioConfig(), **kw)  # building alone rejects it

    def test_a_config_is_checked_when_built(self):
        with pytest.raises(ConfigError, match="n_clients must be > 0"):
            ScenarioConfig(n_clients=0)
        valid = ScenarioConfig(n_clients=3)
        with pytest.raises(ConfigError, match="reps must be > 0"):
            dataclasses.replace(valid, reps=0)
        valid.validate()  # still public, and a valid config passes it again


class TestLoadConfig:
    def test_full_round_trip(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text(
            "# scenario\n"
            "n_clients = 3   # tail comment\n"
            "chunk_count = 12\n"
            "schemes = CPH, CLIENT\n"
            "max_time_s = 500.0\n"
            "mu_c = 1.5\n"
            "\n")
        cfg = load_config(str(path))
        assert cfg.n_clients == 3
        assert cfg.chunk_count == 12
        assert cfg.schemes == ("CPH", "CLIENT")
        assert cfg.max_time_s == 500.0
        assert cfg.mu_c == 1.5
        assert cfg.n_videos == 10  # untouched default

    def test_every_field_round_trips(self, tmp_path):
        cfg = ScenarioConfig()
        lines = []
        for f in dataclasses.fields(cfg):
            value = getattr(cfg, f.name)
            if value is None:
                text = "none"
            elif isinstance(value, tuple):
                text = ", ".join(value)
            else:
                text = repr(value)
            lines.append(f"{f.name} = {text}\n")
        path = tmp_path / "all.cfg"
        path.write_text("".join(lines))
        loaded = load_config(str(path))
        assert loaded == cfg
        # 19.0 == 19, so equality alone would not catch a float parsed for an int
        for f in dataclasses.fields(cfg):
            assert type(getattr(loaded, f.name)) is type(getattr(cfg, f.name)), f.name

    @pytest.mark.parametrize("line", [
        "wat = 3",
        "n_clients = abc",
        "n_clients 3",
        "gamma = -2",
        "pareto_cap = 4",
    ])
    def test_bad_lines_rejected(self, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_bad_value_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("mu_c = abc\n")
        with pytest.raises(ConfigError) as info:
            load_config(str(path))
        assert str(info.value).startswith(f"{path}:1: ")
        assert "bad value for mu_c: 'abc'" in str(info.value)

    def test_repeated_key_names_both_lines(self, tmp_path, capsys):
        # the last value used to win silently
        path = tmp_path / "twice.cfg"
        path.write_text("gamma = 1\nn_clients = 3\ngamma = 0\n")
        with pytest.raises(ConfigError) as info:
            load_config(str(path))
        assert str(info.value) == f"{path}:3: gamma is given twice, first on line 1"
        assert main(["run", "--config", str(path)]) == 2
        assert "gamma is given twice" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "nope.cfg"))


class TestMeanCi:
    def test_empty(self):
        mean, half = mean_ci([])
        assert math.isnan(mean) and math.isnan(half)

    def test_single_value(self):
        mean, half = mean_ci([3.5])
        assert mean == 3.5 and math.isnan(half)

    def test_three_values(self):
        mean, half = mean_ci([1.0, 2.0, 3.0])
        assert mean == 2.0
        # at 2 degrees of freedom the t quantile is (2p - 1) / sqrt(2p(1 - p))
        t_975 = 0.95 / math.sqrt(2 * 0.975 * 0.025)
        assert half == pytest.approx(t_975 * math.sqrt(1.0 / 3.0))

    def test_degenerate_spread(self):
        mean, half = mean_ci([5.0, 5.0, 5.0, 5.0])
        assert mean == 5.0 and half == 0.0


def _mpmath_t_975(df: int) -> float:
    """The root of P(T > t) = 0.025 in 50 digits, rounded once to a float."""
    with mpmath.workdps(50):
        nu = mpmath.mpf(df)

        def excess_tail(t):
            x = nu / (nu + t * t)
            return mpmath.betainc(nu / 2, 0.5, 0, x, regularized=True) / 2 - mpmath.mpf("0.025")

        # the root lies in this bracket for every df >= 1: 12.71 at df = 1, 1.96 as df grows
        return float(mpmath.findroot(excess_tail, (1.95, 12.8), solver="anderson"))


class TestStudentT975:
    DFS = [*range(1, 401), 1000, 20_000, 100_000]

    def test_correctly_rounded_against_mpmath(self):
        wrong = [(df, student_t_975(df), want) for df in self.DFS
                 if student_t_975(df) != (want := _mpmath_t_975(df))]
        assert wrong == []


def test_a_run_with_a_summary_imports_no_scipy_or_numpy(tmp_path):
    out_json = tmp_path / "summary.json"
    code = (
        "import sys\n"
        "from edgestream.cli_metrics import main\n"
        "assert main(['run', '--scheme', 'CLIENT', '--clients', '1', '--reps', '2',\n"
        f"             '--out-json', {str(out_json)!r}]) == 0\n"
        "loaded = {'scipy', 'numpy'} & set(sys.modules)\n"
        "assert not loaded, f'{loaded} imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    cell = json.loads(out_json.read_text())["summary"][""][""]["CLIENT"]["mean_bitrate_kbps"]
    assert cell["n"] == 2 and math.isfinite(cell["ci95"])  # the interval was computed


class TestRunScenario:
    def test_rows_cover_all_scheme_rep_pairs(self):
        rows, violations = run_scenario(TINY)
        assert violations == []
        assert len(rows) == 2 * 2
        assert {(r["scheme"], r["replication"]) for r in rows} == \
            {("CPH", 0), ("CPH", 1), ("CLIENT", 0), ("CLIENT", 1)}
        for r in rows:
            assert set(r) == set(CSV_COLUMNS)
            assert r["seed"] == TINY.base_seed + r["replication"]
            assert r["param"] == "" and r["param_value"] == ""
            assert r["mean_bitrate_kbps"] > 0

    def test_parallel_jobs_match_serial(self):
        serial, _ = run_scenario(TINY)
        parallel, _ = run_scenario(TINY, jobs=2)
        key = lambda r: (r["scheme"], r["replication"])
        assert sorted(serial, key=key) == sorted(parallel, key=key)

    def test_pool_never_outnumbers_the_tasks(self, monkeypatch):
        sizes = []

        class FakePool:  # records the worker count and runs the tasks in-process
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return [fn(t) for t in tasks]

        monkeypatch.setattr(multiprocessing, "Pool", FakePool)  # imported when jobs > 1
        rows, _ = run_scenario(TINY, jobs=64)  # 2 schemes x 2 reps = 4 tasks
        assert sizes == [4]
        assert len(rows) == 4


class TestRunSweep:
    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigError):
            run_sweep(TINY, "radius_m", [50.0])

    def test_sweep_stamps_param_columns(self):
        cfg = dataclasses.replace(TINY, schemes=("CLIENT",), reps=1)
        rows, violations = run_sweep(cfg, "n_clients", [1, 2])
        assert violations == []
        assert len(rows) == 2
        assert {r["param_value"] for r in rows} == {"1", "2"}
        assert all(r["param"] == "n_clients" for r in rows)
        by_value = {r["param_value"]: r for r in rows}
        assert by_value["1"]["n_clients"] == 1
        assert by_value["2"]["n_clients"] == 2

    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigError, match="sweep of n_clients needs at least one value"):
            run_sweep(TINY, "n_clients", [])

    def test_invalid_sweep_value_rejected(self):
        with pytest.raises(ConfigError):
            run_sweep(TINY, "n_clients", [0])

    @pytest.mark.parametrize("param, values, label", [
        ("n_clients", [2, 2], "2"),
        ("backhaul_mbps", [10.0, 10.0], "10.0"),
    ])
    def test_duplicate_sweep_value_rejected(self, param, values, label):
        # the value's repr labels its rows, so a repeat would count them twice
        with pytest.raises(ConfigError, match=f"sweep value {label} of {param}"):
            run_sweep(TINY, param, values)


class TestOutput:
    def _rows(self):
        rows, _ = run_scenario(TINY)
        return rows

    def test_csv_is_deterministic_and_sorted(self, tmp_path):
        rows = self._rows()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(rows, str(a))
        write_csv(list(reversed(rows)), str(b))  # input order must not matter
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

    def test_json_document_shape(self, tmp_path):
        rows = self._rows()
        path = tmp_path / "out.json"
        write_json(TINY, rows, str(path))
        doc = json.loads(path.read_text())
        assert set(doc) == {"config", "rows", "summary"}
        assert doc["config"]["n_clients"] == 2
        assert doc["config"]["cache_capacity_bits"] == "inf"
        assert len(doc["rows"]) == len(rows)
        base = doc["summary"][""][""]
        assert set(base) == {"CPH", "CLIENT"}
        assert base["CPH"]["mean_bitrate_kbps"]["n"] == 2

    def test_summarize_drops_nan_cells(self):
        template = {c: 0 for c in CSV_COLUMNS}
        rows = []
        for rep, latency in enumerate([1.0, float("nan")]):
            row = dict(template, scheme="CPH", replication=rep,
                       param="", param_value="", initial_latency_s=latency)
            rows.append(row)
        block = summarize(rows)[""][""]["CPH"]
        assert block["initial_latency_s"]["n"] == 1
        assert block["initial_latency_s"]["mean"] == 1.0
        assert block["mean_bitrate_kbps"]["n"] == 2


def test_oracle_check_small_batch():
    checked, mismatches = oracle_check(25, seed=7)
    assert checked == 25
    assert mismatches == []


def test_oracle_instances_keep_their_adversarial_shapes():
    # floors near half the shares measured on instances 0..2999 of seed 7
    floors = {"burst": 0.10, "fallback": 0.08, "gamma 0": 0.16, "rewritten": 0.27,
              "cached pick": 0.41}
    n = 500
    seen = dict.fromkeys(floors, 0)
    for i in range(n):
        requests, cache, capacity, params = cm.gen_random_instance(Generator([7, i]))
        levels = len(params.ladder.bitrates_bps)
        assert all(0 <= r.requested_quality < levels for r in requests)
        result = cm.cph_assign(requests, cache, capacity, params)
        per_chunk = collections.Counter((r.video_id, r.chunk_index) for r in requests)
        seen["burst"] += max(per_chunk.values()) >= 6
        seen["fallback"] += result.no_valid_config
        seen["gamma 0"] += params.gamma == 0
        seen["rewritten"] += result.qualities != tuple(r.requested_quality for r in requests)
        seen["cached pick"] += any(cache.contains(r.video_id, r.chunk_index, q)
                                   for r, q in zip(requests, result.qualities))
    assert {k: v for k, v in seen.items() if v < floors[k] * n} == {}


class TestOracleReplay:
    def test_failing_instance_is_named_and_rebuilt_from_seed_and_index(
            self, monkeypatch, capsys):
        seed, k, n = 3, 4, 6
        checked = []  # (requests, cached keys, backhaul, params) per cph_assign call
        solve = cm.cph_assign

        def wrong_at_k(requests, cache, backhaul, params):
            checked.append((requests, keys_by_recency(cache), backhaul, params))
            result = solve(requests, cache, backhaul, params)
            if len(checked) == k + 1:
                return result._replace(no_valid_config=not result.no_valid_config)
            return result

        monkeypatch.setattr(cm, "cph_assign", wrong_at_k)
        assert oracle_check(n, seed) == (n, [k])
        batch = checked[k]

        checked.clear()
        assert main(["oracle-check", "--instances", str(n), "--seed", str(seed)]) == 3
        out = capsys.readouterr().out
        assert f"checked {n} instances, 1 mismatches" in out
        assert f"first mismatch: instance {k}; replay with " in out

        # the printed expression alone rebuilds the instance the batch checked
        replay = out.split("replay with ", 1)[1].strip()
        assert replay == ("edgestream.cli_metrics.gen_random_instance("
                          f"edgestream.rng.Generator([{seed}, {k}]))")
        requests, cache, backhaul, params = eval(replay, {"edgestream": edgestream})
        assert (requests, keys_by_recency(cache), backhaul, params) == batch
        # NumPy's generator, seeded alike, rebuilds the same instance
        requests, cache, backhaul, params = cm.gen_random_instance(np.random.default_rng([seed, k]))
        assert (requests, keys_by_recency(cache), backhaul, params) == batch

    def test_defaults_are_the_check_of_record(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cm, "oracle_check",
                            lambda instances, seed: calls.append((instances, seed)) or (instances, []))
        assert main(["oracle-check"]) == 0
        assert calls == [(3000, 7)]
        assert "checked 3000 instances, 0 mismatches" in capsys.readouterr().out


class TestMainExitCodes:
    def test_config_error_is_exit_2(self, capsys):
        # mu_c = 0.5 is > 0 but below SolverParams' bound of 1
        for argv in (["run", "--gamma", "-1"], ["run", "--mu-c", "0.5"],
                     ["oracle-check", "--instances", "1", "--seed", "-1"],
                     ["oracle-check", "--instances", "-1"],
                     # a repeated sweep value, which would write its rows twice
                     ["sweep", "--param", "n_clients", "--values", "2,2", "--reps", "2",
                      "--scheme", "CLIENT"],
                     ["sweep", "--param", "backhaul_mbps", "--values", "10,10.0", "--reps", "1",
                      "--clients", "2", "--scheme", "CLIENT"],
                     # no value at all once the empty items are dropped
                     ["sweep", "--param", "n_clients", "--values", ","]):
            assert main(argv) == 2
            assert "config error" in capsys.readouterr().err
        # a repeated scheme, which would write each of its rows twice
        assert main(["run", "--scheme", "CLIENT", "--scheme", "CLIENT", "--reps", "2",
                     "--clients", "1"]) == 2
        assert "scheme 'CLIENT' is given twice" in capsys.readouterr().err

    def test_run_success_is_exit_0(self, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(
            "schemes = CLIENT\nn_clients = 2\nn_videos = 2\n"
            "chunk_count = 8\nreps = 1\n")
        out_csv = tmp_path / "rows.csv"
        code = main(["run", "--config", str(cfg), "--out-csv", str(out_csv)])
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2 and lines[1].startswith("CLIENT,0,1,")

    def test_unfinished_run_is_exit_3(self, tmp_path, capsys):
        # no backhaul and a cold cache: nothing is delivered before max_time_s
        cfg = tmp_path / "starved.cfg"
        cfg.write_text(
            "schemes = CLIENT, CPH\nn_clients = 2\nn_videos = 2\n"
            "chunk_count = 8\nreps = 1\nbackhaul_mbps = 0\nmax_time_s = 60\n")
        assert main(["run", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        for scheme in ("CLIENT", "CPH"):
            assert (f"{scheme} replication 0 unfinished at t=60.0: "
                    "0 of 16 chunks delivered") in err

    def test_violations_are_exit_3(self, monkeypatch, capsys):
        monkeypatch.setattr(cm, "run_scenario",
                            lambda cfg, jobs=1: ([], ["fake violation"]))
        assert main(["run", "--clients", "1"]) == 3
        assert "invariant violation" in capsys.readouterr().err

    def test_oracle_check_clean_is_exit_0(self, capsys):
        assert main(["oracle-check", "--instances", "5", "--seed", "3"]) == 0
        assert "5 instances, 0 mismatches" in capsys.readouterr().out

    @pytest.mark.parametrize("line, flags", [
        *((f"{name} = nan\n", []) for name in FLOAT_FIELDS),
        ("", ["--seed", "-1"]),
        # inf is unbounded only for the cache; elsewhere it hangs, crashes or idles
        *((f"{name} = inf\n", []) for name in FINITE_FIELDS),
    ], ids=[*FLOAT_FIELDS, "negative-seed", *(f"{name}-inf" for name in FINITE_FIELDS)])
    def test_nan_or_negative_seed_is_exit_2(self, tmp_path, capsys, line, flags):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            "schemes = CLIENT\nn_clients = 2\nn_videos = 2\n"
            "chunk_count = 8\nreps = 1\n" + line)
        assert main(["run", "--config", str(cfg), *flags]) == 2
        assert "config error" in capsys.readouterr().err

    def test_sweep_cli_end_to_end(self, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(
            "schemes = CLIENT\nn_clients = 2\nn_videos = 2\n"
            "chunk_count = 8\nreps = 1\n")
        out_csv = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", str(cfg), "--param", "gamma",
                     "--values", "0,1", "--out-csv", str(out_csv)])
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert len(lines) == 1 + 2  # header + one row per gamma value
