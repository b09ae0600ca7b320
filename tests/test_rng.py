"""The run generator against NumPy's default_rng, draw for draw, and the run
path's independence from NumPy."""
from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgestream.catalog import zipf_pmf
from edgestream.rng import Generator, cumulative

ROOT = pathlib.Path(__file__).resolve().parents[1]

_seed_ints = st.one_of(
    st.just(0),
    st.integers(1, 1000),
    st.integers(2**32, 2**33),
    st.integers(2**64, 2**70),
)
_seeds = st.one_of(_seed_ints, st.lists(st.integers(0, 2**40), min_size=2, max_size=6),
                   st.tuples(st.integers(0, 10**6), st.integers(0, 5000)).map(list))

_finite = st.floats(-1e9, 1e9, allow_nan=False)
_draw = st.one_of(
    st.tuples(st.just("random")),
    st.tuples(st.just("uniform"), _finite, st.one_of(st.just(0.0), st.floats(0.0, 1e9))),
    st.tuples(st.just("zipf"), st.floats(0.1, 3.0), st.integers(1, 300)),
)


@settings(max_examples=300, deadline=None)
@given(_seeds, st.lists(_draw, max_size=40))
def test_every_draw_equals_default_rng(seed, draws):
    ours, ref = Generator(seed), np.random.default_rng(seed)
    for kind, *args in draws:
        if kind == "random":
            got, want = ours.random(), ref.random()
        elif kind == "uniform":  # a span of 0 still draws
            low, span = args
            got, want = ours.uniform(low, low + span), ref.uniform(low, low + span)
        else:
            pmf = zipf_pmf(*args)
            got, want = ours.pick(cumulative(pmf)), int(ref.choice(len(pmf), p=pmf))
        assert got == want and type(got) is type(want), (kind, args)
    assert ours.random() == ref.random()  # and the streams stay in step


@pytest.mark.parametrize("call", [
    lambda rng: Generator([3, -1]),
    lambda rng: rng.uniform(0.0, float("nan")),
    lambda rng: rng.uniform(1.0, 0.0),
    lambda rng: rng.uniform(0.0, float("inf")),
    lambda rng: Generator(-1),
])
def test_invalid_arguments_are_refused(call):
    with pytest.raises(ValueError):
        call(Generator(1))


def test_the_run_path_imports_no_numpy():
    code = (
        "import sys\n"
        "import edgestream\n"
        "from edgestream.cli_metrics import gen_random_instance\n"
        "from edgestream.rng import Generator\n"
        "cfg = edgestream.ScenarioConfig(n_clients=3, chunk_count=4, reps=1)\n"
        "assert edgestream.run_replication(cfg, 'CPH', 0).all_finished\n"
        "gen_random_instance(Generator([7, 0]))\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
