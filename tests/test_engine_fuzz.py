"""The whole engine over small configs that validate() accepts, against the
reference engine of its exact shortcuts, and on the named configs on which a
wider random search once broke it."""
from __future__ import annotations

import dataclasses
import math
from unittest import mock

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from edgestream import cli_metrics
from edgestream.ap_engine import POLICIES, SCHEMES, ApEngine
from edgestream.cli_metrics import ScenarioConfig, run_replication
from reference_engine import ReferenceEngine
from test_golden_output import DIGEST_FIELDS


# CPH and BUFF run on the stall-aware allocator, which still starves a client
# whose buffer deficit is below one chunk (ROADMAP item 1(b)); their runs are
# checked apart, as a known failure
STALL_AWARE = tuple(s for s in SCHEMES if POLICIES[s].stall_aware)
EQUAL_SHARE = tuple(s for s in SCHEMES if s not in STALL_AWARE)


def _assert_clean_run(cfg: ScenarioConfig) -> None:
    """Every scheme of `cfg` runs without an exception or a violation and
    plays every chunk to every client."""
    for scheme in cfg.schemes:
        result = run_replication(cfg, scheme, 0)
        assert result.violations == [], (scheme, result.violations)
        assert result.all_finished, (scheme, result.t_end_s)
        assert result.delivered_chunks == cfg.n_clients * cfg.chunk_count, scheme


@st.composite
def small_configs(draw):
    chunk_duration_s = draw(st.floats(0.5, 4.0))
    b_max_s = draw(st.floats(chunk_duration_s, 20.0))
    b_min_s = draw(st.floats(0.0, b_max_s, exclude_min=True, exclude_max=True))
    largest_chunk_bits = ScenarioConfig.max_bitrate_bps * chunk_duration_s
    return ScenarioConfig(
        n_clients=draw(st.integers(1, 8)),
        n_videos=draw(st.integers(1, 5)),
        levels=draw(st.integers(2, 8)),
        chunk_count=draw(st.integers(2, 15)),
        gamma=draw(st.integers(0, 3)),
        chunk_duration_s=chunk_duration_s,
        b_min_s=b_min_s,
        b_max_s=b_max_s,
        backhaul_mbps=draw(st.floats(0.3, 60.0)),
        t_ap_s=draw(st.floats(0.02, 2.5)),
        cache_capacity_bits=draw(st.sampled_from(
            (math.inf, largest_chunk_bits, 3 * largest_chunk_bits))),
        base_seed=draw(st.integers(0, 2**20)),
        reps=1,
    )


def _outputs(cfg: ScenarioConfig, scheme: str) -> tuple[str, str, list[str]]:
    """repr of a run's statistics, violations and delivery events: repr
    round-trips every float, so equal reprs are equal bits. The run is cut
    at ten times its media past the latest start, where the engine's default
    cut is fifty: no run that finishes comes near it, and a run the
    stall-aware livelock holds unfinished (ROADMAP item 1) repeats the same
    intervals up to the cut."""
    horizon = cfg.start_offset_max_s + 10 * cfg.chunk_count * cfg.chunk_duration_s
    cfg = dataclasses.replace(cfg, max_time_s=min(cfg.max_time_s or math.inf, horizon))
    result = run_replication(cfg, scheme, 0, record_events=True)
    return (repr(tuple(getattr(result, f) for f in DIGEST_FIELDS)), repr(result.violations),
            [repr(e) for e in result.events])


def _example_cfg(**kw) -> ScenarioConfig:
    return dataclasses.replace(ScenarioConfig(), **{
        "reps": 1, "n_clients": 4, "n_videos": 2, "levels": 4, "chunk_count": 10, **kw})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_configs())
@example(_example_cfg(t_ap_s=0.02, base_seed=11))
@example(_example_cfg(t_ap_s=0.1, base_seed=12))
# a long session, 600 s of media, cut by max_time_s while late starters play
@example(_example_cfg(chunk_count=300, t_ap_s=0.5, max_time_s=620.0, base_seed=13))
# 2 s chunks into a 15 s buffer drain on 0.5 s steps, so the room test
# (buffer + chunks in flight and asked <= b_max_s) opens exactly on a boundary
@example(_example_cfg(chunk_duration_s=2.0, b_min_s=5.0, b_max_s=15.0, t_ap_s=0.5, base_seed=14))
def test_shortcuts_change_no_output_against_the_reference_engine(cfg):
    # the engine's gated polls, idle-interval skip, positional airtime split
    # and drain fast paths against their plain forms in ReferenceEngine
    for scheme in SCHEMES:
        fast = _outputs(cfg, scheme)
        with mock.patch.object(cli_metrics, "ApEngine", ReferenceEngine):
            reference = _outputs(cfg, scheme)
        assert fast == reference, scheme


def test_reference_engine_overrides_only_engine_methods():
    # a renamed engine method would leave its override uncalled, and the
    # property above would compare the engine with itself
    overrides = [name for name, value in vars(ReferenceEngine).items() if callable(value)]
    assert overrides
    assert [name for name in overrides if name not in vars(ApEngine)] == []


@settings(max_examples=120, deadline=None, derandomize=True)
@given(small_configs())
def test_equal_share_schemes_run_clean_on_small_configs(cfg):
    _assert_clean_run(dataclasses.replace(cfg, schemes=EQUAL_SHARE))


# raises=AssertionError: a crash is still a failure, only an unfinished run or
# a violation is the known one; shrinking is skipped, as an unfinished run
# lasts the whole max_time_s
@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP items 1(b) and 4: a client below b_min_s gets only the airtime its "
    "buffer deficit needs, so some small configs end unfinished under CPH and BUFF"))
@settings(max_examples=120, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.generate), report_multiple_bugs=False)
@given(small_configs())
def test_stall_aware_schemes_run_clean_on_small_configs(cfg):
    _assert_clean_run(dataclasses.replace(cfg, schemes=STALL_AWARE))


def _repro(**kw) -> ScenarioConfig:
    return dataclasses.replace(ScenarioConfig(), reps=1, **kw)


def test_cache_at_its_smallest_capacity_survives_a_float_residue():
    # the cache's running used_bits kept a residue after evicting everything,
    # and the next insert popped from an empty dict (KeyError); CLIENT-CACHE,
    # as CLIENT never writes the cache
    _assert_clean_run(_repro(
        n_clients=4, n_videos=5, levels=5, chunk_count=12, gamma=3, chunk_duration_s=4.0,
        b_min_s=0.76, b_max_s=6.39, backhaul_mbps=20.0, t_ap_s=0.1,
        cache_capacity_bits=6e7, schemes=("CLIENT-CACHE",), base_seed=317891))


def test_backhaul_drain_check_allows_the_late_finish_clamp():
    # a job finishing up to the engine's 1e-9 s slack past the window's end is
    # counted in full; the check once allowed only a relative 1e-9 over
    # rate * t_ap_s and reported "backhaul drained 6000.000015171405 bits"
    _assert_clean_run(_repro(
        n_clients=2, n_videos=2, levels=3, chunk_count=8, gamma=0,
        b_min_s=4.6, b_max_s=6.45, backhaul_mbps=0.3, t_ap_s=0.02,
        cache_capacity_bits=9e7, schemes=("CLIENT-CACHE",), base_seed=82295))


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: the stall-aware allocator gives each risky client "
    "only the airtime its buffer deficit needs and idles the rest, so three clients "
    "just under b_min_s each drain a sliver of a chunk and the run ends unfinished"))
def test_stall_aware_allocator_finishes_when_every_busy_client_is_risky():
    _assert_clean_run(_repro(
        n_clients=3, n_videos=5, levels=8, chunk_count=11, gamma=0, chunk_duration_s=0.5,
        b_min_s=2.0008, b_max_s=3.172, backhaul_mbps=5.0, t_ap_s=2.5,
        cache_capacity_bits=7.5e6, schemes=("CPH",), base_seed=371921))
