"""left_sum: the plain left fold every output sum goes through."""
from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgestream.fold import left_sum

_floats = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(_floats, max_size=20))
def test_left_sum_is_the_plain_fold(values):
    total = 0
    for v in values:
        total += v
    assert repr(left_sum(values)) == repr(total)
    assert repr(left_sum(iter(values))) == repr(total)


def test_empty_sum_is_int_zero_like_sum():
    assert left_sum([]) == 0 and type(left_sum([])) is int


def test_no_compensation():
    # compensated summation (sum() from Python 3.12 on) gives 2.0 here
    assert left_sum([1.0, 1e100, 1.0, -1e100]) == 0.0


@pytest.mark.skipif(sys.version_info >= (3, 12), reason="sum() of floats is compensated from 3.12")
@settings(max_examples=300, deadline=None)
@given(st.lists(_floats, max_size=20))
def test_left_sum_is_builtin_sum_before_3_12(values):
    assert repr(left_sum(values)) == repr(sum(values))
