"""The one float sum behind every output, the same on every supported Python.

Python 3.12 made the built-in sum() of floats compensated, so from 3.12 on
it can differ in the last bit from the plain left fold it computes on 3.10
and 3.11, and a hash or CSV byte built from it would move with the
interpreter. Every float sum that reaches an output goes through left_sum.
"""
from __future__ import annotations

from functools import reduce
from operator import add


def left_sum(values):
    """((0 + v0) + v1) + ..., what the built-in sum() returns on 3.10 and
    3.11; 0 when `values` is empty."""
    return reduce(add, values, 0)
