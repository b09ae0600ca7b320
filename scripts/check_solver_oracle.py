#!/usr/bin/env python3
"""Differential check: compositional solver vs exhaustive search.

Runs the exactness check of record by default, 3000 randomized small
instances from seed 7; on the first mismatch the offending instance is
dumped to results/solver_mismatch.txt for replay with
edgestream.cph.load_instance. Extra CLI flags pass through and override the
defaults (--instances, --seed).
"""
from __future__ import annotations

import pathlib
import sys

from edgestream.cli_metrics import main

if __name__ == "__main__":
    pathlib.Path("results").mkdir(exist_ok=True)
    sys.exit(main([
        "oracle-check", "--instances", "3000", "--seed", "7",
        "--dump", "results/solver_mismatch.txt",
        *sys.argv[1:],
    ]))
