#!/usr/bin/env python3
"""Cache-weight study: how the cached-content utility multiplier shifts hits.

Sweeps mu_c over {1.0, 1.15, 1.3, 1.5} for the two solver-driven schemes and
writes results/cache_weight_sweep.{csv,json}. Extra CLI flags pass through.
"""
from __future__ import annotations

import pathlib
import sys

from edgestream.cli_metrics import main

if __name__ == "__main__":
    pathlib.Path("results").mkdir(exist_ok=True)
    sys.exit(main([
        "sweep", "--param", "mu_c", "--values", "1.0,1.15,1.3,1.5",
        "--set", "schemes=CPH,BUFF",
        "--out-csv", "results/cache_weight_sweep.csv",
        "--out-json", "results/cache_weight_sweep.json",
        *sys.argv[1:],
    ]))
