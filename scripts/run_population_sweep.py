#!/usr/bin/env python3
"""Main comparison: all five schemes as the client population grows.

Sweeps N over {1, 5, 10, 20} with 20 replications per point and writes
results/population_sweep.{csv,json}. Extra CLI flags pass through, e.g.
--set reps=5 for a quick look or --jobs 4 on a multicore box.
"""
from __future__ import annotations

import pathlib
import sys

from edgestream.cli_metrics import main

if __name__ == "__main__":
    pathlib.Path("results").mkdir(exist_ok=True)
    sys.exit(main([
        "sweep", "--param", "n_clients", "--values", "1,5,10,20",
        "--out-csv", "results/population_sweep.csv",
        "--out-json", "results/population_sweep.json",
        *sys.argv[1:],
    ]))
