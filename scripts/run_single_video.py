#!/usr/bin/env python3
"""Single-video stress: every client watches the same title (V = 1).

Maximizes content overlap so cache-aware rewriting has the most to gain;
writes results/single_video.{csv,json}. Extra CLI flags pass through.
"""
from __future__ import annotations

import pathlib
import sys

from edgestream.cli_metrics import main

if __name__ == "__main__":
    pathlib.Path("results").mkdir(exist_ok=True)
    sys.exit(main([
        "run", "--set", "n_videos=1",
        "--out-csv", "results/single_video.csv",
        "--out-json", "results/single_video.json",
        *sys.argv[1:],
    ]))
