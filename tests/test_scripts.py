"""Smoke test: every experiment script runs end to end on a tiny config.

The scripts forward fixed flags to the CLI, so this also catches a script
that still passes a flag the CLI no longer accepts.
"""
from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("run_*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.stem)
def test_script_writes_its_csv(script, tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("chunk_count = 8\nn_videos = 2\nreps = 1\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script), "--config", str(cfg)],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    csv = tmp_path / "results" / (script.stem.removeprefix("run_") + ".csv")
    assert len(csv.read_text().splitlines()) > 1
