"""Smoke test: the narrative demos run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import torusred

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = Path(torusred.__file__).resolve().parents[1]


@pytest.mark.parametrize("name", [
    "01_fourier_toolbox.py",
    "02_floquet_fast_fibres.py",
    "03_phase_reduction_chain.py",
    "04_remote_synchronisation.py",
    "05_decay_time_sweep.py",
])
def test_demo_runs(tmp_path, name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
