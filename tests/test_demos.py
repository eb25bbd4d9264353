"""Demos 02-04 run to completion under the CI warning flags.

Demo 01 is left to CI: it rewrites `demos/out/replay_a.*`, which
`test_golden` compares with a fresh run.
"""
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"
STRICT = ["-X", "dev", "-W", "error::ResourceWarning", "-W", "error::DeprecationWarning",
          "-W", "error::RuntimeWarning"]


@pytest.mark.parametrize("name", ["02_coordination_metrics", "03_analysis_pipeline",
                                  "04_temporal_trends"])
def test_demo_runs_clean(name):
    done = subprocess.run([sys.executable, *STRICT, str(DEMOS / f"{name}.py")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
