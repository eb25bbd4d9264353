"""The demos run to completion under the CI warning flags.

Demo 01 runs from a copy in a temporary directory, so its replay lands there
and not in `demos/out/`; that replay must match the committed one byte for byte.
"""
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"
STRICT = ["-X", "dev", "-W", "error::ResourceWarning", "-W", "error::DeprecationWarning",
          "-W", "error::RuntimeWarning"]


def run_demo(path: Path) -> None:
    done = subprocess.run([sys.executable, *STRICT, str(path)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("name", ["02_coordination_metrics", "03_analysis_pipeline",
                                  "04_temporal_trends"])
def test_demo_runs_clean(name):
    run_demo(DEMOS / f"{name}.py")


def test_simulation_demo_writes_the_committed_replay(tmp_path):
    demo = shutil.copy(DEMOS / "01_simulate_missions.py", tmp_path)
    run_demo(Path(demo))
    for name in ("replay_a.jsonl", "replay_a.manifest.json"):
        assert (tmp_path / "out" / name).read_bytes() == (DEMOS / "out" / name).read_bytes()
