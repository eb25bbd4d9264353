"""Smoke test of the benchmark: one shortened, traced run of each workload.

    python3 -m pytest -q bench
"""
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.import_program()


@pytest.fixture(scope="module")
def results():
    # --seconds 0 makes exactly one round; one set-up instead of three
    return {name: run.measure(name, run.PIN_SEED, seconds=0, trace=True, setup_reps=1)
            for name in run.WORKLOADS}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_op_matches_its_pinned_digest(results, workload):
    r = results[workload]
    assert r.correct and r.failed == 0
    # at the pin seed every op, traced or not, has a pin to match
    assert r.attempted > 0 and r.pinned == r.attempted


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_layer_self_times_fit_in_the_traced_wall(results, workload):
    r = results[workload]
    assert r.layer_self_ns and all(v >= 0 for v in r.layer_self_ns.values())
    assert sum(r.layer_self_ns.values()) <= r.traced_wall_ns


def test_every_declared_metric_is_measured(results):
    spec = json.loads(run.SPEC.read_text(encoding="utf-8"))
    for workload, r in results.items():
        for m in spec["end_to_end"]:
            assert r.metrics[m["name"]] > 0, (workload, m["name"])
    for m in spec["per_layer"]:
        if m["name"].endswith(".errors") or m["name"] == "failed_ratio":
            continue  # zero on a healthy run
        assert any(r.metrics.get(m["name"], 0) != 0 for r in results.values()), m["name"]
