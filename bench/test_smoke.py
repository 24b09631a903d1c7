"""Smoke test of the benchmark itself: every workload at 1/50 scale,
through the same code path the real runs take.

    PYTHONPATH=src python -m pytest bench -q

Not collected by tier-1 (``testpaths`` is ``tests/``).
"""

from __future__ import annotations

import json
import math

import pytest

from bench import run
from bench.workloads import OUT_DIR

SECONDS = run.RUN_SECONDS / 50


@pytest.mark.parametrize("name", [w["name"] for w in run.SPEC["workloads"]])
def test_workload_reports_every_metric(name):
    untraced = run.run_once(name, seed=7, seconds=SECONDS, traced=False)
    assert untraced["failures"] == {}
    assert untraced["correct"] and untraced["attempted"] >= 1
    assert list(untraced["metrics"]) == run.END_TO_END
    for metric, entry in untraced["metrics"].items():
        assert math.isfinite(entry["value"]) and entry["value"] > 0, metric

    traced = run.run_once(name, seed=7, seconds=SECONDS, traced=True)
    assert traced["failures"] == {}
    assert list(traced["metrics"]) == run.PER_LAYER
    for metric, entry in traced["metrics"].items():
        assert math.isfinite(entry["value"]), metric
    assert traced["metrics"]["trace.coverage"]["value"] >= 0.90
    assert traced["metrics"]["trace.overhead_ratio"]["value"] > 0

    # the waterfall is one budget: within every request, the self times
    # of its spans add up to the root span's duration
    dumped = json.loads((OUT_DIR / f"trace_{name}.json").read_text())
    column = {label: i for i, label in enumerate(dumped["columns"])}
    by_id = {row[column["id"]]: row for row in dumped["spans"]}
    total = dict.fromkeys(dumped["roots"], 0.0)
    for row in dumped["spans"]:
        top = row
        while top[column["parent"]] in by_id:
            top = by_id[top[column["parent"]]]
        total[top[column["id"]]] += row[column["self_ns"]]
    assert total
    for root, self_sum in total.items():
        duration = by_id[root][column["end_ns"]] - by_id[root][column["start_ns"]]
        assert self_sum == pytest.approx(duration, rel=1e-9, abs=1.0), root

    # the service layers do all their work on the wire and none off it
    service = sum(
        traced["metrics"][f"service.{part}.self_ms_per_op"]["value"]
        for part in ("http", "auth", "admission", "service")
    )
    if name == "wire_clinic":
        assert service > 0
    else:
        assert service == 0
    assert (traced["metrics"]["archive.recalls_per_op"]["value"] > 0) == (name == "read_tiered")
