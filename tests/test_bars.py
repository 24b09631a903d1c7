"""The one table of E-experiment bars (``benchmarks/bars.py``): every
row can fail, every row names what failed, and every experiment that
has a row calls the gate that asserts it."""

import json
import math
import re
from pathlib import Path

import pytest

from benchmarks import bars

BENCHMARKS = Path(bars.__file__).parent
REFERENCE = {
    experiment: entry["metrics"]
    for experiment, entry in json.loads(bars.REFERENCE.read_text()).items()
}
ROWS = [
    (bar, name, threshold)
    for bar in bars.BARS
    for name, threshold in bar.thresholds(REFERENCE[bar.experiment]).items()
]


def _at_every_bound(experiment: str) -> dict[str, float]:
    """Metrics sitting exactly on each bar of *experiment* (on the
    strictest, where several rows bound one metric)."""
    metrics: dict[str, float] = {}
    for bar, name, threshold in ROWS:
        if bar.experiment != experiment:
            continue
        pick = max if bar.op == ">=" else min
        metrics[name] = pick(metrics.get(name, threshold), threshold)
    return metrics


@pytest.fixture(autouse=True)
def _results_go_to_tmp(monkeypatch, tmp_path):
    monkeypatch.setattr(bars, "OUT", tmp_path / "out")


def test_the_reference_file_is_in_the_one_results_shape():
    for experiment, entry in json.loads(bars.REFERENCE.read_text()).items():
        assert sorted(entry) == ["experiment", "metrics", "params"]
        assert entry["experiment"] == experiment
    assert set(REFERENCE) == {bar.experiment for bar in bars.BARS}


def test_every_bar_constrains_at_least_one_metric():
    for bar in bars.BARS:
        assert bar.thresholds(REFERENCE[bar.experiment]), bar


@pytest.mark.parametrize(
    "bar, name, threshold",
    ROWS,
    ids=[f"{bar.experiment}.{name}{bar.op}{threshold:g}" for bar, name, threshold in ROWS],
)
def test_a_bar_passes_on_its_bound_and_fails_one_step_past_it(bar, name, threshold, tmp_path):
    metrics = _at_every_bound(bar.experiment)
    bars.gate(bar.experiment, metrics, {})
    written = json.loads((tmp_path / "out" / f"{bar.experiment}.json").read_text())
    assert written == {"experiment": bar.experiment, "params": {}, "metrics": metrics}

    past = math.nextafter(threshold, -math.inf if bar.op == ">=" else math.inf)
    with pytest.raises(AssertionError, match=re.escape(f"{bar.experiment}.{name}:")):
        bars.gate(bar.experiment, {**metrics, name: past}, {})

    missing = {key: value for key, value in metrics.items() if key != name}
    with pytest.raises(
        AssertionError, match=re.escape(f"{bar.experiment}.{name}: not reported")
    ):
        bars.gate(bar.experiment, missing, {})


def test_every_experiment_with_a_bar_gates_itself_and_holds_no_bound():
    for experiment in {bar.experiment for bar in bars.BARS}:
        calls = [
            path.name
            for path in BENCHMARKS.glob(f"bench_{experiment}*.py")
            for _ in re.finditer(rf'\bgate\(\s*"{experiment}"', path.read_text())
        ]
        assert len(calls) == 1, (experiment, calls)
    for path in BENCHMARKS.glob("bench_*.py"):
        text = path.read_text()
        assert set(re.findall(r"from benchmarks\.(\w+)", text)) <= {"bars", "common"}, path
        assert not re.search(r"\bM(IN|AX)_\w+ *=|write_text\(", text), path
