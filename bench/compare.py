"""Compare two ``results.json`` files written by ``bench/run.py``.

    python3 bench/compare.py A.json B.json

Prints one row per (workload, end-to-end metric): both medians, the
relative change of B against A, the bound from ``BENCHMARK.json`` and a
verdict —

* ``worse``       B's median is worse than A's by more than the bound;
* ``unresolved``  the run-to-run spread (interquartile range ÷ median,
                  the wider of the two sides) exceeds the bound and B's
                  runs do not all read better than all of A's, so the
                  data cannot tell a regression from noise;
* ``within``      otherwise.

Exits 1 on any ``worse`` or if B's ``error_rate`` is higher than A's,
else 0 (``unresolved`` is reported, not failed: repeat with more runs).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def spread(runs: list[float]) -> float:
    """Interquartile range as a share of the median (0 below 2 runs)."""
    if len(runs) < 2 or not statistics.median(runs):
        return 0.0
    q1, _q2, q3 = statistics.quantiles(runs, n=4)
    return (q3 - q1) / abs(statistics.median(runs))


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[float, float, str]:
    """(signed change where positive is worse, spread, verdict)."""
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (b["value"] - a["value"]) / abs(a["value"]) if a["value"] else 0.0
    runs_a, runs_b = a.get("runs", [a["value"]]), b.get("runs", [b["value"]])
    noise = max(spread(runs_a), spread(runs_b))
    if change > bound:
        return change, noise, "worse"
    all_better = max(sign * v for v in runs_b) < min(sign * v for v in runs_a)
    if noise > bound and not all_better:
        return change, noise, "unresolved"
    return change, noise, "within"


def compare(a: dict, b: dict) -> int:
    failed = False
    print(f"{'workload':<14} {'metric':<27} {'A':>12} {'B':>12} {'change':>8} "
          f"{'bound':>6} {'spread':>7}  verdict")
    for workload in (w["name"] for w in SPEC["workloads"]):
        side_a, side_b = a["workloads"].get(workload), b["workloads"].get(workload)
        if side_a is None or side_b is None:
            continue
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            change, noise, word = verdict(
                side_a["end_to_end"][name], side_b["end_to_end"][name],
                metric["better"], metric["bound"],
            )
            failed |= word == "worse"
            print(f"{workload:<14} {name:<27} {side_a['end_to_end'][name]['value']:>12.5g} "
                  f"{side_b['end_to_end'][name]['value']:>12.5g} {change:>+8.1%} "
                  f"{metric['bound']:>6.0%} {noise:>7.1%}  {word}")
        rate_a = side_a["failed"] / max(1, side_a["attempted"])
        rate_b = side_b["failed"] / max(1, side_b["attempted"])
        word = "worse" if rate_b > rate_a else "within"
        failed |= word == "worse"
        print(f"{workload:<14} {'error_rate':<27} {rate_a:>12.5g} {rate_b:>12.5g} "
              f"{'':>8} {'0':>6} {'':>7}  {word}")
    return 1 if failed else 0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    return compare(a, b)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
