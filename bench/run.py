"""The benchmark's one command.

Driver form (the contract in ``BENCHMARK.json``)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload once — untraced for the end-to-end metrics, or traced
for the per-layer metrics — checks every result, prints each metric by
name with its unit, and ends with one JSON line.

Full form::

    python3 bench/run.py [--seed 2007] [--workload NAME] [--repeats K]

runs every workload (or one) ``K`` times untraced and once traced and
also writes ``bench/out/results.json`` for ``bench/compare.py``.

The traced run supplies only per-layer numbers; no end-to-end metric is
ever read from it.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"bench/run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing")
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from bench import harness, layers, trace  # noqa: E402
from bench.wire import WireClinic  # noqa: E402
from bench.workloads import OUT_DIR, IngestBatch, IngestSingle, Outcome, ReadTiered  # noqa: E402

WORKLOADS = {
    workload.name: workload
    for workload in (WireClinic(), IngestSingle(), IngestBatch(), ReadTiered())
}

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_SECONDS = SPEC["run_seconds"]
END_TO_END = [metric["name"] for metric in SPEC["end_to_end"]]
PER_LAYER = [metric["name"] for metric in SPEC["per_layer"]]


def end_to_end_metrics(outcome: Outcome) -> dict[str, dict]:
    """The end-to-end metrics of one untraced run."""
    tally = outcome.tally
    metrics = {
        "setup_s": {
            "value": statistics.median(outcome.setup_s),
            "unit": "s",
            "samples": len(outcome.setup_s),
        },
        "ops_per_s": {
            "value": outcome.ops / outcome.window_s,
            "unit": "1/s",
            "samples": outcome.ops,
            "clients": outcome.clients,
            "raw": outcome.ops / outcome.raw_window_s,
        },
        **harness.latency_metrics(tally),
        "verify_s": {"value": outcome.verify_s, "unit": "s"},
        "stored_bytes_per_user_byte": {
            "value": outcome.stored_bytes / outcome.user_bytes,
            "unit": "ratio",
        },
        "peak_rss_mb": {"value": outcome.peak_rss_mb, "unit": "MiB"},
    }
    return {name: metrics[name] for name in END_TO_END}


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer_metrics(
    outcome: Outcome, untraced_ops_per_s: float, own: dict, root_of: dict
) -> dict[str, dict]:
    """The per-layer metrics of one traced run (*own*, *root_of* from
    ``trace.self_times``)."""
    ops = max(1, outcome.ops)
    records = outcome.records_stored
    self_ms, calls, by_name, root_ms = trace.layer_totals(
        outcome.spans, own, root_of, outcome.span_layers, outcome.window_ns
    )
    c = outcome.counters
    signs = sum(
        count
        for name, count in by_name.items()
        if outcome.span_names[name] in layers.SIGN_TARGETS
    )
    # spans are raw clock readings; bring them to reference speed like
    # the end-to-end numbers they are to be set beside
    speed = outcome.window_s / outcome.raw_window_s
    values: dict[str, tuple[float, str]] = {}
    for layer in layers.LAYERS:
        values[f"{layer}.self_ms_per_op"] = (self_ms.get(layer, 0.0) * speed / ops, "ms")
        values[f"{layer}.calls_per_op"] = (calls.get(layer, 0) / ops, "count")
    values.update(
        {
            "storage.journal.flushes_per_op": (c.get("journal_flush_count", 0) / ops, "count"),
            "storage.block.writes_per_op": (c.get("block_writes", 0) / ops, "count"),
            "storage.block.bytes_written_per_op": (c.get("block_bytes_written", 0) / ops, "B"),
            "index.bytes_written_per_record": (
                c.get("index_bytes_written", 0) / records if records else 0.0,
                "B",
            ),
            "crypto.signatures.signs_per_record": (signs / records if records else 0.0, "count"),
            "audit.anchors_per_op": (c.get("anchors", 0) / ops, "count"),
            "core.read_cache_hit_ratio": (
                _ratio(c.get("read_cache_hits", 0), c.get("read_cache_misses", 0)), "ratio"),
            "policy.cache_hit_ratio": (
                _ratio(c.get("policy_cache_hits", 0), c.get("policy_cache_misses", 0)), "ratio"),
            "crypto.keys.kdf_cache_hit_ratio": (
                _ratio(c.get("kdf_cache_hits", 0), c.get("kdf_cache_misses", 0)), "ratio"),
            "crypto.aead.keystream_cache_hit_ratio": (
                _ratio(c.get("keystream_cache_hits", 0), c.get("keystream_cache_misses", 0)),
                "ratio"),
            "index.cipher_cache_hit_ratio": (
                _ratio(c.get("index_cipher_cache_hits", 0), c.get("index_cipher_cache_misses", 0)),
                "ratio"),
            "archive.recalls_per_op": (c.get("tier_cold_recalls", 0) / ops, "count"),
            "service.admission.queue_peak": (c.get("service_queue_peak", 0), "count"),
            # root-span time over the time the drivers had: 1.0 means every
            # moment of the window lies inside some request's root span
            "trace.coverage": (
                root_ms / (outcome.raw_window_s * 1e3 * outcome.clients), "ratio"),
            "trace.overhead_ratio": (
                (outcome.ops / outcome.window_s) / untraced_ops_per_s, "ratio"),
        }
    )
    return {name: {"value": values[name][0], "unit": values[name][1]} for name in PER_LAYER}


def write_trace(name: str, outcome: Outcome, own: dict, root_of: dict) -> Path:
    """``bench/out/trace_<workload>.json``: every span recorded with its
    self time (see bench/README.md, "waterfall")."""
    begin, end = outcome.window_ns
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace_{name}.json"
    path.write_text(
        json.dumps(
            {
                "workload": name,
                "window_ns": [begin, end],
                "names": outcome.span_names,
                "layers": outcome.span_layers,
                "columns": ["id", "parent", "name", "thread", "start_ns", "end_ns", "self_ns"],
                "spans": [[*span, own[span.sid]] for span in outcome.spans],
                "roots": sorted(set(root_of.values())),
            }
        )
    )
    return path


def run_once(name: str, seed: int, seconds: float, traced: bool,
             untraced_ops_per_s: float | None = None) -> dict:
    """One run of one workload, as the record the driver form prints."""
    workload = WORKLOADS[name]
    scale = seconds / RUN_SECONDS
    if traced and untraced_ops_per_s is None:
        reference = workload.run(seed, scale, False, reference_only=True)
        untraced_ops_per_s = reference.ops / reference.window_s
    outcome = workload.run(seed, scale, traced)
    if traced:
        own, root_of = trace.self_times(outcome.spans)
        metrics = per_layer_metrics(outcome, untraced_ops_per_s, own, root_of)
        write_trace(name, outcome, own, root_of)
    else:
        metrics = end_to_end_metrics(outcome)
    tally = outcome.tally
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    return {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "correct": tally.failed == 0 and finite,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": dict(tally.failures),
        "error_rate": tally.failed / max(1, tally.attempted),
        "window_s": outcome.window_s,
        "raw_window_s": outcome.raw_window_s,
        "burst_ms": outcome.burst_ms,
        "metrics": metrics,
    }


def show(record: dict) -> None:
    kind = "per-layer (traced)" if record["traced"] else "end-to-end (untraced)"
    print(f"== {record['workload']} seed={record['seed']} {kind}: "
          f"{record['attempted']} attempted, {record['failed']} failed, "
          f"error_rate {record['error_rate']:.6f}, window {record['window_s']:.2f} s "
          f"(raw {record['raw_window_s']:.2f} s; gauge burst {record['burst_ms']:.3f} ms, "
          f"reference {harness.SpeedGauge.REFERENCE_MS} ms)")
    for what, count in sorted(record["failures"].items()):
        print(f"   FAILED {what} x{count}")
    for name, metric in record["metrics"].items():
        extra = "".join(
            f"  {key}={metric[key]}" for key in ("samples", "percentile", "clients", "raw") if key in metric
        )
        print(f"   {name:<42} {metric['value']:>14.6g} {metric['unit']}{extra}")


def last_line(record: dict) -> str:
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {"value": metric["value"], "unit": metric["unit"]}
                for name, metric in record["metrics"].items()
            },
        }
    )


def full(names: list[str], seed: int, seconds: float, repeats: int) -> int:
    results = {
        "fingerprint": harness.fingerprint(),
        "seed": seed,
        "seconds": seconds,
        "repeats": repeats,
        "workloads": {},
    }
    failed = 0
    for name in names:
        runs = [run_once(name, seed, seconds, traced=False) for _ in range(repeats)]
        for record in runs:
            show(record)
        ops_per_s = statistics.median(r["metrics"]["ops_per_s"]["value"] for r in runs)
        traced = run_once(name, seed, seconds, traced=True, untraced_ops_per_s=ops_per_s)
        show(traced)
        failed += sum(r["failed"] for r in runs) + traced["failed"]
        results["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "failures": dict(sum((Counter(r["failures"]) for r in runs), Counter())),
            "end_to_end": {
                metric: {
                    **runs[0]["metrics"][metric],
                    "value": statistics.median(r["metrics"][metric]["value"] for r in runs),
                    "runs": [r["metrics"][metric]["value"] for r in runs],
                }
                for metric in END_TO_END
            },
            "per_layer": traced["metrics"],
            "traced_failed": traced["failed"],
        }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "results.json").write_text(json.dumps(results, indent=1))
    print(f"wrote {OUT_DIR / 'results.json'}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all four")
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="size of the schedule: the timed window this many "
                             "seconds long at the seed commit")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver form: one run, traced or not, one JSON line last")
    parser.add_argument("--repeats", type=int, default=1, help="full form: untraced runs")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.trace is None:
        names = [args.workload] if args.workload else [w["name"] for w in SPEC["workloads"]]
        return full(names, args.seed, args.seconds, args.repeats)
    if not args.workload:
        parser.error("--trace needs --workload")
    record = run_once(args.workload, args.seed, args.seconds, traced=bool(args.trace))
    show(record)
    print(last_line(record))
    return 0  # a failed check is the result line's ``correct: false``


if __name__ == "__main__":
    sys.exit(main())
