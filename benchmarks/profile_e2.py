"""Profile the E2 hot write path — the tool behind the raw-speed work.

Every optimisation in the batched ingest pipeline (aggregated batch
signing, BLAKE2b integrity digests, scattered zero-copy journal frames,
batch AEAD) started life as a line in this profile.  Run it before and
after touching the write path; the regression gate only tells you *that*
throughput moved, this tells you *where* the time went.

Usage::

    make profile                                   # curator, batched arm
    python benchmarks/profile_e2.py --arm single   # N batches of one: store() per record
    python benchmarks/profile_e2.py --sort tottime --limit 40
    python benchmarks/profile_e2.py --records 600  # heavier batch

The model is built and the workload generated *outside* the profiled
region, so the listing is the ingest pipeline alone.  A throughput line
is printed first — the same records/sec number the E2 benchmark gates —
followed by the cProfile listing.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent))

from benchmarks.common import MODEL_FACTORIES, new_clock  # noqa: E402
from repro.workload.generator import WorkloadGenerator  # noqa: E402

DEFAULT_RECORDS = 300


def build_workload(model_name: str, n_records: int):
    """A fresh model plus *n_records* generated records (unprofiled)."""
    model, clock = MODEL_FACTORIES[model_name]()
    generator = WorkloadGenerator(2007, clock or new_clock())
    generator.create_population(10)
    records = [g.record for g in generator.mixed_stream(n_records)]
    return model, records


def run_arm(model, records, arm: str) -> None:
    if arm == "batched":
        stored = model.store_many(records, "profile-loader")
        assert stored == len(records)
    else:
        for record in records:
            model.store(record, "profile-loader")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--model",
        default="curator",
        choices=sorted(MODEL_FACTORIES),
        help="storage model to profile (default: curator)",
    )
    parser.add_argument(
        "--arm",
        default="batched",
        choices=("batched", "single"),
        help="one store_many batch, or one store() per record (batches of one)",
    )
    parser.add_argument(
        "--records",
        type=int,
        default=DEFAULT_RECORDS,
        help=f"ingest batch size (default {DEFAULT_RECORDS})",
    )
    parser.add_argument(
        "--sort",
        default="cumulative",
        choices=("cumulative", "tottime", "ncalls"),
        help="pstats sort key (default: cumulative)",
    )
    parser.add_argument(
        "--limit",
        type=int,
        default=25,
        help="number of rows in the listing (default 25)",
    )
    parser.add_argument(
        "--dump",
        default=None,
        help="also write raw pstats data here (for snakeviz etc.)",
    )
    args = parser.parse_args(argv)

    model, records = build_workload(args.model, args.records)

    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    run_arm(model, records, args.arm)
    profiler.disable()
    elapsed = time.perf_counter() - start

    print(
        f"{args.model} {args.arm} ingest: {args.records} records in "
        f"{elapsed * 1000:.1f} ms = {args.records / elapsed:.0f} records/s"
    )
    print()
    stats = pstats.Stats(profiler)
    if args.dump:
        stats.dump_stats(args.dump)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
