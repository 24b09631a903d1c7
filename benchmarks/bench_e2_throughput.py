"""E2 — security vs performance (the paper's central trade-off).

Paper claim (§4): relational databases are "geared more towards
performance rather than security"; compliance-oriented stores pay for
their guarantees on the write path.  Expected shape: relational is the
fastest writer; encrypted pays a cipher tax; Curator pays the most
(AEAD + trustworthy index + audit chain + signatures) but stays within
interactive range; reads are much closer together than writes.
"""

import statistics
import time

import pytest

from benchmarks.bars import gate
from benchmarks.common import MODEL_FACTORIES, new_clock, print_table
from repro.workload.generator import WorkloadGenerator

N_RECORDS = 60
N_READS = 120
N_BATCH = 150  # batched-ingest arm; amortization grows with batch size
REPEATS = 5    # runs per arm of the gated table; the arm is their median


def _ingest(name):
    model, clock = MODEL_FACTORIES[name]()
    generator = WorkloadGenerator(2007, clock or new_clock())
    generator.create_population(10)
    stream = generator.mixed_stream(N_RECORDS)

    start = time.perf_counter()
    for g in stream:
        model.store(g.record, g.author_id)
    ingest_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for i in range(N_READS):
        g = stream[i % len(stream)]
        model.read(g.record.record_id, actor_id="system")
    read_seconds = time.perf_counter() - start
    return ingest_seconds, read_seconds


@pytest.mark.parametrize("name", list(MODEL_FACTORIES))
def test_e2_ingest_throughput(benchmark, name):
    model, clock = MODEL_FACTORIES[name]()
    generator = WorkloadGenerator(2007, clock or new_clock())
    generator.create_population(10)
    stream = iter(generator.mixed_stream(5000))

    def store_one():
        g = next(stream)
        model.store(g.record, g.author_id)

    benchmark.pedantic(store_one, rounds=30, iterations=1, warmup_rounds=2)


def test_e2_scaling_series(benchmark):
    """The figure-style series: write throughput vs archive size, for
    the fastest (relational), the middle (plainworm), and the hybrid
    (curator).  Expected shape: relational and plainworm stay roughly
    flat; curator's per-record cost grows slowly with hot posting-list
    sizes but remains interactive."""
    series = {}
    for name in ("relational", "plainworm", "curator"):
        points = []
        for n in (20, 40, 80):
            model, clock = MODEL_FACTORIES[name]()
            generator = WorkloadGenerator(2007, clock or new_clock())
            generator.create_population(10)
            stream = generator.mixed_stream(n)
            start = time.perf_counter()
            for g in stream:
                model.store(g.record, g.author_id)
            points.append(n / (time.perf_counter() - start))
        series[name] = points

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = [
        [name] + [f"{rate:10.0f}" for rate in points]
        for name, points in series.items()
    ]
    print_table(
        "E2 series: write throughput (records/s) vs archive size",
        ["model", "N=20", "N=40", "N=80"],
        rows,
    )
    # Shape: relational dominates curator at every size.
    for a, b in zip(series["relational"], series["curator"]):
        assert a > b


def test_e2_throughput_table(benchmark):
    results = {name: _ingest(name) for name in MODEL_FACTORIES}
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    rows = []
    for name, (ingest_s, read_s) in results.items():
        rows.append(
            [
                name,
                f"{N_RECORDS / ingest_s:10.0f}",
                f"{N_READS / read_s:10.0f}",
                f"{ingest_s / results['relational'][0]:6.1f}x",
            ]
        )
    print_table(
        "E2 throughput (records/sec; slowdown vs relational)",
        ["model", "writes/s", "reads/s", "write cost"],
        rows,
    )
    # Shape assertions: relational fastest writer; curator pays the most
    # but still completes the workload interactively.
    assert results["relational"][0] <= min(r[0] for r in results.values()) * 1.5
    assert results["curator"][0] >= results["relational"][0]


def _fresh_stream(n=N_BATCH):
    clock_holder = {}

    def build(name):
        model, clock = MODEL_FACTORIES[name]()
        generator = WorkloadGenerator(2007, clock or new_clock())
        generator.create_population(10)
        clock_holder[name] = clock
        return model, [g.record for g in generator.mixed_stream(n)]

    return build


def test_e2_batched_ingest(benchmark):
    """The fast-path measurement: looped ``store`` vs ``store_many``
    per model, gated by the ``e2`` rows of ``benchmarks/bars.py``.

    Baselines inherit the default (looping) ``store_many``, so their
    two arms are near-equal — the point of the table is Curator, whose
    batched arm amortizes journal flushes and posting-list commits
    while every security property still holds.
    """
    build = _fresh_stream()
    # Each arm is the median of REPEATS runs on fresh models.  One window
    # is ~10 ms for a baseline and this VM stalls for longer than that, so
    # a single shot used to fail the gate on a different model each time;
    # the repetitions are the outer loop so that one stall costs each
    # model at most one of its five runs.
    single_runs = {name: [] for name in MODEL_FACTORIES}
    batched_runs = {name: [] for name in MODEL_FACTORIES}
    for _ in range(REPEATS):
        for name in MODEL_FACTORIES:
            model, records = build(name)
            start = time.perf_counter()
            for record in records:
                model.store(record, "batch-loader")
            single_runs[name].append(time.perf_counter() - start)

            model, records = build(name)
            start = time.perf_counter()
            stored = model.store_many(records, "batch-loader")
            batched_runs[name].append(time.perf_counter() - start)
            assert stored == len(records)

            # Security properties survive the fast path, every run.
            assert sorted(model.record_ids()) == sorted(r.record_id for r in records)
            audit = model.verify_audit_trail()
            if audit is not None:
                assert audit.ok
            assert model.verify_integrity().ok
    results = {}
    for name in MODEL_FACTORIES:
        single_s = statistics.median(single_runs[name])
        batched_s = statistics.median(batched_runs[name])
        results[name] = {
            "single_rps": round(N_BATCH / single_s, 1),
            "batched_rps": round(N_BATCH / batched_s, 1),
            "speedup": round(single_s / batched_s, 2),
        }

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print_table(
        "E2 batched ingest (records/s)",
        ["model", "single", "batched", "speedup"],
        [
            [name, r["single_rps"], r["batched_rps"], f'{r["speedup"]:.2f}x']
            for name, r in results.items()
        ],
    )
    gate(
        "e2",
        {f"{name}.{key}": value for name, r in results.items() for key, value in r.items()},
        {"n_records": N_BATCH, "repeats": REPEATS},
    )
