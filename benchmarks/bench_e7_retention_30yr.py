"""E7 — 30-year retention with media generations (OSHA 29 CFR 1910.1020).

Paper claim: regulations mandate retention "for periods of up to 30
years", which inevitably spans storage-hardware generations; the store
must survive refreshes with integrity intact, then dispose on schedule.
Expected shape: with 5-year media service life the archive migrates ~5
times over 30 simulated years, every integrity check passes, 7-year
clinical records are disposed mid-horizon, and 30-year OSHA records
survive to the end and are then destroyed.

E7b — the tiered-archive arm.  A 30-year horizon means the vast
majority of a record's life is spent untouched; the cold tier exists to
make that idle mass cheap without trading away recall fidelity or
detection power.  ``test_e7b_tiered_archive_scale`` ingests 10^4
records, demotes the idle population into compacted compressed cold
segments, and gates three bars (the ``e7`` rows of
``benchmarks/bars.py``):

* **footprint** — cold bytes/record against the warm journal+WORM
  bytes/record the same records occupied before demotion;
* **recall latency** — p99 of a read-through recall (verify + decrypt +
  re-seal into the warm tier) against the warm read p99;
* **verification** — an incremental integrity pass over the
  mostly-cold archive against the full rescan.
"""

import time

from benchmarks.bars import gate
from benchmarks.common import MASTER_KEY, curator_factory, new_clock, print_table
from repro.archive.demotion import DemotionPolicy
from repro.core import CuratorConfig, CuratorStore
from repro.core.lifecycle import ArchiveLifecycle
from repro.records.model import RecordType
from repro.workload.generator import WorkloadGenerator

N_SCALE = 10_000        # E7b population (the issue floor is 10^4)
N_WARM_SAMPLE = 400     # first-touch reads timed on the warm tier
N_RECALL_SAMPLE = 200   # read-through recalls timed on the cold tier


def _p99_ms(samples_ns: list[int]) -> float:
    ordered = sorted(samples_ns)
    index = max(0, int(len(ordered) * 0.99) - 1)
    return ordered[index] / 1e6


def _build_archive():
    store, clock = curator_factory()
    generator = WorkloadGenerator(7, clock)
    generator.create_population(8)
    for _ in range(10):
        g = generator.exposure_record()
        store.store(g.record, g.author_id)
    for _ in range(10):
        g = generator.note_record(phi_in_text_probability=0.0)
        store.store(g.record, g.author_id)
    return store, clock


def test_e7_thirty_year_archive(benchmark):
    def run():
        store, clock = _build_archive()
        lifecycle = ArchiveLifecycle(
            store, clock, media_refresh_years=5.0, backup_every_years=5.0
        )
        report = lifecycle.run_years(31.0, step_years=1.0, dispose_expired=True)
        return store, report

    store, report = benchmark.pedantic(run, rounds=1, iterations=1)

    print_table(
        "E7 thirty-year archive lifecycle",
        ["metric", "value"],
        [
            ["years simulated", f"{report.years_simulated:.0f}"],
            ["media refresh migrations", report.media_refreshes],
            ["backups taken", report.backups_taken],
            ["integrity checks passed", report.integrity_checks_passed],
            ["integrity failures", len(report.integrity_failures)],
            ["records disposed", report.records_disposed],
            ["disposal certificates", report.disposal_certificates],
        ],
    )
    assert report.media_refreshes >= 5
    assert report.integrity_failures == []
    assert report.records_disposed == 20  # everything expired by year 31
    assert store.record_ids() == []
    assert store.verify_audit_trail().ok


def test_e7_disposal_schedule_order(benchmark):
    def run():
        store, clock = _build_archive()
        lifecycle = ArchiveLifecycle(
            store, clock, media_refresh_years=50.0, backup_every_years=50.0
        )
        lifecycle.run_years(10.0, step_years=1.0, dispose_expired=True)
        return store

    store = benchmark.pedantic(run, rounds=1, iterations=1)
    remaining = {store.read(r, actor_id="system").record_type for r in store.record_ids()}
    # 7-year clinical notes are gone at year 10; 30-year OSHA records remain.
    assert RecordType.CLINICAL_NOTE not in remaining
    assert RecordType.EXPOSURE_RECORD in remaining
    print(f"\nE7: at year 10, surviving types = {sorted(t.value for t in remaining)}")


def test_e7b_lifecycle_demotes_idle_records(benchmark):
    """The longitudinal arm: with a demotion policy on the lifecycle
    clock, idle records sink to the cold tier as the years pass, stay
    verifiable through every media refresh, and still dispose on
    schedule at end of term."""

    def run():
        store, clock = _build_archive()
        lifecycle = ArchiveLifecycle(
            store,
            clock,
            media_refresh_years=5.0,
            backup_every_years=5.0,
            demotion_policy=DemotionPolicy(min_age_years=2.0, min_idle_years=1.0),
        )
        report = lifecycle.run_years(31.0, step_years=1.0, dispose_expired=True)
        return store, report

    store, report = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "E7b lifecycle with tiered demotion",
        ["metric", "value"],
        [
            ["records demoted", report.records_demoted],
            ["cold segments written", report.segments_written],
            ["integrity checks passed", report.integrity_checks_passed],
            ["integrity failures", len(report.integrity_failures)],
            ["records disposed", report.records_disposed],
        ],
    )
    # every record went cold (nothing touches them after ingest) ...
    assert report.records_demoted == 20
    assert report.segments_written >= 1
    assert report.integrity_failures == []
    # ... and disposition still reached the cold copies at end of term
    assert report.records_disposed == 20
    assert store.record_ids() == []
    assert store.verify_audit_trail().ok


def test_e7b_tiered_archive_scale(benchmark):
    """The gated arm: 10^4 records, idle mass demoted cold, three bars
    measured."""
    clock = new_clock()
    store = CuratorStore(
        CuratorConfig(
            master_key=MASTER_KEY,
            clock=clock,
            device_capacity=1 << 26,
            cold_device_capacity=1 << 26,
        )
    )
    generator = WorkloadGenerator(7, clock)
    generator.create_population(64)
    records = [g.record for g in generator.mixed_stream(N_SCALE)]

    def ingest():
        for start in range(0, len(records), 500):
            store.store_many(records[start : start + 500], "batch-loader")
        return store.tier_stats()

    warm_stats = benchmark.pedantic(ingest, rounds=1, iterations=1)
    n_records = len(store.record_ids())
    warm_per_record = warm_stats["warm_bytes"] / n_records

    # warm read p99: first-touch reads (LRU misses) against the warm tier
    record_ids = store.record_ids()
    stride = max(1, len(record_ids) // N_WARM_SAMPLE)
    warm_sample = record_ids[::stride][:N_WARM_SAMPLE]
    warm_ns = []
    for record_id in warm_sample:
        start = time.perf_counter_ns()
        store.read(record_id, actor_id="system")
        warm_ns.append(time.perf_counter_ns() - start)

    # three idle years, then the policy sweep compacts the population
    clock.advance_years(3.0)
    demoted = store.demotion_sweep(
        DemotionPolicy(min_age_years=2.0, min_idle_years=1.0),
        actor_id="bench-e7b",
    )
    stats = store.tier_stats()
    assert stats["cold_records"] == len(demoted) >= 0.9 * n_records
    cold_per_record = stats["cold_bytes"] / stats["cold_records"]
    footprint_ratio = cold_per_record / warm_per_record

    # cold recall p99: read-through recall (verify, decrypt, re-seal warm)
    stride = max(1, len(demoted) // N_RECALL_SAMPLE)
    recall_sample = demoted[::stride][:N_RECALL_SAMPLE]
    recall_ns = []
    for record_id in recall_sample:
        start = time.perf_counter_ns()
        store.read(record_id, actor_id="system")
        recall_ns.append(time.perf_counter_ns() - start)
    assert not set(recall_sample) & set(store.cold_record_ids())

    # verification on the mostly-cold archive: full rescan, then the
    # bounded incremental pass over a clean dirty-set
    start = time.perf_counter()
    full_report = store.verify_integrity()
    full_s = time.perf_counter() - start
    assert full_report.ok, full_report.violations
    start = time.perf_counter()
    incremental_report = store.verify_integrity(incremental=True)
    incremental_s = time.perf_counter() - start
    assert incremental_report.ok, incremental_report.violations
    verify_speedup = full_s / incremental_s if incremental_s > 0 else float("inf")

    warm_p99_ms = _p99_ms(warm_ns)
    recall_p99_ms = _p99_ms(recall_ns)
    recall_ratio = recall_p99_ms / warm_p99_ms if warm_p99_ms > 0 else float("inf")

    metrics = {
        "records_demoted": len(demoted),
        "cold_segments": stats["cold_segments"],
        "warm_bytes_per_record": round(warm_per_record, 1),
        "cold_bytes_per_record": round(cold_per_record, 1),
        "footprint_ratio": round(footprint_ratio, 3),
        "warm_read_p99_ms": round(warm_p99_ms, 3),
        "cold_recall_p99_ms": round(recall_p99_ms, 3),
        "recall_p99_ratio": round(recall_ratio, 2),
        "full_verify_s": round(full_s, 3),
        "incremental_verify_s": round(incremental_s, 4),
        "verify_speedup": round(verify_speedup, 1),
    }
    print_table(
        "E7b tiered archive at 10^4 records",
        ["metric", "value"],
        [[k, v] for k, v in metrics.items()],
    )
    gate("e7", metrics, {"n_records": n_records})
