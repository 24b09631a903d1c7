"""The three in-process workloads, and what all four share.

Each workload is a fixed, seeded schedule: ``scale`` (``--seconds`` ÷
the benchmark's ``run_seconds``) decides how many operations, the seed
decides their order and targets — so record counts, bytes written and
flush counts repeat exactly and two commits are compared on the same
work, not on whatever fitted in a time slice.  The counts below fill a
timed window of about ``run_seconds`` at the seed commit on two cores
while the fullest device stays under 75 %.

The names are fixed; later issues refer to them.  ``wire_clinic`` is in
``bench/wire.py``.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.util.clock import SimulatedClock
from repro.workload.generator import WorkloadGenerator

from bench import harness, layers
from bench.harness import SEARCH_TERMS, SpeedGauge, Tally
from bench.trace import Span, Tracer

OUT_DIR = Path(__file__).resolve().parent / "out"
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
ZIPF_EXPONENT = 0.9
BATCH = 64

#: Operation counts at scale 1.0 (``--seconds`` == ``run_seconds``).
INGEST_SINGLE_RECORDS = 1_600
INGEST_SINGLE_PATIENTS = 200
INGEST_BATCH_RECORDS = 4_096
INGEST_BATCH_PATIENTS = 200
READ_TIERED_RECORDS = 2_048
READ_TIERED_PATIENTS = 128
READ_TIERED_OPS = 12_000
READ_TIERED_DEMOTED = 0.25
READ_TIERED_SEARCH_SHARE = 0.10
#: Read-back checks of the ingest workloads, over the whole run.
PROBE_READS = 1_500
PROBE_QUERIES = 400
PROBE_SLICES = 16
#: The records themselves come from one fixed generator seed; ``--seed``
#: decides what is done with them (order, mix order, popularity ranking,
#: demotion set, samples).  The generator's Zipf patient activity makes
#: a handful of patients' conditions and shard placement decide how long
#: the hot posting lists get, so reseeding *it* moves bytes stored per
#: user byte by 20 % and overfills the hottest index device on 4 seeds
#: in 10 — a different amount of work, not a different draw of the same.
CORPUS_SEED = 2007


def scaled(count: int, scale: float, floor: int = 1) -> int:
    return max(floor, round(count * scale))


@dataclass
class Outcome:
    """Everything one run of one workload measured.  Durations are at
    reference speed (see :class:`bench.harness.SpeedGauge`) unless
    named ``raw``."""

    tally: Tally
    ops: int  # correct operations in the timed window (records for ingest)
    window_s: float
    raw_window_s: float
    window_ns: tuple[int, int]
    setup_s: list[float]
    verify_s: float
    user_bytes: int
    stored_bytes: float
    peak_rss_mb: float
    burst_ms: float  # median gauge burst: how fast the machine was
    clients: int = 1
    counters: dict[str, int] = field(default_factory=dict)
    records_stored: int = 0  # in the timed window
    spans: list[Span] = field(default_factory=list)
    span_names: list[str] = field(default_factory=list)
    span_layers: list[str] = field(default_factory=list)


def corpus_generator() -> WorkloadGenerator:
    return WorkloadGenerator(CORPUS_SEED, SimulatedClock(start=harness.START_TIME))


def corpus(patients: int, records: int) -> list:
    """The first *records* of the corpus generator's ``mixed_stream``
    over *patients* patients — the same for every seed."""
    generator = corpus_generator()
    generator.create_population(patients)
    return generator.mixed_stream(records)


def exact_mix(rng: random.Random, shares: dict[str, float], count: int) -> list[str]:
    """*count* labels in exactly the given shares (the largest share
    takes the rounding remainder), in seeded order: the mix is part of
    the workload's definition, only the order is the seed's."""
    labels: list[str] = []
    for label, share in shares.items():
        labels += [label] * round(share * count)
    labels += [max(shares, key=shares.get)] * (count - len(labels))
    del labels[count:]
    rng.shuffle(labels)
    return labels


def zipf_picker(rng: random.Random, items: list) -> Callable[[int], list]:
    """Zipf(0.9) popularity over a seeded permutation of *items*."""
    ranked = list(items)
    rng.shuffle(ranked)
    weights = list(
        itertools.accumulate(1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(ranked)))
    )
    return lambda k: rng.choices(ranked, cum_weights=weights, k=k)


class InProcessWorkload:
    """Plan (seeded inputs) → set-up (timed, repeated) → timed window →
    full verification."""

    name = ""

    def plan(self, seed: int, scale: float) -> Any:
        raise NotImplementedError

    def setup(self, plan, tally: Tally, gauge: SpeedGauge):
        """Build the system up to the first timed operation."""
        return harness.build_cluster(SimulatedClock(start=harness.START_TIME))

    def window(self, cluster, plan, tally: Tally, gauge: SpeedGauge, untimed) -> tuple[int, int]:
        """Run the schedule; returns (correct ops, records stored).
        Work done under ``with untimed():`` is neither timed nor traced."""
        raise NotImplementedError

    def run(
        self, seed: int, scale: float, trace: bool, *, reference_only: bool = False
    ) -> Outcome:
        plan = self.plan(seed, scale)
        tracer = Tracer(layers.BOUNDARIES).install() if trace else None
        try:
            return self._run(plan, tracer, reference_only)
        finally:
            if tracer:
                tracer.uninstall()

    def _run(self, plan, tracer: Tracer | None, reference_only: bool) -> Outcome:
        tally = Tally()
        gauge = SpeedGauge()
        cluster = None
        setup_s: list[float] = []
        for _ in range(1 if (tracer or reference_only) else SETUP_REPEATS):
            if cluster is not None:
                cluster.close()
                cluster = None
                gc.collect()
            cluster, seconds, _raw = gauge.timed(lambda: self.setup(plan, tally, gauge))
            setup_s.append(seconds)

        excluded: Counter = Counter()  # counters and bytes the checks added

        @contextlib.contextmanager
        def untimed():
            gauge.stop()
            if tracer:
                tracer.uninstall()
                mark = harness.read_counters(cluster)
            used = harness.used_bytes(cluster)
            try:
                yield
            finally:
                excluded["used_bytes"] += harness.used_bytes(cluster) - used
                if tracer:
                    excluded.update(harness.counter_delta(mark, harness.read_counters(cluster)))
                    tracer.install()
                gauge.start()

        try:
            before = harness.read_counters(cluster) if tracer else {}
            begin = time.perf_counter_ns()
            gauge.start()
            ops, stored = self.window(cluster, plan, tally, gauge, untimed)
            gauge.stop()
            end = time.perf_counter_ns()
            outcome = Outcome(
                tally=tally,
                ops=ops,
                window_s=gauge.scaled_s,
                raw_window_s=gauge.raw_s,
                window_ns=(begin, end),
                setup_s=setup_s,
                verify_s=0.0,
                user_bytes=harness.user_bytes(g.record for g in plan.generated),
                stored_bytes=0.0,
                peak_rss_mb=0.0,
                burst_ms=gauge.median_burst_ms(),
                records_stored=stored,
            )
            if reference_only:
                return outcome
            if tracer:
                outcome.counters = harness.counter_delta(before, harness.read_counters(cluster))
                outcome.counters.update(
                    (name, outcome.counters[name] - count)
                    for name, count in excluded.items()
                    if name in outcome.counters
                )
                outcome.spans = tracer.spans()
                outcome.span_names = [target for _layer, target in tracer.boundaries]
                outcome.span_layers = [layer for layer, _target in tracer.boundaries]
            closing = harness.verify_and_measure(cluster, tally, gauge)
            outcome.verify_s = closing["verify_s"]
            outcome.stored_bytes = closing["stored_bytes"] - excluded["used_bytes"]
            outcome.peak_rss_mb = harness.peak_rss_mb()
            return outcome
        finally:
            cluster.close()


@dataclass
class IngestPlan:
    generated: list  # GeneratedRecord, in schedule order
    #: the schedule cut into slices; after each, a read-back check
    slices: list[list]
    probe_reads: list[list]  # per slice: records of that slice to read back
    probe_terms: list[list[str]]  # per slice: terms to search


def _ingest_plan(
    name: str, seed: int, patients: int, count: int, unit: int, scale: float
) -> IngestPlan:
    rng = random.Random(f"{name}/{seed}")
    generated = corpus(patients, count)
    rng.shuffle(generated)
    n_slices = max(1, min(PROBE_SLICES, count // unit))
    per_slice = -(-count // (n_slices * unit)) * unit  # whole units (batches)
    slices = [generated[i : i + per_slice] for i in range(0, count, per_slice)]
    reads = scaled(PROBE_READS, scale, floor=2 * len(slices)) // len(slices)
    queries = scaled(PROBE_QUERIES, scale, floor=len(slices)) // len(slices)
    terms = exact_mix(
        rng, dict.fromkeys(SEARCH_TERMS, 1 / len(SEARCH_TERMS)), queries * len(slices)
    )
    return IngestPlan(
        generated,
        slices,
        [rng.sample(chunk, min(reads, len(chunk))) for chunk in slices],
        [terms[i * queries : (i + 1) * queries] for i in range(len(slices))],
    )


class Ingest(InProcessWorkload):
    """Stores the schedule slice by slice.  After each slice, untimed
    and untraced, a sample of what the slice stored is read back by its
    author and the index is queried: what was acknowledged must come
    back equal and be findable.  The latencies of these checks are the
    ingest workloads' read and query metrics — cold reads, spread over
    the whole run like the stores they follow."""

    def store_slice(self, cluster, chunk: list, tally: Tally, gauge: SpeedGauge) -> int:
        raise NotImplementedError

    def reader_of(self, item) -> str:
        raise NotImplementedError

    def window(self, cluster, plan: IngestPlan, tally: Tally, gauge, untimed) -> tuple[int, int]:
        stored = 0
        findable: dict[str, list[str]] = {term: [] for term in SEARCH_TERMS}
        for chunk, reads, terms in zip(plan.slices, plan.probe_reads, plan.probe_terms):
            stored += self.store_slice(cluster, chunk, tally, gauge)
            with untimed():
                for term, ids in findable.items():
                    ids += [g.record.record_id for g in chunk if harness.mentions(g.record, term)]
                self._read_back(cluster, reads, terms, findable, tally, gauge)
        return stored, stored

    def _read_back(self, cluster, reads, terms, findable, tally: Tally, gauge) -> None:
        clock = time.perf_counter
        for item in reads:
            tally.attempted += 1
            gauge.tick()
            try:
                start = clock()
                record = cluster.read(item.record.record_id, actor_id=self.reader_of(item))
                elapsed = clock() - start
            except Exception as exc:  # noqa: BLE001 - named in the output, fails the run
                tally.miss(f"read_failed:{type(exc).__name__}")
                continue
            if record != item.record:
                tally.miss("read_wrong_content")
                continue
            tally.latency_ms["read"].append(elapsed * 1e3 * gauge.factor)
        searcher = self.reader_of(reads[0])
        for term in terms:
            tally.attempted += 1
            gauge.tick()
            try:
                start = clock()
                hits = cluster.search(term, actor_id=searcher)
                elapsed = clock() - start
            except Exception as exc:  # noqa: BLE001
                tally.miss(f"search_failed:{type(exc).__name__}")
                continue
            if hits != sorted(findable[term]):
                tally.miss("search_wrong_hits")
                continue
            tally.latency_ms["query"].append(elapsed * 1e3 * gauge.factor)


class IngestSingle(Ingest):
    """One ``store(record, author)`` at a time, one thread."""

    name = "ingest_single"

    def plan(self, seed: int, scale: float) -> IngestPlan:
        count = scaled(INGEST_SINGLE_RECORDS, scale, 40)
        return _ingest_plan(self.name, seed, INGEST_SINGLE_PATIENTS, count, 1, scale)

    def reader_of(self, item) -> str:
        return item.author_id

    def store_slice(self, cluster, chunk: list, tally: Tally, gauge: SpeedGauge) -> int:
        stored = 0
        samples = tally.latency_ms["store"]
        clock = time.perf_counter
        for item in chunk:
            tally.attempted += 1
            start = clock()
            try:
                cluster.store(item.record, item.author_id)
            except Exception as exc:  # noqa: BLE001
                tally.miss(f"store_failed:{type(exc).__name__}")
                continue
            samples.append((clock() - start) * 1e3 * gauge.factor)
            stored += 1
            gauge.tick()
        return stored


class IngestBatch(Ingest):
    """``store_many`` in batches of 64 from one feed author."""

    name = "ingest_batch"
    author = "lab-feed"

    def plan(self, seed: int, scale: float) -> IngestPlan:
        count = scaled(INGEST_BATCH_RECORDS, scale, 2 * BATCH)
        return _ingest_plan(self.name, seed, INGEST_BATCH_PATIENTS, count, BATCH, scale)

    def reader_of(self, item) -> str:
        return self.author

    def store_slice(self, cluster, chunk: list, tally: Tally, gauge: SpeedGauge) -> int:
        stored = 0
        records = [g.record for g in chunk]
        samples = tally.latency_ms["store"]
        clock = time.perf_counter
        for offset in range(0, len(records), BATCH):
            batch = records[offset : offset + BATCH]
            tally.attempted += len(batch)
            start = clock()
            try:
                acknowledged = cluster.store_many(batch, self.author)
            except Exception as exc:  # noqa: BLE001
                for _ in batch:
                    tally.miss(f"store_many_failed:{type(exc).__name__}")
                continue
            elapsed = clock() - start
            gauge.tick()  # a batch outlasts the interval: the factor after it
            samples.append(elapsed * 1e3 * gauge.factor)
            stored += acknowledged
            for _ in range(len(batch) - acknowledged):
                tally.miss("store_many_short")
        return stored


@dataclass
class TieredPlan:
    generated: list
    by_author: dict[str, list]  # author -> records, preload order
    demoted: list[str]
    schedule: list[tuple[str, Any]]  # ("read", GeneratedRecord) | ("query", term)
    expected_hits: dict[str, list[str]]
    searcher: str


class ReadTiered(InProcessWorkload):
    """Zipf reads over 4x the read cache with a quarter of the records
    demoted to the cold tier, plus index searches; one thread."""

    name = "read_tiered"

    def plan(self, seed: int, scale: float) -> TieredPlan:
        generated = corpus(
            scaled(READ_TIERED_PATIENTS, scale, 8), scaled(READ_TIERED_RECORDS, scale, 2 * BATCH)
        )
        by_author: dict[str, list] = {}
        for item in generated:
            by_author.setdefault(item.author_id, []).append(item.record)
        rng = random.Random(f"{self.name}/{seed}")
        ids = [g.record.record_id for g in generated]
        demoted = rng.sample(ids, int(len(ids) * READ_TIERED_DEMOTED))
        ops = scaled(READ_TIERED_OPS, scale, 200)
        kinds = exact_mix(
            rng, {"read": 1 - READ_TIERED_SEARCH_SHARE, "query": READ_TIERED_SEARCH_SHARE}, ops
        )
        reads = iter(zipf_picker(rng, generated)(ops))
        terms = iter(exact_mix(rng, dict.fromkeys(SEARCH_TERMS, 1 / len(SEARCH_TERMS)), ops))
        schedule = [(kind, next(reads) if kind == "read" else next(terms)) for kind in kinds]
        expected = {
            term: sorted(g.record.record_id for g in generated if harness.mentions(g.record, term))
            for term in SEARCH_TERMS
        }
        return TieredPlan(
            generated, by_author, demoted, schedule, expected, generated[0].author_id
        )

    def setup(self, plan: TieredPlan, tally: Tally, gauge: SpeedGauge):
        cluster = super().setup(plan, tally, gauge)
        samples = tally.latency_ms["store"]
        clock = time.perf_counter
        for author, records in plan.by_author.items():
            for offset in range(0, len(records), BATCH):
                batch = records[offset : offset + BATCH]
                tally.attempted += 1
                start = clock()
                acknowledged = cluster.store_many(batch, author)
                elapsed = clock() - start
                gauge.tick()
                if acknowledged != len(batch):
                    tally.miss("preload_short")
                    continue
                samples.append(elapsed * 1e3 * gauge.factor)
        tally.attempted += 1
        if sorted(cluster.demote_records(plan.demoted)) != sorted(plan.demoted):
            tally.miss("demotion_incomplete")
        return cluster

    def window(self, cluster, plan: TieredPlan, tally: Tally, gauge, untimed) -> tuple[int, int]:
        done = 0
        reads, queries = tally.latency_ms["read"], tally.latency_ms["query"]
        expected_hits, searcher = plan.expected_hits, plan.searcher
        clock = time.perf_counter
        for kind, what in plan.schedule:
            tally.attempted += 1
            gauge.tick()
            try:
                if kind == "read":
                    start = clock()
                    record = cluster.read(what.record.record_id, actor_id=what.author_id)
                    elapsed = clock() - start
                    if record != what.record:
                        tally.miss("read_wrong_content")
                        continue
                    reads.append(elapsed * 1e3 * gauge.factor)
                else:
                    start = clock()
                    hits = cluster.search(what, actor_id=searcher)
                    elapsed = clock() - start
                    if hits != expected_hits[what]:
                        tally.miss("search_wrong_hits")
                        continue
                    queries.append(elapsed * 1e3 * gauge.factor)
            except Exception as exc:  # noqa: BLE001
                tally.miss(f"{kind}_failed:{type(exc).__name__}")
                continue
            done += 1
        return done, 0
