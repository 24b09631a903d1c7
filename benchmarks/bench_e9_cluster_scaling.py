"""E9b — cluster scaling without losing detection (paper §4 Discussion).

The paper's compliant store is specified as a single trusted engine;
a hospital group runs many sites and needs horizontal scale.  This
experiment measures what the patient-sharded
:class:`~repro.cluster.router.CuratorCluster` actually buys, and what
it must not give up:

* **Throughput.**  A mixed concurrent workload — point reads,
  patient-scoped disclosure accounting, cross-shard searches, batched
  ``store_many`` ingests, issued by several client threads — runs
  through a 1-shard cluster and a 4-shard cluster via the identical
  router harness.  The scaling lever is *per-request work proportional
  to local state*, not CPU parallelism (CPython threads share the
  GIL): each shard's decrypted-read cache is node memory, so a working
  set that thrashes one node's cache is served from four nodes'
  aggregate, and every audited op appends to (and periodically
  Merkle-anchors) an audit log a quarter of the monolith's length;
  likewise a HIPAA accounting-of-disclosures verifies the chain it
  answers from, so the monolith re-verifies the whole site's log per
  query while the cluster touches only the owning shard's.
* **Process-pool workers.**  A third arm runs the same workload
  against an 8-shard cluster whose engines live in worker *processes*
  (``workers=8``): per-shard state shrinks to an eighth — every read
  is a cache hit, every disclosure accounting verifies an eighth of
  the site-wide log — at the price of a pickled pipe round-trip per
  op.  It carries a ratio bar over the single engine and an absolute
  ops/s floor (the ratio was 5x while the single engine paid an
  interpreted cipher on every cache miss; see the ``worker_speedup`` row
  of ``benchmarks/bars.py`` for the re-derivation).
* **Detection.**  The speedup is only admissible with **zero**
  cluster detection-equivalence violations: every raw-device tamper
  planted on any single shard must surface through the cluster's
  merged fan-out verification exactly as it would on one engine.
  (The oracle needs raw device access, so it runs against in-process
  shards — ``workers=0`` — by construction.)

The bars are the ``e9_cluster`` rows of ``benchmarks/bars.py``.
"""

import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from benchmarks.bars import gate
from benchmarks.common import MASTER_KEY, new_clock, print_table
from repro.cluster import CuratorCluster, VNodeRing
from repro.cluster.ring import sample_patients
from repro.core.config import CuratorConfig
from repro.crypto.rsa import generate_keypair
from repro.records.model import ClinicalNote
from repro.util.metrics import METRICS
from repro.verify.equivalence import run_scenario_table, scenarios

SHARDS = 4
WORKER_SHARDS = 8      # the process-pool arm: one engine per worker process
RECORDS = 256          # working set: one record per patient
READ_CACHE = 64        # per-engine node memory; 4 nodes hold the set, 1 cannot
WARM_PASSES = 3        # archive-shaped audit logs before timing starts
CLIENT_THREADS = 4
TIMED_OPS = 320
INGEST_EVERY = 160     # rare batched store_many (archives are read-mostly)
REPEATS = 5            # fresh clusters per arm; the arm is their median

KEYPAIR = generate_keypair(768)  # one HSM-held site identity for every arm

#: The scenario table's rows for a fresh two-shard cluster: one clean
#: control, then every raw-device tamper on each shard (media refresh is
#: E8's row).
EQUIVALENCE_ROWS = [
    name
    for name in scenarios()
    if name.startswith(("shard-00/fresh/", "shard-01/fresh/"))
    and not name.endswith("/refresh_after_rot")
    and name != "shard-01/fresh/no_tamper_control"
]


# Archive-shaped documents: real clinical narratives run to kilobytes,
# and the decrypt cost of a cache miss scales with them — which is
# exactly the asymmetry the per-shard read caches exploit.
_NARRATIVE = (
    " history of present illness, review of systems, assessment and plan"
    " documented at length for the archival record;"
) * 30


def _note(
    record_id: str,
    patient_id: str,
    created_at: float,
    text: str | None = None,
) -> ClinicalNote:
    return ClinicalNote.create(
        record_id=record_id,
        patient_id=patient_id,
        created_at=created_at,
        author="dr-bench",
        specialty="cardiology",
        text=(
            text
            or f"cluster benchmark note {record_id} with tachycardia finding"
        )
        + _NARRATIVE,
    )


def _build_cluster(
    shards: int, workers: int = 0
) -> tuple[CuratorCluster, list[str], list[str], object]:
    clock = new_clock()
    config = CuratorConfig(
        master_key=MASTER_KEY,
        clock=clock,
        read_cache_size=READ_CACHE,
        signing_keypair=KEYPAIR,
    )
    cluster = CuratorCluster(config, shards=shards, workers=workers)
    # The same patient set for every arm (balanced on the 4-shard ring)
    # so all arms ingest and serve the identical record stream.
    # (round-robin across its shards, so a batch never favours one)
    balanced = sample_patients(VNodeRing.for_count(SHARDS), RECORDS // SHARDS)
    patients = [p for group in zip(*balanced.values()) for p in group]
    records = [
        _note(f"rec-{n:04d}", patient_id, clock.now())
        for n, patient_id in enumerate(patients)
    ]
    cluster.store_many(records, "dr-bench")
    record_ids = [record.record_id for record in records]
    # warm every arm identically: read passes grow the audit logs to
    # the archive shape the compliance queries will verify against
    for _ in range(WARM_PASSES):
        for record_id in record_ids:
            cluster.read(record_id, actor_id="dr-bench")
    return cluster, record_ids, patients, clock


def _run_mixed_workload(
    cluster: CuratorCluster,
    record_ids: list[str],
    patients: list[str],
    clock,
    rounds: int = 2,
) -> float:
    """The timed op stream, split across client threads; returns ops/sec.

    The stream runs *rounds* times and the best round counts — the
    steady-state number, free of first-touch effects and scheduler
    jitter (every arm gets the identical treatment).  ``clock`` is
    passed in rather than read off a shard engine: in worker mode the
    shards are process proxies and engine internals are deliberately
    unreachable.
    """
    extra = iter(range(10_000))

    def one_op(i: int) -> None:
        if i % INGEST_EVERY == INGEST_EVERY - 1:
            # one admission: several documents for a single patient, so
            # the whole batch routes to one shard and rides the batched
            # ingest fast path end to end; its fresh vocabulary touches
            # only its own posting lists, not the whole corpus
            n = next(extra)
            batch = [
                _note(f"xtra-{n:04d}-{part}", f"xpat-{n:04d}", clock.now(),
                      text=f"admission intake triage entry xtra{n:04d} {part}")
                for part in range(4)
            ]
            cluster.store_many(batch, "dr-bench")
        elif i % 64 == 7:
            cluster.search("tachycardia", actor_id="dr-bench")
        elif i % 32 == 3:
            # the signature compliance op: verifies + scans the owning
            # shard's audit chain, a quarter of the site-wide log
            cluster.accounting_of_disclosures(
                patients[(i * 5) % len(patients)], actor_id="system"
            )
        else:
            # stride through the whole working set: cyclic access is the
            # LRU's worst case, so an undersized cache gets zero hits
            cluster.read(record_ids[(i * 7) % len(record_ids)],
                         actor_id="dr-bench")

    def client(worker: int) -> None:
        for i in range(worker, TIMED_OPS, CLIENT_THREADS):
            one_op(i)

    # Interactive clients care about latency: the default 5ms GIL switch
    # interval makes a thread that just finished a blocking pipe/lock
    # wait pay up to 5ms to resume, which swamps sub-millisecond ops.
    # Applied identically to every arm.
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(0.0005)
    try:
        best = 0.0
        for _ in range(rounds):
            start = time.perf_counter()
            with ThreadPoolExecutor(max_workers=CLIENT_THREADS) as pool:
                list(pool.map(client, range(CLIENT_THREADS)))
            elapsed = time.perf_counter() - start
            best = max(best, TIMED_OPS / elapsed)
    finally:
        sys.setswitchinterval(switch_interval)
    return best


def _measure_arm(shards: int, workers: int = 0) -> dict:
    """One arm: the median ops/sec of :data:`REPEATS` fresh clusters.

    A single ~0.2-1 s window moves 10-20 % with this VM's scheduler, and
    the bars are ratios of two such windows.  Every repetition builds
    its own cluster (so the five are independent, not one log growing
    under five passes), must serve the same records and must stay
    verifiable through the fan-out; the cache counters are the last
    repetition's (worker-mode counters live in the workers and read 0).
    """
    rates = []
    for _ in range(REPEATS):
        METRICS.reset()
        cluster, record_ids, patients, clock = _build_cluster(shards, workers)
        try:
            rates.append(_run_mixed_workload(cluster, record_ids, patients, clock))
            served = cluster.record_ids()
            assert cluster.verify_integrity().ok
            assert cluster.verify_audit_trail().ok
        finally:
            cluster.close()
    return {
        "ops": statistics.median(rates),
        "runs": [round(rate, 1) for rate in rates],
        "record_ids": served,
        "hits": METRICS.get("read_cache_hits"),
        "misses": METRICS.get("read_cache_misses"),
        "per_shard_reads": METRICS.labelled("cluster_reads"),
    }


def test_e9_cluster_scaling(benchmark):
    """The headline cluster measurement."""
    single = _measure_arm(1)
    cluster = _measure_arm(SHARDS)
    # the process-pool arm: 8 engines in 8 worker processes
    workers = _measure_arm(WORKER_SHARDS, workers=WORKER_SHARDS)
    # every arm served the same records (each repetition also verified
    # integrity and the audit trail through its own fan-out)
    assert cluster["record_ids"] == single["record_ids"]
    assert workers["record_ids"] == single["record_ids"]
    single_ops, cluster_ops, worker_ops = single["ops"], cluster["ops"], workers["ops"]

    speedup = cluster_ops / single_ops
    worker_speedup = worker_ops / single_ops

    # scaled, but did it still catch every single-shard tamper?
    equivalence = run_scenario_table(EQUIVALENCE_ROWS)

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print_table(
        f"E9b cluster scaling ({RECORDS} records, cache {READ_CACHE}/node, "
        f"{CLIENT_THREADS} client threads)",
        ["arm", "ops/s", "cache hits", "cache misses"],
        [
            ["1 shard", f"{single_ops:8.1f}", single["hits"], single["misses"]],
            [f"{SHARDS} shards", f"{cluster_ops:8.1f}", cluster["hits"],
             cluster["misses"]],
            [f"{WORKER_SHARDS} worker procs", f"{worker_ops:8.1f}",
             "(in workers)", "(in workers)"],
            ["speedup", f"{speedup:7.2f}x", "", ""],
            ["worker speedup", f"{worker_speedup:7.2f}x", "", ""],
        ],
    )
    print(f"ops/s per repetition (median of {REPEATS} is the arm):")
    for name, arm in (("1 shard", single), (f"{SHARDS} shards", cluster),
                      (f"{WORKER_SHARDS} worker procs", workers)):
        print(f"  {name}: {arm['runs']}")
    print("per-shard routed reads:", cluster["per_shard_reads"])
    print(equivalence.summary())

    gate(
        "e9_cluster",
        {
            "single_shard_ops_per_sec": round(single_ops, 1),
            "cluster_ops_per_sec": round(cluster_ops, 1),
            "worker_cluster_ops_per_sec": round(worker_ops, 1),
            "speedup": round(speedup, 2),
            "worker_speedup": round(worker_speedup, 2),
            "equivalence_cases": len(equivalence.cases),
            "equivalence_violations": len(equivalence.violations),
        },
        {
            "shards": SHARDS,
            "worker_shards": WORKER_SHARDS,
            "records": RECORDS,
            "read_cache_size": READ_CACHE,
            "client_threads": CLIENT_THREADS,
            "timed_ops": TIMED_OPS,
            "repeats": REPEATS,
        },
    )
