"""What the performance counters say: batching, tiers, and the wire service.

Three short scenarios, each against a fresh ``METRICS`` registry:

1. the same 16 records stored as 16 batches of one and as one batch of
   16, counters side by side (signatures, journal flushes, index
   commits: what a batch amortises);
2. tier traffic: warm and hot reads, three simulated years of idleness,
   a demotion sweep into a cold segment, then a read-through recall;
3. an in-process wire-service burst (a login, a store, reads, one
   denial, one unknown endpoint) behind the request, denial and queue
   counters.

Run:  python examples/metrics.py
"""

from repro import CuratorCluster, CuratorConfig, CuratorStore
from repro.access import Role, User
from repro.archive import DemotionPolicy
from repro.records import ClinicalNote
from repro.service import (
    CuratorService,
    ServiceClient,
    ServiceClientError,
    ServiceConfig,
    ServiceServer,
)
from repro.util import SimulatedClock
from repro.util.metrics import METRICS
from repro.workload import WorkloadGenerator

MASTER = bytes(range(32))


def build():
    clock = SimulatedClock(start=1.17e9)
    store = CuratorStore(CuratorConfig(master_key=MASTER, clock=clock))
    generator = WorkloadGenerator("example-metrics", clock)
    generator.create_population(8)
    return store, clock, [generator.encounter_record() for _ in range(16)]


def batching() -> tuple[CuratorStore, SimulatedClock]:
    METRICS.reset()
    store, _, batch = build()
    for generated in batch:
        store.store(generated.record, generated.author_id)
    for record_id in store.record_ids()[:4]:
        store.read(record_id, actor_id="system")
        store.read(record_id, actor_id="system")  # second read hits the LRU
    singles = METRICS.snapshot()

    METRICS.reset()
    store, clock, batch = build()
    store.store_many([g.record for g in batch], batch[0].author_id)
    batched = METRICS.snapshot()

    names = sorted(set(singles) | set(batched))
    width = max(len(n) for n in names)
    print(f"{'counter':<{width}}  {'16 x store':>12}  {'store_many':>12}")
    for name in names:
        print(f"{name:<{width}}  {singles.get(name, 0):>12}  {batched.get(name, 0):>12}")
    return store, clock


def tiers(store: CuratorStore, clock: SimulatedClock) -> None:
    METRICS.reset()
    record_ids = store.record_ids()
    for record_id in record_ids[:4]:
        store.read(record_id, actor_id="system")  # warm miss
        store.read(record_id, actor_id="system")  # hot LRU hit
    clock.advance_years(3.0)
    store.demotion_sweep(DemotionPolicy(), actor_id="example-metrics")
    store.read(record_ids[0], actor_id="system")  # read-through recall
    store.read(record_ids[0], actor_id="system")  # hot again post-recall

    counts = METRICS.snapshot()
    hot = counts.get("tier_hot_hits", 0)
    warm = counts.get("tier_warm_reads", 0)
    cold = counts.get("tier_cold_reads", 0)
    served = hot + warm + cold
    stats = store.tier_stats()
    print("\ntier traffic (post-demotion scenario)")
    for name in sorted(n for n in counts if n.startswith("tier_")):
        print(f"  {name:<24}  {counts[name]:>8}")
    if served:
        print(f"  {'hot hit ratio':<24}  {hot / served:>8.2f}")
        print(f"  {'warm read ratio':<24}  {warm / served:>8.2f}")
        print(f"  {'cold recall ratio':<24}  {cold / served:>8.2f}")
    print(
        f"  occupancy: {stats['warm_records']} warm / "
        f"{stats['cold_records']} cold in {stats['cold_segments']} "
        f"segment(s); {stats['warm_bytes']} warm bytes, "
        f"{stats['cold_bytes']} cold bytes"
    )


def wire_burst() -> None:
    METRICS.reset()
    cluster = CuratorCluster(
        CuratorConfig(master_key=MASTER, site_id="example-metrics"), shards=2
    )
    service = CuratorService(cluster, ServiceConfig(port=0))
    secret = service.enroll(
        User.make("dr-m", "Dr M", [Role.PHYSICIAN], "cardio", treating={"pat-1"})
    )
    server = ServiceServer(service).start()
    try:
        wire = ServiceClient(server.host, server.port)
        wire.login("dr-m", secret)
        wire.store(ClinicalNote.create(
            record_id="rec-m", patient_id="pat-1", created_at=1.17e9,
            author="dr-m", specialty="cardio", text="metrics example note",
        ).to_dict())
        for _ in range(3):
            wire.read("rec-m")
        for call in (wire.audit_query, wire.healthz):  # one denial, one ok
            try:
                call()
            except ServiceClientError:
                pass
        try:
            wire.request("GET", "/v1/nope")
        except ServiceClientError:
            pass
    finally:
        server.stop()
        cluster.close()
    snapshot = METRICS.snapshot()
    print("\nwire service (in-process burst)")
    for name in sorted(snapshot):
        if name.startswith("service_"):
            print(f"  {name:<36}  {snapshot[name]:>8}")


def main() -> None:
    tiers(*batching())
    wire_burst()


if __name__ == "__main__":
    main()
