"""A sharded cluster that grows while it holds records.

Routes one note per patient across a two-shard ``CuratorCluster``, runs
a search merged from every shard, then grows the live cluster to four
shards.  Every patient the ring moves carries a ``MigrationProof``; each
one is re-verified, and so are the cluster's integrity and audit
chains.  The script exits non-zero on any failure.

Run:  python examples/cluster_rebalance.py
"""

import secrets
import sys

from repro import CuratorCluster, CuratorConfig
from repro.errors import CuratorError
from repro.records import ClinicalNote
from repro.util import SimulatedClock
from repro.util.metrics import METRICS

SHARDS, TARGET, PATIENTS = 2, 4, 12


def main() -> None:
    clock = SimulatedClock(start=1.17e9)
    cluster = CuratorCluster(
        CuratorConfig(master_key=secrets.token_bytes(32), clock=clock), shards=SHARDS
    )
    METRICS.reset()
    for n in range(PATIENTS):
        cluster.store(
            ClinicalNote.create(
                record_id=f"rec-{n:03d}",
                patient_id=f"pat-{n:03d}",
                created_at=clock.now(),
                author="dr-demo",
                specialty="cardiology",
                text=f"rebalance example note {n}: sinus rhythm",
            ),
            author_id="dr-demo",
        )
        clock.advance(1.0)
    hits = cluster.search("rhythm", actor_id="dr-demo")
    print(f"cluster {cluster.manifest.cluster_id}: "
          f"{cluster.shard_count} shards, {len(cluster.record_ids())} records")
    print(f"merged search('rhythm') -> {len(hits)} records")
    for name in ("cluster_stores", "cluster_searches"):
        print(f"  {name}: {METRICS.labelled(name)}")

    report = cluster.rebalance(target_shards=TARGET, actor_id="ops")
    print(f"rebalanced {len(report.from_shards)} -> {len(report.to_shards)} "
          f"shards (epoch {report.epoch}): moved {report.moved} of {PATIENTS} patients")
    print(f"  added:   {', '.join(report.added)}")
    failures = 0
    for proof in report.proofs:
        try:
            cluster.verify_move_proof(proof)
        except CuratorError as exc:  # surface, then count: the gate is the exit code
            failures += 1
            print(f"  proof FAILED {proof.patient_id}: {exc}")
        else:
            print(f"    {proof.patient_id}: {proof.source_shard} -> "
                  f"{proof.destination_shard}, {proof.object_count} extents, "
                  f"epoch {proof.epoch}")
    print(f"  proofs:  {report.moved - failures}/{report.moved} re-verified "
          f"({failures} failures)")
    integrity = cluster.verify_integrity()
    audit = cluster.verify_audit_trail()
    print("integrity:", integrity.summary())
    print("audit:    ", audit.summary())
    if failures or not (integrity.ok and audit.ok):
        sys.exit(1)


if __name__ == "__main__":
    main()
