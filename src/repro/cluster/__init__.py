"""Sharded deployment of the curator engine.

* :mod:`repro.cluster.ring` — deterministic SHA-256 patient placement
  on a virtual-node consistent-hash ring (:class:`VNodeRing`);
* :mod:`repro.cluster.manifest` — the HMAC-sealed topology manifest
  recovery refuses to proceed without;
* :mod:`repro.cluster.topology` — who lives where: the ring, the
  explicit ``patient -> shard`` placements consulted before it, the
  ``record -> patient`` table, and the manifest sealed over them;
* :mod:`repro.cluster.dispatch` — running a call on the right shard:
  per-shard locks, the read path, the move-gated write path, the
  fan-out, which runs in the caller's thread for in-process shards and
  overlaps only process workers (:mod:`repro.cluster.workers` hosts a
  shard in a process behind an explicit call table);
* :mod:`repro.cluster.merge` — putting fan-out results back together;
* :mod:`repro.cluster.router` — :class:`CuratorCluster`, the
  actor-attributed public surface over those parts;
* :mod:`repro.cluster.rebalancer` — online elastic resharding with a
  verifier-checked :class:`MigrationProof` per moved patient.
"""

from repro.cluster.manifest import ClusterManifest
from repro.cluster.rebalancer import (
    MigrationProof,
    RebalanceReport,
    Rebalancer,
    verify_migration_proof,
)
from repro.cluster.ring import RingDiff, VNodeRing
from repro.cluster.router import CuratorCluster

__all__ = [
    "ClusterManifest",
    "CuratorCluster",
    "MigrationProof",
    "RebalanceReport",
    "Rebalancer",
    "RingDiff",
    "VNodeRing",
    "verify_migration_proof",
]
