"""The sealed cluster manifest: topology that recovery can trust.

A sharded cluster's weakest recovery failure is the *silent* one: hand
the recovery path three of four shards' devices and get back a smaller
archive that verifies clean — every surviving shard's chain intact,
every surviving record readable — with a quarter of the patients simply
gone.  Per-shard integrity machinery cannot catch this because each
shard only vouches for itself.

The manifest closes that hole.  It records the cluster's topology —
shard count, shard names, placement algorithm — and is sealed with an
HMAC under a key derived from the HSM-held master key
(``curator/cluster-manifest``), the same trust anchor the per-shard
key escrows rely on.  Recovery refuses to proceed unless the manifest
verifies and a device set is presented for **every** shard the
manifest names; a missing shard is a :class:`~repro.errors.ClusterError`
naming exactly what is absent, never a quietly smaller cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cluster.ring import RING_POINTS
from repro.crypto.hmac_utils import constant_time_equal, hmac_sha256
from repro.crypto.kdf import derive_key
from repro.errors import ClusterError
from repro.util.encoding import canonical_bytes, canonical_loads

MANIFEST_KEY_LABEL = "curator/cluster-manifest"


@dataclass(frozen=True)
class ClusterManifest:
    """Sealed topology of one cluster deployment."""

    cluster_id: str
    site_id: str
    shard_ids: tuple[str, ...]
    #: Placement algorithm tag; :mod:`repro.cluster.topology` rebuilds
    #: the ring from it at recovery.
    algorithm: str = f"sha256-vnode/{RING_POINTS}"
    #: Monotonic topology generation.  Every reshape bumps the epoch and
    #: re-seals, so a recovered manifest names not just *a* topology but
    #: *which* one — a stale pre-rebalance manifest and a lost device
    #: produce distinguishable errors.
    epoch: int = 0
    seal: bytes = b""

    @property
    def shard_count(self) -> int:
        return len(self.shard_ids)

    def _fields(self) -> dict:
        return {
            "cluster_id": self.cluster_id,
            "site_id": self.site_id,
            "shard_ids": list(self.shard_ids),
            "algorithm": self.algorithm,
            "epoch": self.epoch,
        }

    def _payload(self) -> bytes:
        return canonical_bytes(self._fields())

    def sealed(self, master_key: bytes) -> "ClusterManifest":
        """A copy carrying the HMAC seal under *master_key*."""
        key = derive_key(master_key, MANIFEST_KEY_LABEL)
        return replace(self, seal=hmac_sha256(key, self._payload()))

    def verify(self, master_key: bytes) -> None:
        """Raise :class:`ClusterError` unless the seal matches the
        topology under *master_key*."""
        key = derive_key(master_key, MANIFEST_KEY_LABEL)
        if not self.seal or not constant_time_equal(
            self.seal, hmac_sha256(key, self._payload())
        ):
            raise ClusterError(
                f"cluster manifest for {self.cluster_id!r} failed seal "
                "verification; refusing to trust its topology"
            )

    def to_bytes(self) -> bytes:
        """Canonical serialization (seal included) for off-site escrow."""
        return canonical_bytes({**self._fields(), "seal": self.seal})

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ClusterManifest":
        fields = canonical_loads(blob)
        return cls(
            cluster_id=fields["cluster_id"],
            site_id=fields["site_id"],
            shard_ids=tuple(fields["shard_ids"]),
            algorithm=fields["algorithm"],
            # pre-rebalance escrow copies predate the epoch field
            epoch=fields.get("epoch", 0),
            seal=fields["seal"],
        )
