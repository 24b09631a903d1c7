"""The off-site backup vault.

A vault lives at its own site: destroying the primary site's devices
does not touch it, and vice versa.  It stores immutable snapshots
(object bytes + digests + Merkle root) and the wrapped data keys needed
to read them after restore, and supports coordinated key shredding so
disposition reaches historical backups.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.hashing import sha256
from repro.errors import BackupError
from repro.migration.manifest import entries_tree


@dataclass(frozen=True)
class BackupSnapshot:
    """One immutable snapshot."""

    snapshot_id: str
    created_at: float
    kind: str  # "full" | "incremental"
    base_snapshot_id: str | None
    objects: dict[str, bytes]  # object_id -> raw stored bytes (ciphertext)
    digests: dict[str, bytes]
    merkle_root: bytes
    # key id -> (the key's label, its wrapped blob)
    wrapped_keys: dict[str, tuple[str, bytes]] = field(default_factory=dict)

    def verify(self) -> list[str]:
        """Digest-check every object; returns the ids that fail."""
        failures = [
            object_id
            for object_id, data in self.objects.items()
            if sha256(data) != self.digests.get(object_id)
        ]
        if entries_tree(sorted(self.digests.items())).root() != self.merkle_root:
            failures.append("<merkle-root>")
        return sorted(set(failures))


class BackupVault:
    """Snapshot storage at a separate site."""

    def __init__(self, site_id: str) -> None:
        self.site_id = site_id
        self._snapshots: dict[str, BackupSnapshot] = {}
        self._order: list[str] = []
        self._destroyed = False

    def __len__(self) -> int:
        return len(self._order)

    @property
    def destroyed(self) -> bool:
        return self._destroyed

    def destroy_site(self) -> None:
        """The off-site location itself is lost (double disaster)."""
        self._destroyed = True

    def _check_alive(self) -> None:
        if self._destroyed:
            raise BackupError(f"backup site {self.site_id} was destroyed")

    def store(self, snapshot: BackupSnapshot) -> None:
        self._check_alive()
        if snapshot.snapshot_id in self._snapshots:
            raise BackupError(f"snapshot {snapshot.snapshot_id} already stored")
        failures = snapshot.verify()
        if failures:
            raise BackupError(
                f"refusing snapshot {snapshot.snapshot_id}: failed verification "
                f"for {failures}"
            )
        self._snapshots[snapshot.snapshot_id] = snapshot
        self._order.append(snapshot.snapshot_id)

    def retrieve(self, snapshot_id: str) -> BackupSnapshot:
        self._check_alive()
        snapshot = self._snapshots.get(snapshot_id)
        if snapshot is None:
            raise BackupError(f"no snapshot {snapshot_id} in vault {self.site_id}")
        return snapshot

    def latest(self) -> BackupSnapshot:
        self._check_alive()
        if not self._order:
            raise BackupError(f"vault {self.site_id} holds no snapshots")
        return self._snapshots[self._order[-1]]

    def snapshot_ids(self) -> list[str]:
        self._check_alive()
        return list(self._order)

    def chain_to_full(self, snapshot_id: str) -> list[BackupSnapshot]:
        """The restore chain: the snapshot's base lineage back to the
        most recent full snapshot, ordered full-first."""
        chain: list[BackupSnapshot] = []
        current: str | None = snapshot_id
        while current is not None:
            snapshot = self.retrieve(current)
            chain.append(snapshot)
            if snapshot.kind == "full":
                break
            current = snapshot.base_snapshot_id
        else:
            raise BackupError(
                f"snapshot {snapshot_id} has no full snapshot in its lineage"
            )
        if chain[-1].kind != "full":
            raise BackupError(
                f"snapshot {snapshot_id} has no full snapshot in its lineage"
            )
        return list(reversed(chain))

    def shred_key(self, key_id: str) -> int:
        """Coordinated cryptographic deletion: remove the wrapped key
        from every snapshot.  Returns how many snapshots were affected.

        Snapshot immutability is preserved for *record* content; key
        material is the one thing disposition is allowed — required —
        to destroy everywhere.
        """
        self._check_alive()
        affected = 0
        for snapshot_id, snapshot in self._snapshots.items():
            if key_id in snapshot.wrapped_keys:
                del snapshot.wrapped_keys[key_id]
                affected += 1
        return affected
