"""Tiering: which tier holds a record's authoritative copy, and the
moves between them.

:class:`Tiering` demotes idle records into compacted cold segments
(:mod:`repro.archive`), recalls them on demand, and is the engine's one
reader of stored versions — :meth:`open_version` recalls a cold record
first (read-through), :meth:`stored_versions` reads whichever tier is
authoritative without moving anything (verification must not recall
the archive).  A recalled record re-enters the warm tier through the
same :meth:`~repro.core.home.RecordHome.write` /
:meth:`~repro.core.home.RecordHome.adopt` pair as a fresh store.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.archive import (
    ColdStore,
    DemotionPolicy,
    cold_associated_data,
    compress_member,
    decompress_member,
)
from repro.audit.anchors import AnchorSchedule
from repro.audit.events import AuditAction
from repro.core.home import RecordHome
from repro.errors import IntegrityError
from repro.records.ids import version_id
from repro.records.versioning import RecordVersion, VersionChain
from repro.util.encoding import canonical_bytes, canonical_loads
from repro.util.metrics import METRICS


@dataclass(eq=False, repr=False, kw_only=True)
class Tiering:
    """Demote / recall / candidates / sweep over one engine's records."""

    home: RecordHome
    cold: ColdStore
    anchors: AnchorSchedule

    # -- reading stored versions ---------------------------------------------

    def open_cold_versions(
        self,
        record_id: str,
        *,
        use_cache: bool = True,
        member: tuple[str, bytes] | None = None,
    ) -> list[RecordVersion]:
        """Decrypt, decompress, and proof-check a cold member WITHOUT
        repatriating it (verification must not recall the archive).
        *member* — ``(cold segment id, sealed bytes)`` — opens a copy a
        backup snapshot vouches for instead of the cold device's."""
        plaintext = self.cold.cached_plaintext(record_id) if use_cache else None
        if plaintext is None:
            if member is None:
                sealed = self.cold.read_sealed(record_id)
                # the sealed bytes must chain back to the trusted Merkle
                # root before any of them are decrypted
                self.cold.verify_sealed(record_id, sealed)
                member = self.cold.segment_of(record_id).segment_id, sealed
            segment_id, sealed = member
            plaintext = decompress_member(
                self.home.sealer.open(
                    self.home.directory.keys[record_id],
                    sealed,
                    cold_associated_data(segment_id, record_id),
                )
            )
            self.cold.cache_plaintext(record_id, plaintext)
        payload = canonical_loads(plaintext)
        if payload.get("record_id") != record_id:
            raise IntegrityError(
                f"cold member for {record_id} carries the wrong record"
            )
        return [RecordVersion.from_dict(data) for data in payload["versions"]]

    def stored_versions(self, record_id: str) -> list[RecordVersion]:
        """Every version of a record from its authoritative tier,
        decrypted and digest-checked (non-mutating)."""
        if record_id in self.home.directory.cold:
            return self.open_cold_versions(record_id)
        return [
            self.home.open(record_id, n)
            for n in range(len(self.home.directory.chains[record_id]))
        ]

    def open_version(self, record_id: str, version: int) -> RecordVersion:
        """One version, decrypted.  A cold record is recalled first
        (read-through): the cold member is verified, its versions
        repatriated to warm WORM extents, and the read is served from
        the versions the recall verified — the fresh warm copy stays
        dirty for the next verification pass."""
        if record_id in self.home.directory.cold:
            return self.recall(record_id)[version]
        return self.home.open(record_id, version)

    # -- recall ----------------------------------------------------------------

    def recall(
        self,
        record_id: str,
        *,
        actor_id: str = "system",
        member: tuple[str, bytes] | None = None,
    ) -> list[RecordVersion]:
        """Repatriate a cold record to the warm tier: verified member
        read (sealed digest + inclusion proof + chain re-link), then
        every version re-sealed into ONE WORM frame under its original
        retention term — a torn recall leaves nothing warm.  The
        RECORD_RECALLED marker lands *after* the warm write: a crash
        between leaves the cold member authoritative and recovery
        simply re-expatriates the warm copy.  A restore passes the
        snapshot's digest-checked *member* (see
        :meth:`open_cold_versions`): the cold device may be gone.
        Returns the verified versions, indexed by version number."""
        with METRICS.timer("tier_recall_ns"):
            segment_id = member[0] if member else self.cold.segment_of(record_id).segment_id
            # never recall from the plaintext cache: what repatriates to
            # the warm tier must be the device bytes, freshly verified
            # against the trusted manifest and Merkle root
            versions = self.open_cold_versions(
                record_id, use_cache=False, member=member
            )
            versions = list(VersionChain.from_versions(record_id, versions))
            handle = self.home.directory.keys[record_id]
            self.home.write([(v, handle) for v in versions], origin=None)
            self.home.directory.set_cold(record_id, False)
            self.cold.mark_repatriated(record_id)
            # fresh device bytes: re-adopted dirty, so the next
            # incremental pass re-verifies them
            self.home.adopt([(self.home.directory.chains[record_id], handle)], index=False)
            self.anchors.append(
                AuditAction.RECORD_RECALLED, actor_id, record_id,
                {"segment": segment_id, "versions": len(versions)},
            )
        METRICS.incr("tier_cold_recalls")
        METRICS.incr("tier_recalled_versions", len(versions))
        return versions

    # -- demotion ----------------------------------------------------------------

    def _demotable(self, record_id: str) -> bool:
        """Live, warm, and free of litigation holds."""
        return (
            record_id in self.home.directory.chains
            and record_id not in self.home.directory.disposed
            and record_id not in self.home.directory.cold
            and not self.home.held(record_id)
        )

    def demote(self, record_ids: list[str], *, actor_id: str) -> list[str]:
        """Compact *record_ids* into one cold segment.

        Commit protocol: the warm copies are chain-verified first (a
        segment must never launder tampered data into a fresh trust
        root), the segment frame is written, then per record a
        RECORD_DEMOTED marker — the durable commit point recovery
        replays — and only then are the warm extents expatriated.
        Records under litigation hold, already cold, or disposed are
        skipped."""
        eligible = [rid for rid in record_ids if self._demotable(rid)]
        if not eligible:
            return []
        segment_id = self.cold.next_segment_id()
        staged: list[tuple[str, int, float, tuple]] = []
        seal_items = []
        for record_id in eligible:
            versions = self.stored_versions(record_id)
            VersionChain.from_versions(record_id, versions)
            plaintext = canonical_bytes(
                {
                    "record_id": record_id,
                    "versions": [version.to_dict() for version in versions],
                }
            )
            # one provenance entry per version, in order — the version
            # object ids are derivable so only the warm tier's original
            # digests and write times are carried
            provenance = []
            expires_at = 0.0
            for n, version in enumerate(versions):
                meta = self.home.worm.metadata(version_id(record_id, n))
                provenance.append(
                    {
                        "content_digest": meta.content_digest,
                        "written_at": meta.written_at,
                    }
                )
                term = self.home.term_for(
                    version.record.record_type, version.created_at
                )
                expires_at = max(expires_at, term.expires_at)
            seal_items.append(
                (
                    self.home.directory.keys[record_id],
                    compress_member(plaintext),
                    cold_associated_data(segment_id, record_id),
                )
            )
            staged.append(
                (record_id, len(versions), expires_at, tuple(provenance))
            )
        members = [
            (record_id, sealed, version_count, expires_at, provenance)
            for (record_id, version_count, expires_at, provenance), sealed
            in zip(staged, self.home.sealer.seal_many(seal_items))
        ]
        segment = self.cold.write_segment(segment_id, members)
        root_hex = segment.manifest.merkle_root.hex()[:16]
        for record_id, version_count, _, _ in staged:
            # marker first (the commit point), then tombstone the warm
            # extents — a crash in between is healed by recovery's
            # marker replay re-expatriating them
            self.anchors.append(
                AuditAction.RECORD_DEMOTED, actor_id, record_id,
                {
                    "segment": segment_id,
                    "versions": version_count,
                    "root": root_hex,
                },
            )
            for n in range(version_count):
                self.home.worm.expatriate(version_id(record_id, n))
            self.home.directory.set_cold(record_id, True)
        METRICS.incr("tier_demotions", len(staged))
        return [record_id for record_id, *_ in staged]

    def candidates(self, policy: DemotionPolicy) -> list[str]:
        """Live warm records the policy says belong in the cold tier."""
        now = self.home.clock.now()
        candidates = []
        for record_id in self.home.directory.record_ids():
            if not self._demotable(record_id):
                continue
            latest = self.home.directory.chains[record_id].latest()
            if policy.eligible(
                now=now,
                created_at=latest.created_at,
                last_access=self.home.directory.last_access.get(record_id, latest.created_at),
            ):
                candidates.append(record_id)
        return candidates

    def sweep(self, policy: DemotionPolicy | None, *, actor_id: str) -> list[str]:
        """Evaluate the demotion policy and compact every eligible
        record into cold segments (one per ``max_segment_records``)."""
        policy = policy or DemotionPolicy()
        demoted: list[str] = []
        for batch in policy.batches(self.candidates(policy)):
            demoted += self.demote(batch, actor_id=actor_id)
        return demoted

    def stats(self) -> dict[str, int]:
        """Per-tier occupancy and on-device footprint."""
        live = set(self.home.directory.record_ids())
        return {
            "hot_records": len(self.home.directory.read_cache),
            "warm_records": len(live - self.home.directory.cold),
            "cold_records": len(self.home.directory.cold),
            "cold_segments": self.cold.segment_count,
            "warm_bytes": self.home.worm.device.used,
            "cold_bytes": self.cold.device.used,
        }
