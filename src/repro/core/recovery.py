"""Recovery: everything that rebuilds or replaces the WORM archive.

* every device-backed store *opens* its device — a blank one for a new
  engine, a surviving image for a restart — so the engine has one
  wiring; :func:`certified_hole` is the one check the WORM store's open
  borrows from the opened key escrow;
* :meth:`Recovery.replay` rebuilds the record directory from them;
* :meth:`Recovery.create_backup` / :meth:`Recovery.restore_from_backup`
  / :meth:`Recovery.refresh_media` snapshot the archive, rebuild it from
  a snapshot, and move it to fresh media.

Restore, refresh and replay all end the same way: the (new or
recovered) store becomes home through
:meth:`~repro.core.home.RecordHome.install` /
:meth:`~repro.core.home.RecordHome.adopt` — one swap, one adopt path —
so they cannot disagree about key handles, retention terms, the cold
tier's verdict or the read cache.  Restore and refresh share one more
step, :meth:`Recovery._release`: the medium a swap replaces is
sanitized, disposed of through the pool and logged once the new home
holds every live object it held (a restore first carries forward what
the snapshot lacks), or it is already lost.  An object that no longer
reads off it stays behind: that medium is retired with its bytes and
the ids are logged, never scrubbed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.archive import ColdStore
from repro.audit.anchors import AnchorSchedule
from repro.audit.events import AuditAction
from repro.audit.log import AuditLog
from repro.backup.manager import BackupManager, RestoreReport
from repro.core.home import RecordHome
from repro.core.tiering import Tiering
from repro.core.transfer import PatientTransfer
from repro.crypto.keys import KeyHandle, KeyStore
from repro.crypto.signatures import TrustStore
from repro.errors import IntegrityError, ValidationError
from repro.migration.engine import MigrationEngine
from repro.records.ids import (
    Kind, cold_member, cold_member_id, parse, subject_record, version_id,
)
from repro.records.versioning import VersionChain
from repro.storage.media import MediaPool, Medium
from repro.util.encoding import canonical_loads
from repro.worm.store import WormStore


@dataclass(frozen=True)
class RecoveryReport:
    """What :meth:`CuratorStore.recover_from_devices` rebuilt.

    ``disposed`` are records whose data key was shredded before the
    crash — cryptographically deleted, correctly unrecoverable.
    ``damaged`` are records whose key survives but a copy of which no
    longer decrypts/verifies (torn or tampered data): versions lost
    outright, or a cold member that failed its check while an intact
    warm copy still serves the record.  ``orphaned`` are
    WORM objects the directory cannot serve: version objects with no
    escrowed key, and attachment chunks whose in-memory manifest died
    with the process (their bytes stay disposition-managed)."""

    records_recovered: int
    versions_recovered: int
    audit_events: int
    disposed: tuple[str, ...] = ()
    damaged: tuple[str, ...] = ()
    orphaned: tuple[str, ...] = ()
    #: Records whose audit log carries a migration export marker with no
    #: later import: their custody moved to another shard, so the
    #: recovered bytes stay tombstoned rather than resurrecting a second
    #: home for the patient.
    migrated: tuple[str, ...] = ()
    #: Records whose demotion marker says the cold tier is authoritative
    #: and whose cold member verified at recovery.
    cold_records: tuple[str, ...] = ()


def certified_hole(keystore: KeyStore):
    """The WORM store's salvage check, built from the opened key escrow.

    The escrow knows which records were lawfully destroyed.  A broken
    last WORM frame holding one of their objects was broken by the
    shred (a certified hole), not torn by a crash, so opening the WORM
    device keeps it and its surviving neighbours instead of dropping
    the batch.  Earlier frames need no check: they are always kept."""
    labels = keystore.labelled_handles()

    def check(object_ids: list[str]) -> bool:
        for object_id in object_ids:
            try:
                handle = labels.get(parse(object_id).owner)
            except ValidationError:
                continue
            if handle is not None and keystore.is_shredded(handle):
                return True
        return False

    return check


@dataclass(eq=False, repr=False)
class _Archive:
    """The store a snapshot covers and a restore refills: the WORM
    store's live objects plus, named by
    :func:`~repro.records.ids.cold_member_id`, the sealed members the
    cold tier is authoritative for — one digest and Merkle cover for
    both tiers.  A restored member is kept in :attr:`members` for the
    engine to repatriate."""

    worm: WormStore
    cold: ColdStore
    members: dict[str, bytes] = field(default_factory=dict)

    def member_ids(self) -> dict[str, str]:
        """``snapshot object id -> record`` for every live cold member."""
        return {
            cold_member_id(self.cold.segment_of(record_id).segment_id, record_id): record_id
            for record_id in self.cold.record_ids()
        }

    def object_ids(self) -> list[str]:
        return self.worm.object_ids() + list(self.member_ids())

    def get(self, object_id: str) -> bytes:
        member = cold_member(object_id)
        if member is None:
            return self.worm.get(object_id)
        # digest-checked against the trusted manifest: a snapshot never
        # launders a rotten member
        return self.members.get(object_id) or self.cold.read_sealed(member[1])

    def put_many(self, items: list[tuple]) -> None:
        """WORM objects in one frame; cold members kept aside."""
        self.worm.put_many([item for item in items if cold_member(item[0]) is None])
        for object_id, data, _ in items:
            if cold_member(object_id) is not None:
                self.members[object_id] = data


@dataclass(eq=False, repr=False, kw_only=True)
class Recovery:
    """Backup, restore, media refresh, and the device-recovery replay."""

    home: RecordHome
    tiering: Tiering
    transfer: PatientTransfer
    keystore: KeyStore
    audit: AuditLog
    anchors: AnchorSchedule
    media_pool: MediaPool
    backup: BackupManager
    trust: TrustStore

    # -- backup / restore / refresh ----------------------------------------------

    def create_backup(self, *, incremental: bool, actor_id: str):
        """Snapshot both tiers + wrapped keys to the off-site vault.
        Objects no record owns (imported audit-segment archives) carry
        no data key and are backed up without one."""
        create = (
            self.backup.create_incremental if incremental else self.backup.create_full
        )
        archive = _Archive(self.home.worm, self.tiering.cold)
        handles = self.home.handles()
        for object_id, record_id in archive.member_ids().items():
            handles[object_id] = self.home.directory.keys[record_id]
        snapshot = create(archive, self.keystore, handles)
        self.anchors.append(
            AuditAction.BACKUP_CREATED, actor_id, snapshot.snapshot_id,
            {"objects": len(snapshot.objects), "kind": snapshot.kind},
        )
        return snapshot

    def restore_from_backup(self, snapshot_id: str, *, actor_id: str) -> RestoreReport:
        """Rebuild the WORM store from the vault onto a fresh medium and
        make it home.  Restore writes zero-duration terms; the install
        rebuilds the real ones (extend-only) from the surviving
        controller metadata; objects written since the snapshot are
        carried over from the replaced store first.  A record the
        snapshot found cold comes back warm, repatriated from its
        snapshot member — the cold device may have been lost with the
        medium — unless it has since been destroyed, moved away, or
        recalled onto objects the snapshot lineage also holds."""
        medium = self.media_pool.provision()
        archive = _Archive(
            WormStore(device=medium.device, clock=self.home.clock), self.tiering.cold
        )
        report = self.backup.restore(snapshot_id, archive, None)
        if not report.verified:
            raise IntegrityError(
                f"restore failed verification: {report.mismatched}"
            )
        replaced, old_medium = self.home.worm, self.home.medium
        if not old_medium.device.detached:
            self._carry_forward(replaced, archive.worm)
        self.home.install(archive.worm, medium)
        live = set(self.home.directory.record_ids())
        for object_id, sealed in archive.members.items():
            cold_segment, record_id = cold_member(object_id)
            if record_id in live and (
                record_id in self.home.directory.cold
                or version_id(record_id, 0) not in archive.worm
            ):
                self.tiering.recall(
                    record_id, actor_id=actor_id, member=(cold_segment, sealed)
                )
        self.anchors.append(
            AuditAction.BACKUP_RESTORED, actor_id, snapshot_id,
            {"objects": report.objects_restored, "medium": medium.medium_id},
        )
        self._release(replaced, old_medium)
        return report

    @staticmethod
    def _carry_forward(replaced: WormStore, restored: WormStore) -> None:
        """Copy onto the *restored* store every live object the
        *replaced* one holds and the snapshot lacked (written after it),
        digest-checked on the way and under its retention term, in ONE
        frame.  An object that no longer reads stays behind for
        :meth:`_release` to name."""
        items = []
        for object_id in replaced.object_ids():
            if object_id in restored:
                continue
            try:
                data = replaced.get(object_id)
            except IntegrityError:
                continue
            items.append((object_id, data, replaced.retention.term_for(object_id)))
        restored.put_many(items)

    def refresh_media(self) -> Medium:
        """Migrate the archive to a fresh medium (aging hardware), with
        manifest verification, then sanitize and retire the old one."""
        replaced, old_medium = self.home.worm, self.home.medium
        new_medium = self.media_pool.provision()
        destination = WormStore(device=new_medium.device, clock=self.home.clock)
        engine = MigrationEngine(self.trust, clock=self.home.clock, custody=None)
        result = engine.migrate(
            self.home.worm, destination, self.home.signer, self.home.site_id
        )
        if not result.ok:
            self.anchors.append(
                AuditAction.MIGRATION_FAILED, "system", new_medium.medium_id,
                {"missing": list(result.missing), "corrupted": list(result.corrupted)},
            )
            raise IntegrityError(
                f"media refresh failed verification: missing={result.missing} "
                f"corrupted={result.corrupted}"
            )
        self.anchors.append(
            AuditAction.MIGRATION_COMPLETED, "system", new_medium.medium_id,
            {"from": old_medium.medium_id, "objects": result.copied},
        )
        self.home.install(destination, new_medium)
        self._release(replaced, old_medium)
        return new_medium

    def _release(self, replaced: WormStore, medium: Medium) -> None:
        """The one end of a move to fresh media, once the new store is
        home: the *medium* under the *replaced* store is sanitized,
        disposed of through the pool (which lets go of its bytes) and
        logged — if the new home holds every live object it held, or the
        device is already lost.  Otherwise (an object that no longer
        reads could not be carried forward) the medium is only retired:
        its bytes are the one copy of the objects left behind, which the
        event names, and a disposal would destroy them uncertified."""
        left_behind = sorted(
            set(replaced.object_ids()) - set(self.home.worm.object_ids())
        )
        if left_behind and not medium.device.detached:
            medium.retire("restore left live objects behind")
            self.anchors.append(
                AuditAction.MEDIA_RETIRED, "system", medium.medium_id,
                {"left_behind": left_behind},
            )
            return
        self.media_pool.dispose(medium)
        self.anchors.append(
            AuditAction.MEDIA_DISPOSED, "system", medium.medium_id,
            {"lost": left_behind} if left_behind else {},
        )

    # -- device recovery ---------------------------------------------------------

    def _replay_markers(self) -> tuple[set[str], set[str], set[str], set[str], float | None]:
        """What the recovered audit log says about custody, tier and
        the WORM medium's age.

        Migration markers, replayed in sequence order, yield the records
        (and patients) this shard no longer owns — a CUSTODY_TRANSFERRED
        export with no later MIGRATION_COMPLETED import — whose
        recovered bytes must stay tombstoned, because WORM tombstones
        are process memory and a naive replay would resurrect a second
        home for every migrated patient.  Demotion markers replay the
        same way: a RECORD_DEMOTED with no later RECORD_RECALLED means
        the cold member is authoritative.  The adopted medium entered
        service at the last refresh or restore onto it, else when the
        chain began: its age, and its due replacement, survive.  The
        records created here and not since disposed are the ones the
        recovered objects must account for."""
        moved_records: set[str] = set()
        moved_patients: set[str] = set()
        demoted: set[str] = set()
        created: set[str] = set()
        medium_id = self.home.medium.medium_id
        in_service: float | None = None
        for event in self.audit.events():
            detail = event.detail or {}
            migration = detail.get("migration")
            onto = {
                AuditAction.MIGRATION_COMPLETED: event.subject_id,
                AuditAction.BACKUP_RESTORED: detail.get("medium"),
            }.get(event.action)
            if in_service is None or onto == medium_id:
                in_service = event.timestamp
            if event.action is AuditAction.CUSTODY_TRANSFERRED and migration == "export":
                moved_records.update(detail.get("records") or [])
                moved_patients.add(detail.get("patient") or event.subject_id)
            elif event.action is AuditAction.MIGRATION_COMPLETED and migration == "import":
                moved_records.difference_update(detail.get("records") or [])
                moved_patients.discard(detail.get("patient") or event.subject_id)
            elif event.action is AuditAction.RECORD_DEMOTED:
                demoted.add(event.subject_id)
            elif event.action is AuditAction.RECORD_RECALLED:
                demoted.discard(event.subject_id)
            elif event.action is AuditAction.RECORD_CREATED:
                created.add(subject_record(event.subject_id))
            elif event.action is AuditAction.RECORD_DISPOSED:
                created.discard(event.subject_id)
        return moved_records, moved_patients, demoted, created, in_service

    def replay(self) -> RecoveryReport:
        """Rebuild the record directory from recovered devices: versions
        decrypt under the recovered keys and re-chain, attachment chunks
        stay owned (their manifests were process memory), imported audit
        segments are re-adopted, and each cold member is placed by the
        audit trail's verdict.  Everything adopted came off an untrusted
        device, so it is dirty until the next integrity pass."""
        directory, home, worm = self.home.directory, self.home, self.home.worm
        labels = self.keystore.labelled_handles()
        moved_records, moved_patients, demoted, created, in_service = self._replay_markers()
        if in_service is not None:
            self.home.medium.manufactured_at = in_service
        versions: dict[str, dict[int, str]] = {}
        segments: list[str] = []
        orphaned: list[str] = []
        migrated: set[str] = set()
        for object_id in worm.object_ids():
            try:
                kind, owner, tail = parse(object_id)
            except ValidationError:
                orphaned.append(object_id)
                continue
            if kind is Kind.SEGMENT:
                segments.append(object_id)
            elif owner in moved_records:
                # custody moved to another shard: keep the extents
                # tombstoned, never serve them from here again
                worm.expatriate(object_id)
                migrated.add(owner)
            elif kind is Kind.VERSION:
                versions.setdefault(owner, {})[tail] = object_id
            else:
                # bytes + keys survive but the manifests did not: keep
                # the chunk owned (retained and destroyed with its
                # record), report the loss
                directory.orphan_chunks.setdefault(owner, []).append(object_id)
                orphaned.append(object_id)
        disposed: list[str] = []
        damaged: list[str] = []
        recovered: list[tuple[VersionChain, KeyHandle]] = []
        for record_id in sorted(versions):
            handle = labels.get(record_id)
            if handle is None:
                orphaned.extend(versions[record_id].values())
                continue
            directory.keys[record_id] = handle
            if self.keystore.is_shredded(handle):
                # Cryptographic deletion did its job: the ciphertext may
                # survive but the record is gone — record the disposal
                # and restore the tombstones (the shredder zeroed the
                # extents, so these objects must never be served again).
                directory.disposed.add(record_id)
                disposed.append(record_id)
                for object_id in versions[record_id].values():
                    try:
                        worm.delete(object_id)
                    except Exception:  # noqa: BLE001 — hold/missing: leave as-is
                        pass
                continue
            try:
                chain = VersionChain.from_versions(
                    record_id, [home.open(record_id, n) for n in versions[record_id]]
                )
            except Exception:  # noqa: BLE001 — torn/tampered data
                damaged.append(record_id)
                continue
            recovered.append((chain, handle))
        home.adopt(recovered, rederive=True)
        # imported audit segments: the durable WORM archives written at
        # import time restore the accounting-of-disclosures history of
        # migrated-in patients; segments of patients who have since
        # moved on stay tombstoned with their records
        for object_id in segments:
            try:
                payload = canonical_loads(worm.get(object_id))
                patient_id = payload["patient"]
            except Exception:  # noqa: BLE001 — torn/tampered archive
                orphaned.append(object_id)
                continue
            if patient_id in moved_patients:
                worm.expatriate(object_id)
            else:
                self.transfer.restore_segment(object_id, payload)
        # cold tier: demoted and not since recalled means cold is
        # authoritative (warm copies re-tombstoned), anything else was
        # repatriated before the crash, and a shredded key marks
        # certified scrub holes.  Without a surviving cold device,
        # demoted records honestly recover warm from their surviving
        # (pre-demotion) extents.
        cold_only: list[tuple[VersionChain, KeyHandle]] = []
        for record_id in self.tiering.cold.record_ids():
            if record_id in directory.disposed:
                self.tiering.cold.mark_scrubbed(record_id)
                continue
            if record_id not in demoted or record_id in moved_records:
                self.tiering.cold.mark_repatriated(record_id)
                continue
            handle = labels.get(record_id)
            if handle is None:
                orphaned.append(record_id)
                self.tiering.cold.mark_repatriated(record_id)
                continue
            directory.keys.setdefault(record_id, handle)
            try:
                chain = VersionChain.from_versions(
                    record_id, self.tiering.open_cold_versions(record_id)
                )
            except Exception:  # noqa: BLE001 — torn/tampered cold member
                if record_id not in damaged:
                    damaged.append(record_id)
                # with an intact warm copy the record falls back warm
                self.tiering.cold.mark_repatriated(record_id)
                continue
            directory.set_cold(record_id, True)
            if record_id in directory.chains:
                # re-adopting re-tombstones the surviving warm copy
                home.adopt([(directory.chains[record_id], handle)], index=False)
            else:
                # the warm copy died with the crash; the cold member
                # alone restores the record
                cold_only.append((chain, handle))
                if record_id in damaged:
                    damaged.remove(record_id)
        home.adopt(cold_only)
        # a record the chain saw created that nothing above accounts for
        # lost its objects (a decayed WORM manifest names none)
        damaged.extend(sorted(
            created - set(directory.chains) - directory.disposed - moved_records - set(damaged)
        ))
        return RecoveryReport(
            records_recovered=len(directory.chains),
            versions_recovered=sum(len(chain) for chain in directory.chains.values()),
            audit_events=len(self.audit),
            disposed=tuple(disposed),
            damaged=tuple(damaged),
            orphaned=tuple(orphaned),
            migrated=tuple(sorted(migrated)),
            cold_records=tuple(sorted(directory.cold)),
        )
