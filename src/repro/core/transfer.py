"""Patient transfer: moving one patient's whole history between engines
(online cluster rebalancing).

:class:`PatientTransfer` exports a patient as a key-independent
:class:`~repro.migration.bundle.PatientBundle`, imports one — through
the same :meth:`~repro.core.home.RecordHome.write` /
:meth:`~repro.core.home.RecordHome.adopt` pair as a fresh store — and
retires the source copy.  It owns the audit-chain segments that arrive
with imported patients (and their cutover-tail deltas), which is what
lets the accounting of disclosures follow a patient across moves.

Its public methods are the move protocol: the cluster's rebalancer
calls them as ``engine.transfer.<name>``, through the worker pipe when
a shard is a process.  Its markers reach the chain through the engine's
:class:`~repro.audit.anchors.AnchorSchedule`, like every other event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.access.breakglass import BreakGlassController
from repro.access.policies import ConsentRegistry
from repro.access.principals import Workforce
from repro.audit.anchors import AnchorSchedule
from repro.audit.events import AuditAction
from repro.audit.log import AuditLog
from repro.core.home import RecordHome
from repro.core.tiering import Tiering
from repro.crypto.hashing import sha256
from repro.crypto.keys import KeyStore
from repro.crypto.signatures import SignedPayload
from repro.errors import IntegrityError, MigrationError, RecordNotFoundError
from repro.migration.bundle import AttachmentBundle, PatientBundle, RecordBundle
from repro.migration.manifest import build_entries_manifest
from repro.records.ids import (
    attachment_object_id,
    segment_id,
    subject_record,
    version_id,
)
from repro.records.versioning import RecordVersion, VersionChain
from repro.util.encoding import canonical_bytes
from repro.util.metrics import METRICS
from repro.worm.retention_lock import RetentionTerm

Entries = tuple[tuple[str, bytes], ...]


@dataclass
class ImportedSegment:
    """The audit-chain segment that migrated in with one patient: the
    events predate this engine's own log but still belong in the
    patient's accounting of disclosures.  The durable copies live in
    the WORM ``objects`` (plaintext, like the audit device itself), so
    the history survives an engine restart."""

    source: str = ""
    attestation: SignedPayload | None = None
    events: list[dict] = field(default_factory=list)
    delta: list[dict] = field(default_factory=list)
    objects: list[str] = field(default_factory=list)


@dataclass(eq=False, repr=False, kw_only=True)
class PatientTransfer:
    """Export / import / retire, and the imported-segment plumbing."""

    home: RecordHome
    tiering: Tiering
    keystore: KeyStore
    audit: AuditLog
    anchors: AnchorSchedule
    consent: ConsentRegistry
    breakglass: BreakGlassController
    workforce: Workforce
    #: patient id -> the segment that migrated in with them
    segments: dict[str, ImportedSegment] = field(default_factory=dict)

    # -- the patient's history, read straight off the devices ------------------

    def _history(
        self, patient_id: str
    ) -> Iterator[tuple[str, list[RecordVersion], list[tuple[str, bytes]]]]:
        """Per live record of the patient: every version and every
        attachment, decrypted straight off the WORM store (a cold record
        is recalled first)."""
        for record_id in self.home.directory.records_of_patient(patient_id):
            versions = [
                self.tiering.open_version(record_id, n)
                for n in range(len(self.home.directory.chains[record_id]))
            ]
            attachments = [
                (attachment_id, self.home.read_attachment(record_id, attachment_id))
                for attachment_id in sorted(self.home.directory.attachments.get(record_id, {}))
            ]
            yield record_id, versions, attachments

    @staticmethod
    def _entries(
        record_id: str,
        versions: list[RecordVersion],
        attachments: list[tuple[str, bytes]],
    ) -> list[tuple[str, bytes]]:
        """Manifest entries — plaintext digests, key-independent."""
        return [
            (version_id(record_id, n), sha256(canonical_bytes(version.to_dict())))
            for n, version in enumerate(versions)
        ] + [
            (attachment_object_id(record_id, attachment_id), sha256(data))
            for attachment_id, data in attachments
        ]

    def patient_history_digests(self, patient_id: str) -> Entries:
        """Freshly recomputed plaintext digests of every extent of one
        patient's history, decrypted straight off the WORM store — the
        verification primitive behind the double-read cutover.  The
        shape matches :class:`~repro.migration.manifest.MigrationManifest`
        entries exactly."""
        entries: list[tuple[str, bytes]] = []
        for history in self._history(patient_id):
            entries += self._entries(*history)
        return tuple(sorted(entries))

    def export_audit_delta(self, patient_id: str, *, since: int = 0) -> list[dict]:
        """Audit events about the patient's records (or their
        attachments) appended after log size *since* — the tail the
        cutover syncs to the destination so reads served mid-move still
        reach the accounting."""
        wanted = set(self.home.directory.records_of_patient(patient_id))
        return [
            event.to_dict()
            for event in self.audit.events()[since:]
            if subject_record(event.subject_id) in wanted
        ]

    def imported_segment(self, patient_id: str) -> ImportedSegment | None:
        """The segment that migrated in with *patient_id* (``None`` if
        the patient never moved here): ``events`` is the export-time
        snapshot the source's ``attestation`` signs."""
        return self.segments.get(patient_id)

    def imported_events(self, patient_id: str) -> list[dict]:
        """The audit segment (snapshot + cutover delta) that migrated in
        with *patient_id* (empty if the patient never moved here)."""
        segment = self.segments.get(patient_id)
        return [] if segment is None else [*segment.events, *segment.delta]

    # -- export ------------------------------------------------------------------

    def export_patient_history(
        self, patient_id: str, *, actor_id: str = "system"
    ) -> PatientBundle:
        """Package one patient's full history for migration to another
        shard: version plaintexts, attachments, retention terms and
        holds, the audit-chain segment, a signed Merkle manifest over
        the plaintext digests, and a chain-continuity attestation.

        Read-only apart from the ``MIGRATION_STARTED`` audit event:
        every version is decrypted straight off the WORM store and
        checked against its chain digest before it is allowed into the
        bundle (the first read of the double-read cutover)."""
        record_ids = self.home.directory.records_of_patient(patient_id)
        if not record_ids:
            raise RecordNotFoundError(f"no live records for patient {patient_id}")
        retention = self.home.worm.retention
        entries: list[tuple[str, bytes]] = []
        records: list[RecordBundle] = []
        for record_id, versions, attachments in self._history(patient_id):
            chain = self.home.directory.chains[record_id]
            terms: list[tuple[str, float, float]] = []
            holds: list[tuple[str, tuple[str, ...]]] = []
            for n, stored in enumerate(versions):
                object_id = version_id(record_id, n)
                if stored.digest() != chain.version(n).digest():
                    raise IntegrityError(
                        f"version {object_id} does not match its chain; "
                        "refusing to export a tampered history"
                    )
                term = retention.term_for(object_id)
                terms.append((object_id, term.start, term.duration_seconds))
                held = retention.holds_on(object_id)
                if held:
                    holds.append((object_id, tuple(sorted(held))))
            bundles: list[AttachmentBundle] = []
            for attachment_id, data in attachments:
                manifest = self.home.directory.attachments[record_id][attachment_id]
                # the chunks share one term; the first speaks for all
                term = retention.term_for(
                    attachment_object_id(record_id, manifest.chunk_ids[0])
                )
                bundles.append(
                    AttachmentBundle(
                        attachment_id=attachment_id,
                        content_type=manifest.content_type,
                        data=data,
                        term=(term.start, term.duration_seconds),
                    )
                )
            entries += self._entries(record_id, versions, attachments)
            records.append(
                RecordBundle(
                    record_id=record_id,
                    versions=tuple(version.to_dict() for version in versions),
                    terms=tuple(terms),
                    holds=tuple(holds),
                    attachments=tuple(bundles),
                )
            )
        # any segment an earlier move brought here goes first, so
        # custody chains across repeated moves
        segment = self.imported_events(patient_id) + self.export_audit_delta(patient_id)
        now = self.home.clock.now()
        manifest = build_entries_manifest(entries, self.home.signer, now)
        attestation = self.home.signer.sign(
            {
                "kind": "segment-attestation",
                "patient": patient_id,
                "source": self.home.site_id,
                "segment_digest": sha256(canonical_bytes(segment)),
                "events": len(segment),
                "chain_head": self.audit.head_digest,
                "log_size": len(self.audit),
                "exported_at": now,
            }
        )
        self.anchors.append(
            AuditAction.MIGRATION_STARTED,
            actor_id,
            patient_id,
            {
                "migration": "export",
                "patient": patient_id,
                "records": list(record_ids),
                "objects": len(entries),
            },
        )
        METRICS.incr("patient_exports")
        return PatientBundle(
            patient_id=patient_id,
            source_id=self.home.site_id,
            exported_at=now,
            records=tuple(records),
            segment=tuple(segment),
            attestation=attestation,
            manifest=manifest,
        )

    def export_access_state(self, patient_id: str) -> tuple[tuple, tuple]:
        """``(consent directives, live break-glass grants)`` of the
        patient, for transfer at cutover: authorization must give one
        answer no matter where the patient lives."""
        return (
            tuple(self.consent.directives_for(patient_id)),
            self.breakglass.active_grants(patient_id),
        )

    # -- import ------------------------------------------------------------------

    def import_patient_history(
        self, bundle: PatientBundle, *, actor_id: str = "system"
    ) -> Entries:
        """Adopt a migrated patient: re-seal every version and
        attachment under this shard's keys, restore the original
        retention terms and holds, archive the imported audit-chain
        segment, and append the durable ``MIGRATION_COMPLETED`` import
        marker.

        The whole patient lands in ONE WORM batch frame alongside the
        segment archive, so a crash mid-import leaves *nothing* of the
        patient here — there is no partially-imported state to salvage.
        Returns the destination's freshly recomputed plaintext digests
        (the second read of the double-read cutover)."""
        patient_id = bundle.patient_id
        for record_id in bundle.record_ids:
            if record_id in self.home.directory.chains or record_id in self.home.directory.disposed:
                raise MigrationError(
                    f"record {record_id} already exists on this shard; "
                    "refusing a dual-home import"
                )
        if patient_id in self.segments:
            raise MigrationError(
                f"patient {patient_id} already has an imported segment here"
            )
        expected = dict(bundle.manifest.entries)
        chains: list[VersionChain] = []
        for record_bundle in bundle.records:
            versions = [RecordVersion.from_dict(d) for d in record_bundle.versions]
            for version in versions:
                object_id = version_id(record_bundle.record_id, version.version_number)
                digest = sha256(canonical_bytes(version.to_dict()))
                if expected.get(object_id) != digest:
                    raise MigrationError(
                        f"bundle version {object_id} does not match its "
                        "manifest entry"
                    )
            # from_versions re-verifies the hash linkage end to end
            chains.append(VersionChain.from_versions(record_bundle.record_id, versions))
        handles = self.keystore.create_keys(list(bundle.record_ids))
        # attachments: chunk + seal in memory so the chunks ride the
        # same all-or-nothing batch frame as the versions
        chunks = []
        manifests: dict[str, dict] = {}
        for record_bundle, handle in zip(bundle.records, handles):
            for attachment in record_bundle.attachments:
                manifest, items = self.home.stage_attachment(
                    record_bundle.record_id,
                    handle,
                    attachment.attachment_id,
                    attachment.data,
                    attachment.content_type,
                    RetentionTerm(*attachment.term),
                )
                chunks += items
                manifests.setdefault(record_bundle.record_id, {})[
                    attachment.attachment_id
                ] = manifest
        segment = ImportedSegment(
            source=bundle.source_id,
            attestation=bundle.attestation,
            events=[dict(event) for event in bundle.segment],
            objects=[segment_id(patient_id, bundle.exported_at)],
        )
        archive = canonical_bytes(
            {
                "patient": patient_id,
                "source": segment.source,
                "events": segment.events,
                "attestation": bundle.attestation.to_dict(),
            }
        )
        self.audit.begin_batch()
        try:
            self.home.write(
                [
                    (version, handle)
                    for chain, handle in zip(chains, handles)
                    for version in chain
                ],
                chunks,
                [(segment.objects[0], archive, None)],
                terms={
                    object_id: RetentionTerm(start, duration)
                    for record_bundle in bundle.records
                    for object_id, start, duration in record_bundle.terms
                },
                origin=f"migrated from {bundle.source_id}",
            )
            self.home.directory.attachments.update(manifests)
            self.home.adopt(list(zip(chains, handles)))
            for chain in chains:
                for version in chain:
                    # re-establish the treating relationship the record
                    # documents, so policy decisions survive the move
                    self.workforce.note_author(version.author_id, patient_id)
            for record_bundle in bundle.records:
                for object_id, hold_ids in record_bundle.holds:
                    for hold_id in hold_ids:
                        self.home.worm.retention.place_hold(object_id, hold_id)
            self.segments[patient_id] = segment
            self.anchors.append(
                AuditAction.MIGRATION_COMPLETED,
                actor_id,
                patient_id,
                {
                    "migration": "import",
                    "patient": patient_id,
                    "source": bundle.source_id,
                    "records": list(bundle.record_ids),
                },
            )
        finally:
            self.audit.commit()
        METRICS.incr("patient_imports")
        return self.patient_history_digests(patient_id)

    def adopt_audit_delta(self, patient_id: str, events: list[dict]) -> int:
        """Append cutover-tail events to an imported segment (and its
        durable WORM archive)."""
        segment = self.segments.get(patient_id)
        if segment is None:
            raise MigrationError(f"patient {patient_id} has no imported segment here")
        events = [dict(event) for event in events]
        if not events:
            return 0
        segment.delta.extend(events)
        object_id = segment_id(patient_id, self.home.clock.now(), delta=True)
        self.home.worm.put(
            object_id, canonical_bytes({"patient": patient_id, "events": events})
        )
        segment.objects.append(object_id)
        return len(events)

    def restore_segment(self, object_id: str, payload: dict) -> None:
        """Re-adopt one durable segment archive found on a recovered
        WORM device (the snapshot carries the attestation; anything
        else is a cutover-tail delta)."""
        segment = self.segments.setdefault(payload["patient"], ImportedSegment())
        if "attestation" in payload:
            segment.events = list(payload["events"])
            segment.source = payload.get("source", "")
            segment.attestation = SignedPayload.from_dict(payload["attestation"])
        else:
            segment.delta.extend(payload["events"])
        segment.objects.append(object_id)

    def adopt_access_state(self, patient_id: str, state: tuple[tuple, tuple]) -> None:
        """Adopt the access state that migrated in with a patient
        (skipping directive ids this registry already knows)."""
        directives, grants = state
        known = {
            directive.directive_id
            for directive in self.consent.directives_for(patient_id)
        }
        for directive in directives:
            if directive.directive_id not in known:
                self.consent.add_directive(patient_id, directive)
        self.breakglass.adopt(grants)

    # -- retire ------------------------------------------------------------------

    def retire_patient(
        self,
        patient_id: str,
        *,
        actor_id: str = "system",
        destination_id: str = "",
    ) -> tuple[str, ...]:
        """Drop this shard's copy of a patient whose custody moved away.

        The durable ``CUSTODY_TRANSFERRED`` export marker hits the audit
        device *first*: recovery replays the log, so once the marker is
        down the records below can never resurrect as a second home.
        The WORM extents are expatriated (tombstoned without a retention
        check — the data lives on at the destination under its original
        terms), not destroyed."""
        record_ids = self.home.directory.records_of_patient(patient_id)
        if not record_ids:
            raise RecordNotFoundError(f"no live records for patient {patient_id}")
        self.anchors.append(
            AuditAction.CUSTODY_TRANSFERRED,
            actor_id,
            patient_id,
            {
                "migration": "export",
                "patient": patient_id,
                "records": list(record_ids),
                "destination": destination_id,
            },
        )
        worm = self.home.worm
        for record_id in record_ids:
            for object_id in self.home.directory.objects_of(record_id):
                worm.expatriate(object_id)
                self.home.custody.expatriate(object_id)
            self.home.directory.forget(record_id)
            self.home.index.delete_document(record_id)
        segment = self.segments.pop(patient_id, None)
        for object_id in segment.objects if segment else ():
            worm.expatriate(object_id)
        self.consent.release(patient_id)
        self.breakglass.release(patient_id)
        METRICS.incr("patient_retires")
        return tuple(record_ids)
