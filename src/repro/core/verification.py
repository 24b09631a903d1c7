"""Verification: the engine's integrity and audit-trail verdicts, and
the two audit products a third party consumes — a patient's accounting
of disclosures and a proof of one audit event."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.access.rbac import Permission
from repro.audit.anchors import AnchorSchedule
from repro.audit.events import AuditAction, AuditEvent
from repro.audit.log import AuditLog
from repro.audit.query import AuditQuery, disclosures
from repro.baselines.interface import VerificationReport
from repro.core.access import Access
from repro.core.home import RecordHome
from repro.core.tiering import Tiering
from repro.core.transfer import PatientTransfer
from repro.records.ids import DISCLOSURES, parse
from repro.records.versioning import VersionChain
from repro.util.metrics import METRICS
from repro.util.rotation import Rotation


@dataclass(eq=False, repr=False, kw_only=True)
class Verification:
    """Integrity and audit-trail verdicts over one engine's records."""

    home: RecordHome
    tiering: Tiering
    transfer: PatientTransfer
    access: Access
    audit: AuditLog
    anchors: AnchorSchedule
    #: Clean records (and clean WORM objects and cold members) each
    #: incremental pass revisits.
    clean_sample: int
    clean_records: Rotation = field(default_factory=Rotation)

    def _check_record_chain(self, record_id: str) -> bool:
        """Decrypt + re-chain every version of one record, from whichever
        tier holds it (cold members are checked in place, not recalled)."""
        try:
            VersionChain.from_versions(
                record_id, self.tiering.stored_versions(record_id)
            )
            return True
        except Exception:  # noqa: BLE001 — any failure implicates the record
            return False

    def _blamed(self, object_ids: list[str]) -> set[str]:
        """The records that own failing WORM objects: the directory's
        owner, else (a record that did not open on a restart) the record
        the id names.  An object no record owns — a segment archive — is
        blamed under its own id."""
        owner = self.home.directory.owner_of
        return {owner(oid) or parse(oid).owner or oid for oid in object_ids}

    def verify_integrity(self, incremental: bool = False) -> VerificationReport:
        """Integrity verdict; ``report.violations`` carries the record
        ids implicated by any failure (plus ``"<index>"`` when the
        posting lists fail authentication).

        ``incremental=True`` checks only the WORM objects, cold segments
        and records touched since the last full pass, plus a rotating
        sample of clean ones (:attr:`clean_sample` per pass in each of
        the three) so silent bit-rot in already-verified data is still
        revisited on a bounded cycle.  The full pass is the same sweep
        with nothing trusted: every live entry dirty and no clean
        sample, so it digest-checks every version object and cold
        member, re-chains every record, and authenticates every posting
        list.
        """
        directory, worm, cold = self.home.directory, self.home.worm, self.tiering.cold
        mode = "incremental" if incremental else "full"
        sample = self.clean_sample if incremental else 0
        with METRICS.timer(f"engine_integrity_{mode}_ns"):
            live = directory.record_ids()
            dirty_records = directory.dirty
            if incremental:
                failures = self._blamed(worm.verify_dirty(clean_sample=sample))
                failures.update(cold.verify_dirty(clean_sample=sample))
            else:
                failures = self._blamed(worm.verify_all())
                failures.update(cold.verify_all())
                dirty_records.update(live)
                self.clean_records.reset()
            dirty = [r for r in live if r in dirty_records]
            clean = [r for r in live if r not in dirty_records]
            to_check = dirty + self.clean_records.take(clean, sample)
            for record_id in to_check:
                if self._check_record_chain(record_id):
                    dirty_records.discard(record_id)
                else:
                    failures.add(record_id)
                    dirty_records.add(record_id)
            METRICS.incr("engine_integrity_records_checked", len(to_check))
        METRICS.incr(f"engine_integrity_{mode}_runs")
        if incremental:
            coverage = (
                f"{len(dirty)} dirty + {len(to_check) - len(dirty)} sampled record(s)"
            )
        else:
            # A clean full pass verified everything; failures stay dirty.
            directory.dirty = {r for r in failures if r in directory.chains}
            coverage = f"all {len(live)} record(s), every worm object"
        if self.home.index.verify():
            failures.add("<index>")
        return VerificationReport.from_violations(
            sorted(failures), mode=mode, coverage=coverage
        )

    def verify_audit_trail(self, incremental: bool = False) -> VerificationReport:
        """The audit chain replayed from its device, and checked against
        what the anchor witnesses hold (truncation, rewritten history)."""
        violations: list[str] = []
        chain = self.audit.verify_chain(incremental=incremental)
        if not chain:
            violations.append("audit-chain")
        try:
            self.anchors.check_log()
        except Exception:
            violations.append("audit-anchors")
        return VerificationReport.from_violations(
            violations,
            mode=chain.mode if incremental else "full",
            coverage=f"{len(self.audit)} event(s), "
            f"{len(self.anchors.witnesses)} witness(es)",
        )

    def accounting_of_disclosures(self, patient_id: str, *, actor_id: str):
        """The HIPAA accounting-of-disclosures report for one patient:
        every access-class event over their record set, from a verified
        audit trail.  The request itself is authorized and audited."""
        with self.access.audited(
            AuditAction.ACCESS_GRANTED, actor_id, Permission.READ_AUDIT_TRAIL,
            patient_id, None, f"{DISCLOSURES}{patient_id}",
        ):
            record_ids = self.home.directory.records_of_patient(patient_id)
            local = AuditQuery(self.audit).disclosure_accounting(record_ids)
            # if the patient migrated here, access events that predate
            # this shard's log arrived as the imported audit-chain
            # segment and belong in the same accounting
            imported = disclosures(
                map(AuditEvent.from_dict, self.transfer.imported_events(patient_id)),
                record_ids,
            )
        if not imported:
            return local
        return sorted([*local, *imported], key=lambda e: (e.timestamp, e.sequence))

    def prove_audit_event(self, sequence: int):
        """Third-party-verifiable disclosure of one audit event.

        Publishes a fresh anchor if the event is not yet covered by one,
        then returns ``(event, chain_prev, proof, anchor)``; a verifier
        needs only the witnessed anchor (see
        :func:`repro.audit.log.verify_event_proof`).
        """
        latest = self.anchors.witness.latest()
        if latest is None or latest.log_size <= sequence:
            latest = self.anchors.publish()
        event, chain_prev, proof = self.audit.prove_event(
            sequence, at_size=latest.log_size
        )
        return event, chain_prev, proof, latest
