"""The Hippocratic-database baseline.

Models IBM's Hippocratic Database technology as the paper describes it
(§4, citing Johnson & Grandison): fine-grained access control by
transparently rewriting queries against disclosure policies, plus
compliance auditing of every access for future forensic analysis.

And its weakness, verbatim from the paper: "without underlying security
support, just defining semantics and enforcing them in a software query
processor still leaves things vulnerable to insider attacks with direct
disk access."  Concretely:

* rows and the audit log are plaintext journal entries — an insider
  with the device reads everything and can rewrite both data *and* the
  audit evidence (the log is an ordinary table, not a hash chain);
* policy enforcement exists only in the query path.

The rows themselves are :class:`~repro.baselines.relational.RelationalStore`'s:
the policy rewrite and the audit table sit on top of the same tablespace.
"""

from __future__ import annotations

from typing import Any

from repro.baselines.interface import VerificationReport
from repro.baselines.relational import RelationalStore
from repro.errors import AccessDeniedError
from repro.records.model import HealthRecord, RecordType
from repro.storage.block import BlockDevice, MemoryDevice
from repro.storage.journal import Journal
from repro.util.encoding import canonical_bytes, canonical_loads


class HippocraticStore(RelationalStore):
    """Query-rewriting access control + table-based compliance audit."""

    model_name = "hippocratic"

    # policy role -> record types the rewritten queries will return
    DEFAULT_POLICIES: dict[str, frozenset[RecordType]] = {
        "clinical": frozenset(RecordType),
        "billing": frozenset({RecordType.ENCOUNTER, RecordType.INSURANCE_CLAIM}),
        "research": frozenset(),
    }

    def __init__(self, capacity: int = 1 << 24) -> None:
        super().__init__(capacity)
        self._audit_journal = Journal(MemoryDevice("hippocratic-audit", capacity))
        self._policies = dict(self.DEFAULT_POLICIES)
        self._actor_roles: dict[str, str] = {}
        self._opted_out_patients: set[str] = set()

    # -- policy administration ------------------------------------------------

    def assign_role(self, actor_id: str, policy_role: str) -> None:
        if policy_role not in self._policies:
            raise AccessDeniedError(f"unknown policy role {policy_role!r}")
        self._actor_roles[actor_id] = policy_role

    def opt_out_patient(self, patient_id: str) -> None:
        """Disclosure limitation: the patient's rows vanish from
        rewritten queries for non-clinical users."""
        self._opted_out_patients.add(patient_id)

    def _allowed_types(self, actor_id: str) -> frozenset[RecordType]:
        role = self._actor_roles.get(actor_id, "clinical")
        return self._policies[role]

    def _visible(self, record: HealthRecord, actor_id: str) -> bool:
        if record.record_type not in self._allowed_types(actor_id):
            return False
        role = self._actor_roles.get(actor_id, "clinical")
        if record.patient_id in self._opted_out_patients and role != "clinical":
            return False
        return True

    def _log(self, actor_id: str, action: str, subject: str) -> None:
        row = {
            "actor": actor_id,
            "action": action,
            "subject": subject,
            "seq": len(self._audit_journal),
        }
        self._audit_journal.append(canonical_bytes(row))

    # -- core operations ----------------------------------------------------------

    def store(self, record: HealthRecord, author_id: str) -> None:
        super().store(record, author_id)
        self._log(author_id, "insert", record.record_id)

    def store_many(self, records: list[HealthRecord], author_id: str) -> int:
        """Batched insert fast path.

        Same rows, row directory, index postings, and audit rows as the
        scalar loop — but the row frames, the cleartext index frames,
        and the audit rows each land in one batched journal flush
        instead of one device write per row/term/event.
        """
        if not records:
            return 0
        entries = self._journal.append_many(
            [
                canonical_bytes(
                    {"op": "insert", "row": record.to_dict(), "by": author_id}
                )
                for record in records
            ]
        )
        for record, entry in zip(records, entries):
            self._row_directory[record.record_id] = entry.sequence
        self._index.add_documents(
            [(record.record_id, record.searchable_text()) for record in records]
        )
        base = len(self._audit_journal)
        self._audit_journal.append_many(
            [
                canonical_bytes(
                    {
                        "actor": author_id,
                        "action": "insert",
                        "subject": record.record_id,
                        "seq": base + i,
                    }
                )
                for i, record in enumerate(records)
            ]
        )
        return len(records)

    def read(self, record_id: str, actor_id: str = "system") -> HealthRecord:
        record = self._row(record_id)
        if not self._visible(record, actor_id):
            self._log(actor_id, "denied", record_id)
            raise AccessDeniedError(
                f"policy rewrite excludes {record_id} for {actor_id}"
            )
        self._log(actor_id, "read", record_id)
        return record

    def correct(self, corrected: HealthRecord, author_id: str, reason: str) -> None:
        self.read(corrected.record_id, actor_id=author_id)
        super().correct(corrected, author_id, reason)
        self._log(author_id, "update", corrected.record_id)

    def search(self, term: str, actor_id: str = "system") -> list[str]:
        hits = self._index.search(term)
        visible = []
        for record_id in hits:
            sequence = self._row_directory.get(record_id)
            if sequence is None:
                continue
            if self._visible(self._load_row(sequence), actor_id):
                visible.append(record_id)
        self._log(actor_id, "search", term)
        return visible

    def dispose(self, record_id: str, *, actor_id: str = "system") -> None:
        super().dispose(record_id, actor_id=actor_id)
        self._log(actor_id, "delete", record_id)

    # -- harness surfaces --------------------------------------------------------------

    def devices(self) -> list[BlockDevice]:
        return [self._journal.device, self._audit_journal.device, self._index.device]

    def audit_events(self) -> list[dict[str, Any]]:
        """Read back from the audit table on disk — which is exactly
        what an insider with device access may have rewritten."""
        events = []
        for payload in self._audit_journal.read_all():
            events.append(canonical_loads(payload))
        return events

    def audit_devices(self) -> list[BlockDevice]:
        return [self._audit_journal.device]

    def verify_audit_trail(self) -> VerificationReport | None:
        """The audit table has no integrity protection beyond the unkeyed
        frame checksum a smart insider recomputes — rereading succeeds
        whatever an insider wrote there."""
        try:
            self._audit_journal.read_all()
        except Exception:
            # only clumsy (checksum-breaking) tampering shows
            return VerificationReport.failed(
                ["audit-table"], mode="none", coverage="frame checksums only"
            )
        return VerificationReport.passed(
            mode="none", coverage="frame checksums only"
        )

    def prepare_access_probe(self, actor_id: str) -> None:
        """The probe actor gets the restrictive 'research' policy role —
        the mechanism this model actually uses to limit disclosure."""
        self.assign_role(actor_id, "research")

    def declared_features(self) -> frozenset[str]:
        return frozenset({"correct", "dispose", "search", "audit", "access_control"})
