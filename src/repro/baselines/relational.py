"""The conventional relational-database baseline.

Models a 2007-era clinical RDBMS deployment: rows are plaintext journal
entries on the device (the "tablespace"), located through an in-memory
row directory, with a plaintext inverted index for text search.
Characteristics the paper calls out (§4):

* "geared more towards performance rather than security" — writes are
  a single journal append, reads one frame fetch; the fastest model in
  E2;
* updates happen in place (corrections are trivial — and so is silent
  history rewriting);
* deletion is unconditional — nothing enforces retention;
* no integrity machinery: the only on-disk check is the journal's
  unkeyed frame checksum, which a knowledgeable insider recomputes;
* everything on the device is plaintext, including the index.
"""

from __future__ import annotations

from repro.baselines.interface import StorageModel, VerificationReport
from repro.errors import RecordNotFoundError
from repro.index.inverted import InvertedIndex
from repro.records.model import HealthRecord
from repro.storage.block import BlockDevice, MemoryDevice
from repro.storage.journal import Journal
from repro.util.encoding import canonical_bytes, canonical_loads


class RelationalStore(StorageModel):
    """Mutable-row store with plaintext persistence."""

    model_name = "relational"

    def __init__(self, capacity: int = 1 << 24) -> None:
        self._row_directory: dict[str, int] = {}  # record_id -> journal sequence
        self._journal = Journal(MemoryDevice(f"{self.model_name}-dev", capacity))
        self._index = InvertedIndex(MemoryDevice(f"{self.model_name}-idx", capacity))

    def _load_row(self, sequence: int) -> HealthRecord:
        payload = canonical_loads(self._journal.read(sequence))
        return HealthRecord.from_dict(payload["row"])

    def _row(self, record_id: str) -> HealthRecord:
        sequence = self._row_directory.get(record_id)
        if sequence is None:
            raise RecordNotFoundError(f"no row {record_id}")
        return self._load_row(sequence)

    # -- core operations ---------------------------------------------------

    def store(self, record: HealthRecord, author_id: str) -> None:
        entry = self._journal.append(
            canonical_bytes({"op": "insert", "row": record.to_dict(), "by": author_id})
        )
        self._row_directory[record.record_id] = entry.sequence
        self._index.add_document(record.record_id, record.searchable_text())

    def read(self, record_id: str, actor_id: str = "system") -> HealthRecord:
        return self._row(record_id)

    def correct(self, corrected: HealthRecord, author_id: str, reason: str) -> None:
        """UPDATE — the row directory moves to the new value; the old
        journal frame is garbage awaiting vacuum."""
        old = self._row(corrected.record_id)
        self._index.remove_document(old.record_id, old.searchable_text())
        entry = self._journal.append(
            canonical_bytes(
                {"op": "update", "row": corrected.to_dict(), "by": author_id, "why": reason}
            )
        )
        self._row_directory[corrected.record_id] = entry.sequence
        self._index.add_document(corrected.record_id, corrected.searchable_text())

    def search(self, term: str, actor_id: str = "system") -> list[str]:
        return self._index.search(term)

    def dispose(self, record_id: str, *, actor_id: str = "system") -> None:
        """DELETE — unconditional, no retention check, bytes remain in
        the journal history."""
        record = self._row(record_id)
        self._index.remove_document(record_id, record.searchable_text())
        del self._row_directory[record_id]
        self._journal.append(canonical_bytes({"op": "delete", "id": record_id}))

    def record_ids(self) -> list[str]:
        return sorted(self._row_directory)

    # -- harness surfaces ------------------------------------------------------

    def devices(self) -> list[BlockDevice]:
        return [self._journal.device, self._index.device]

    def verify_integrity(self) -> VerificationReport:
        """A plain RDBMS has no record-level integrity evidence; the best
        it can do is report rows that no longer parse at all."""
        failures = []
        for record_id, sequence in sorted(self._row_directory.items()):
            try:
                self._load_row(sequence)
            except Exception:
                failures.append(record_id)
        return VerificationReport.from_violations(
            failures, mode="none", coverage="rows parse; no integrity evidence"
        )

    def declared_features(self) -> frozenset[str]:
        return frozenset({"correct", "dispose", "search"})
