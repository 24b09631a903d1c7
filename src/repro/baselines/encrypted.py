"""The encryption-at-rest baseline ("commercial solution").

Models the HIPAA products the paper cites: a relational store whose
rows are encrypted before hitting the device, under one store-wide key
held by the software stack.  Encryption is unauthenticated stream
encryption (disk-encryption style): confidentiality against the
outsider who steals the medium, and nothing else.

Failure modes the paper predicts, all reproduced here:

* the insider operates *above* the encryption layer (they hold the
  software's key), so their reads and tampering are unimpeded — the
  harness models this by giving the insider the store key;
* unauthenticated encryption means raw-device tampering is not
  *detected*, it just decrypts to different bytes;
* the keyword index must be usable by the query path, and in these
  products it was typically outside the encrypted tablespace —
  plaintext on device, leaking the vocabulary.
"""

from __future__ import annotations

import secrets

from repro.baselines.interface import StorageModel, VerificationReport
from repro.crypto.chacha20 import chacha20_xor
from repro.crypto.kdf import derive_key
from repro.errors import RecordNotFoundError, ValidationError
from repro.index.inverted import InvertedIndex
from repro.records.model import HealthRecord
from repro.storage.block import BlockDevice, MemoryDevice
from repro.storage.journal import Journal
from repro.util.encoding import canonical_bytes, canonical_loads


class EncryptedStore(StorageModel):
    """Relational semantics + store-wide unauthenticated encryption."""

    model_name = "encrypted"

    def __init__(self, store_key: bytes | None = None, capacity: int = 1 << 24) -> None:
        self._key = store_key or secrets.token_bytes(32)
        if len(self._key) != 32:
            raise ValidationError("store key must be 32 bytes")
        self._rows: dict[str, int] = {}  # record_id -> journal sequence
        self._journal = Journal(MemoryDevice("encrypted-dev", capacity))
        self._index = InvertedIndex(MemoryDevice("encrypted-idx", capacity))
        self._nonce_counter = 0

    def _seal(self, record: HealthRecord) -> bytes:
        self._nonce_counter += 1
        nonce = self._nonce_counter.to_bytes(12, "big")
        plaintext = canonical_bytes(record.to_dict())
        key = derive_key(self._key, "row-encryption")
        return nonce + chacha20_xor(key, nonce, plaintext)

    def _open(self, blob: bytes) -> HealthRecord:
        nonce, ciphertext = blob[:12], blob[12:]
        key = derive_key(self._key, "row-encryption")
        plaintext = chacha20_xor(key, nonce, ciphertext)
        return HealthRecord.from_dict(canonical_loads(plaintext))

    # -- core operations --------------------------------------------------------

    def store(self, record: HealthRecord, author_id: str) -> None:
        entry = self._journal.append(self._seal(record))
        self._rows[record.record_id] = entry.sequence
        self._index.add_document(record.record_id, record.searchable_text())

    def read(self, record_id: str, actor_id: str = "system") -> HealthRecord:
        sequence = self._rows.get(record_id)
        if sequence is None:
            raise RecordNotFoundError(f"no row {record_id}")
        return self._open(self._journal.read(sequence))

    def correct(self, corrected: HealthRecord, author_id: str, reason: str) -> None:
        old = self.read(corrected.record_id)
        self._index.remove_document(old.record_id, old.searchable_text())
        entry = self._journal.append(self._seal(corrected))
        self._rows[corrected.record_id] = entry.sequence
        self._index.add_document(corrected.record_id, corrected.searchable_text())

    def search(self, term: str, actor_id: str = "system") -> list[str]:
        return self._index.search(term)

    def dispose(self, record_id: str, *, actor_id: str = "system") -> None:
        record = self.read(record_id)
        self._index.remove_document(record_id, record.searchable_text())
        del self._rows[record_id]

    def record_ids(self) -> list[str]:
        return sorted(self._rows)

    # -- harness surfaces -----------------------------------------------------------

    def devices(self) -> list[BlockDevice]:
        return [self._journal.device, self._index.device]

    def verify_integrity(self) -> VerificationReport:
        """Unauthenticated encryption detects nothing: decrypting
        tampered ciphertext just yields different plaintext.  The best
        this model can report is rows that no longer *parse*."""
        failures = []
        for record_id, sequence in sorted(self._rows.items()):
            try:
                self._open(self._journal.read(sequence))
            except Exception:
                failures.append(record_id)
        return VerificationReport.from_violations(
            failures, mode="none", coverage="rows decrypt+parse; unauthenticated"
        )

    def declared_features(self) -> frozenset[str]:
        return frozenset({"correct", "dispose", "search", "encryption"})

    def insider_keys(self) -> dict[str, bytes]:
        """The store key lives in application configuration; the insider
        who administers the application has it."""
        return {"store_key": self._key}
