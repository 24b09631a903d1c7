"""The plain compliance-WORM baseline.

Models "the most promising technology" of the paper's survey *as it
shipped*: write-once media with retention enforcement and content
digests — but none of the research extensions the paper says are still
needed.  Specifically it has:

* write-once records with retention terms (premature deletion refused);
* per-object digests, so raw tampering is detected;

and it lacks, reproducing the paper's criticisms:

* corrections — "compliance WORM storage is mainly suitable for records
  that do not require corrections"; :meth:`correct` raises;
* a trustworthy index — search uses a plaintext inverted index;
* hash-chained audit and provenance — nothing is logged;
* secure disposal — expired objects are tombstoned, bytes remain.
"""

from __future__ import annotations

from repro.baselines.interface import (
    StorageModel,
    UnsupportedOperation,
    VerificationReport,
)
from repro.index.inverted import InvertedIndex
from repro.records.model import HealthRecord
from repro.retention.policy import STANDARD_POLICY, RetentionPolicy
from repro.storage.block import BlockDevice, MemoryDevice
from repro.util.clock import Clock, WallClock
from repro.util.encoding import canonical_bytes, canonical_loads
from repro.worm.store import WormStore


class PlainWormStore(StorageModel):
    """Compliance WORM without the hybrid extensions."""

    model_name = "plainworm"

    def __init__(
        self,
        clock: Clock | None = None,
        policy: RetentionPolicy = STANDARD_POLICY,
        capacity: int = 1 << 24,
    ) -> None:
        self._clock = clock or WallClock()
        self._policy = policy
        self._worm = WormStore(device=MemoryDevice("pworm-dev", capacity), clock=self._clock)
        self._index = InvertedIndex(MemoryDevice("pworm-idx", capacity))

    # -- core operations ------------------------------------------------------

    def store(self, record: HealthRecord, author_id: str) -> None:
        term = self._policy.term_for(record.record_type, self._clock.now())
        self._worm.put(record.record_id, canonical_bytes(record.to_dict()), retention=term)
        self._index.add_document(record.record_id, record.searchable_text())

    def read(self, record_id: str, actor_id: str = "system") -> HealthRecord:
        data = self._worm.get(record_id)
        return HealthRecord.from_dict(canonical_loads(data))

    def correct(self, corrected: HealthRecord, author_id: str, reason: str) -> None:
        raise UnsupportedOperation(
            "WORM records are immutable and this store has no version-chain "
            "support; corrections are not possible"
        )

    def search(self, term: str, actor_id: str = "system") -> list[str]:
        return self._index.search(term)

    def dispose(self, record_id: str, *, actor_id: str = "system") -> None:
        """Retention-gated tombstoning; the bytes stay on the medium
        (and there is no audit trail to attribute *actor_id* into)."""
        record = self.read(record_id)
        self._worm.delete(record_id)  # raises RetentionError inside term
        self._index.remove_document(record_id, record.searchable_text())

    def record_ids(self) -> list[str]:
        return self._worm.object_ids()

    # -- harness surfaces ----------------------------------------------------------

    def devices(self) -> list[BlockDevice]:
        return [self._worm.device, self._index.device]

    def verify_integrity(self) -> VerificationReport:
        return VerificationReport.from_violations(
            self._worm.verify_all(), coverage="per-object digests"
        )

    def declared_features(self) -> frozenset[str]:
        return frozenset({"dispose", "search", "integrity", "retention"})

