"""The record directory: trusted controller metadata, off-device.

One object owns what the engine knows about each record — its version
chain, data-key handle, attachment manifests, tier, disposal and dirty
state, last authorized touch, and the decrypted-read cache — plus the
two indexes that make ownership a lookup instead of a string split:
patient → records and object id → record.  A record's object ids are
*built* from its chain and manifests (:mod:`repro.records.ids`); which
record owns a given object is *looked up* here, never parsed back out
of the id.

The read cache is purged in exactly one place (:meth:`purge`), reached
from every transition that changes or kills a record's current
version: :meth:`own`, :meth:`set_cold`, :meth:`mark_disposed`,
:meth:`forget`.

Pure state: no device, no key material, no collaborators.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.crypto.keys import KeyHandle
from repro.errors import RecordNotFoundError
from repro.records.attachments import AttachmentManifest
from repro.records.ids import attachment_object_id, version_id
from repro.records.model import HealthRecord
from repro.records.versioning import VersionChain


class RecordDirectory:
    """What this engine knows about the records it is home to."""

    def __init__(self, read_cache_size: int = 0) -> None:
        self.chains: dict[str, VersionChain] = {}
        self.keys: dict[str, KeyHandle] = {}
        self.attachments: dict[str, dict[str, AttachmentManifest]] = {}
        # Chunk objects recovered from a device after their manifests
        # died with the process: unreadable, but still the record's to
        # retain and destroy.
        self.orphan_chunks: dict[str, list[str]] = {}
        self.disposed: set[str] = set()
        # Records whose authoritative copy is cold (warm extents are
        # expatriated tombstones until recall re-admits them).
        self.cold: set[str] = set()
        # Records touched since the last full verify_integrity — the
        # incremental integrity path re-chains these plus a rotating
        # sample of clean records.
        self.dirty: set[str] = set()
        # Last authorized touch per record — what the demotion policy's
        # idleness rule evaluates.  Honestly process-memory: a recovered
        # engine starts everything idle.
        self.last_access: dict[str, float] = {}
        # Decrypted-and-verified current versions (record_id -> (version
        # number, record)).  Authorization and audit always run; only
        # the WORM fetch + AEAD decrypt are skipped on a hit.
        self.read_cache: OrderedDict[str, tuple[int, HealthRecord]] = OrderedDict()
        self._read_cache_size = read_cache_size
        self._patient_of: dict[str, str] = {}
        self._by_patient: dict[str, set[str]] = {}
        self._owner: dict[str, str] = {}

    # -- lookups -----------------------------------------------------------

    def chain_for(self, record_id: str) -> VersionChain:
        """The chain of a live record; raises for unknown or disposed."""
        chain = self.chains.get(record_id)
        if chain is None:
            raise RecordNotFoundError(f"no record {record_id}")
        if record_id in self.disposed:
            raise RecordNotFoundError(f"record {record_id} was disposed")
        return chain

    def record_ids(self) -> list[str]:
        """Live record ids, sorted."""
        return sorted(set(self.chains) - self.disposed)

    def records_of_patient(self, patient_id: str) -> list[str]:
        """Live record ids belonging to one patient."""
        return sorted(self._by_patient.get(patient_id, set()) - self.disposed)

    def patient_ids(self) -> list[str]:
        """Every patient with at least one live record."""
        return sorted(
            patient_id
            for patient_id, records in self._by_patient.items()
            if records - self.disposed
        )

    def version_ids(self, record_id: str) -> list[str]:
        """The WORM object ids of a record's versions, in order."""
        return [version_id(record_id, n) for n in range(len(self.chains[record_id]))]

    def objects_of(self, record_id: str) -> list[str]:
        """Every WORM object id the record owns: its versions in order,
        then its attachment chunks."""
        object_ids = self.version_ids(record_id)
        for manifest in self.attachments.get(record_id, {}).values():
            object_ids += [
                attachment_object_id(record_id, chunk_id)
                for chunk_id in manifest.chunk_ids
            ]
        return object_ids + self.orphan_chunks.get(record_id, [])

    def owner_of(self, object_id: str) -> str | None:
        """The record that owns a WORM object (``None`` for objects no
        record owns, e.g. imported audit-segment archives)."""
        return self._owner.get(object_id)

    def key_for(self, object_id: str) -> KeyHandle | None:
        """The data key of the record that owns a WORM object (``None``
        for objects no record owns)."""
        return self.keys.get(self._owner.get(object_id))

    # -- transitions -------------------------------------------------------

    def own(self, chain: VersionChain, handle: KeyHandle) -> bool:
        """Enter (or refresh) a record's entry after its objects were
        written or recovered; returns whether it was already known.  The
        record is dirty until the next integrity pass re-verifies it."""
        record_id = chain.record_id
        known = record_id in self.chains
        self.chains[record_id] = chain
        self.keys[record_id] = handle
        patient_id = chain.latest().record.patient_id
        previous = self._patient_of.get(record_id)
        if previous != patient_id:
            if previous is not None:
                self._by_patient[previous].discard(record_id)
            self._patient_of[record_id] = patient_id
            self._by_patient.setdefault(patient_id, set()).add(record_id)
        self.dirty.add(record_id)
        self.purge(record_id)
        return known

    def claim(self, record_id: str, object_ids: list[str]) -> None:
        """Record that *record_id* owns these WORM objects."""
        self._owner.update(dict.fromkeys(object_ids, record_id))

    def set_cold(self, record_id: str, cold: bool) -> None:
        """Move a record's authoritative copy between tiers."""
        if cold:
            self.cold.add(record_id)
            self.purge(record_id)
        else:
            self.cold.discard(record_id)

    def mark_disposed(self, record_id: str) -> None:
        """The record is destroyed: it stays known (its key handle and
        chain answer "was disposed"), but nothing serves it again."""
        self.disposed.add(record_id)
        self.dirty.discard(record_id)
        self.last_access.pop(record_id, None)
        self.purge(record_id)

    def forget(self, record_id: str) -> None:
        """Drop a record whose custody moved to another engine."""
        for object_id in self.objects_of(record_id):
            self._owner.pop(object_id, None)
        self._by_patient[self._patient_of.pop(record_id)].discard(record_id)
        del self.chains[record_id]
        self.keys.pop(record_id, None)
        self.attachments.pop(record_id, None)
        self.orphan_chunks.pop(record_id, None)
        self.cold.discard(record_id)
        self.dirty.discard(record_id)
        self.last_access.pop(record_id, None)
        self.purge(record_id)

    def mark_all_dirty(self) -> None:
        """The whole archive sits on fresh or untrusted media: every
        live record is dirty, and no cached plaintext outlives it."""
        self.dirty = set(self.chains) - self.disposed
        self.read_cache.clear()

    # -- read cache --------------------------------------------------------

    def cached(self, record_id: str, version: int) -> HealthRecord | None:
        """The cached current version, if *version* is still current."""
        entry = self.read_cache.get(record_id)
        if entry is None or entry[0] != version:
            return None
        self.read_cache.move_to_end(record_id)
        return entry[1]

    def cache(self, record_id: str, version: int, record: HealthRecord) -> None:
        """Remember a decrypted-and-verified current version (LRU)."""
        if self._read_cache_size > 0:
            self.read_cache[record_id] = (version, record)
            if len(self.read_cache) > self._read_cache_size:
                self.read_cache.popitem(last=False)

    def purge(self, record_id: str) -> None:
        """Drop a record's cached plaintext."""
        self.read_cache.pop(record_id, None)
