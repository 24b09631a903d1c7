"""The WORM object store.

Objects are opaque byte strings keyed by caller-chosen ids.  Semantics:

* ``put`` writes exactly once — a second put of the same id raises
  :class:`~repro.errors.WormViolationError` even with identical bytes
  (real WORM controllers behave this way; idempotent rewrites would
  mask replay bugs upstream);
* each object carries the SHA-256 of its content, checked on every
  ``get`` — a bit-rotted or tampered object is reported, not returned;
* ``delete`` is gated by the object's retention term and holds (see
  :mod:`repro.worm.retention_lock`), and performs *logical* deletion:
  the slot is tombstoned.  Physical destruction of the bytes is the
  shredder's job (:mod:`repro.retention.shredder`) — the store records
  which device range held the object so the shredder can overwrite it.

The store persists through a :class:`~repro.storage.journal.Journal`,
so everything an insider could tamper with is on the device.  There is
one write (``put_many``; ``put`` is a batch of one) and so one frame
format::

    {"batch":[{object_id, size, digest, written_at}, …]} | NUL | bytes…

— the members' bytes back to back, located by the manifest's sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import sha256
from repro.errors import (
    IntegrityError,
    RecordNotFoundError,
    RetentionError,
    WormViolationError,
)
from repro.storage.block import BlockDevice, MemoryDevice
from repro.storage.journal import HEADER_SIZE, Journal
from repro.util.clock import Clock, WallClock
from repro.util.encoding import canonical_bytes, canonical_loads
from repro.util.metrics import METRICS
from repro.util.rotation import Rotation
from repro.worm.retention_lock import RetentionLock, RetentionTerm


@dataclass(frozen=True)
class StoredObject:
    """Metadata for one WORM object."""

    object_id: str
    size: int
    content_digest: bytes
    written_at: float
    journal_sequence: int
    payload_offset: int  # device offset of the object bytes (for shredding)
    data_start: int  # offset of the object bytes within the frame payload
    deleted: bool = False


class WormStore:
    """Write-once object store with retention enforcement."""

    def __init__(
        self,
        device: BlockDevice | None = None,
        clock: Clock | None = None,
    ) -> None:
        self._journal = Journal(device or MemoryDevice("worm-dev", 1 << 24))
        self._clock = clock or WallClock()
        self._objects: dict[str, StoredObject] = {}
        self.retention = RetentionLock()
        # Objects written since the last full digest sweep — the
        # incremental integrity path re-checks these plus a rotating
        # sample of clean ones (see verify_dirty).
        self._dirty: set[str] = set()
        self._clean = Rotation()
        # Ids tombstoned by expatriation (custody moved away).  Unlike
        # disposal tombstones these may be re-admitted: a migration
        # round-trip brings the same immutable object home again.
        self._expatriated: set[str] = set()

    @property
    def device(self) -> BlockDevice:
        return self._journal.device

    def __len__(self) -> int:
        return sum(1 for meta in self._objects.values() if not meta.deleted)

    def __contains__(self, object_id: str) -> bool:
        meta = self._objects.get(object_id)
        return meta is not None and not meta.deleted

    # -- write --------------------------------------------------------------

    def put(
        self,
        object_id: str,
        data: bytes,
        retention: RetentionTerm | None = None,
    ) -> StoredObject:
        """Write an object exactly once, with an optional retention term.

        When *retention* is omitted, a zero-duration term starting now is
        attached — the object is immediately past retention (but still
        write-once: WORM immutability and retention are independent).
        """
        return self.put_many([(object_id, data, retention)])[0]

    def put_many(
        self,
        items: list[tuple[str, bytes, RetentionTerm | None]],
    ) -> list[StoredObject]:
        """Write a batch of objects — one or many — as ONE journal frame.

        This is the only write: the frame is a manifest header naming
        every member, a NUL, then the members' bytes back to back.  The
        batch is all-or-nothing at the durability layer: a single frame
        carries a single checksum, so a crash that tears the write drops
        the *entire* batch at recovery — there is no prefix of a batch
        that survives.  This is what gives the engine's ``store_many``
        its atomic acknowledgement semantics.  Validation is
        all-or-nothing too, and nothing in the object table changes
        until the frame is on the device.
        """
        if not items:
            return []
        seen: set[str] = set()
        for object_id, _, _ in items:
            if object_id in seen or (
                object_id in self._objects
                and object_id not in self._expatriated
            ):
                raise WormViolationError(
                    f"object {object_id} already written (WORM is write-once)"
                )
            seen.add(object_id)
        written_at = self._clock.now()
        digests = [sha256(data) for _, data, _ in items]
        manifest = [
            {
                "object_id": object_id,
                "size": len(data),
                "digest": digest,
                "written_at": written_at,
            }
            for (object_id, data, _), digest in zip(items, digests)
        ]
        header = canonical_bytes({"batch": manifest}) + b"\x00"
        # One scattered frame: the header chunk plus each object's bytes
        # go to the device by reference — the batch blob is never
        # materialized, and the single frame checksum still makes the
        # whole batch all-or-nothing at recovery.
        chunks: list[bytes] = [header]
        starts = []
        data_start = len(header)
        for _, data, _ in items:
            starts.append(data_start)
            chunks.append(data)
            data_start += len(data)
        entry = self._journal.append_scattered(chunks)
        metas = []
        for (object_id, data, retention), data_start, digest in zip(
            items, starts, digests
        ):
            if object_id in self._expatriated:
                # Only now that the frame is durable: a refused write
                # must leave the tombstone (and the extent the shredder
                # needs) exactly as it found them.
                self._readmit(object_id)
            meta = StoredObject(
                object_id=object_id,
                size=len(data),
                content_digest=digest,
                written_at=written_at,
                journal_sequence=entry.sequence,
                payload_offset=entry.offset + HEADER_SIZE + data_start,
                data_start=data_start,
            )
            self._objects[object_id] = meta
            self._dirty.add(object_id)
            term = retention or RetentionTerm(start=written_at, duration_seconds=0.0)
            self.retention.set_term(object_id, term)
            metas.append(meta)
        return metas

    # -- read ----------------------------------------------------------------

    def _meta(self, object_id: str) -> StoredObject:
        meta = self._objects.get(object_id)
        if meta is None:
            raise RecordNotFoundError(f"object {object_id} does not exist")
        return meta

    def metadata(self, object_id: str) -> StoredObject:
        """Metadata for an object (including tombstoned ones)."""
        return self._meta(object_id)

    def get(self, object_id: str) -> bytes:
        """Read an object, verifying its content digest."""
        meta = self._meta(object_id)
        if meta.deleted:
            raise RecordNotFoundError(f"object {object_id} was deleted")
        payload = self._journal.read(meta.journal_sequence)
        data = self._extract_data(payload, meta)
        if sha256(data) != meta.content_digest:
            raise IntegrityError(
                f"object {object_id} failed its content digest check"
            )
        return data

    @staticmethod
    def _extract_data(payload: bytes, meta: StoredObject) -> bytes:
        # Objects are sliced by recorded extent: a frame holds a whole
        # batch, and the members' bytes may themselves contain NULs.
        data = payload[meta.data_start : meta.data_start + meta.size]
        if len(data) != meta.size:
            raise IntegrityError(
                f"object {meta.object_id}: stored size {len(data)} != {meta.size}"
            )
        return data

    def object_ids(self, include_deleted: bool = False) -> list[str]:
        """Ids of stored objects, sorted."""
        return sorted(
            object_id
            for object_id, meta in self._objects.items()
            if include_deleted or not meta.deleted
        )

    def verify_all(self) -> list[str]:
        """Digest-check every live object; returns ids that fail.

        This is :meth:`verify_dirty` with every live object dirty and no
        clean sample: a clean full sweep empties the dirty set, and
        failing objects stay dirty so the incremental path keeps
        reporting them.
        """
        self._dirty = set(self.object_ids())
        self._clean.reset()
        return self.verify_dirty(clean_sample=0)

    def verify_dirty(self, clean_sample: int = 8) -> list[str]:
        """Digest-check only dirty objects plus a rotating sample of
        clean ones; returns ids that fail.

        The dirty set covers everything that *changed* since the last
        full sweep; the rotating clean sample bounds how long silent
        bit-rot in already-verified objects can hide — every clean
        object is revisited within ``ceil(clean / clean_sample)``
        incremental passes.  Verified dirty objects become clean;
        failures stay (or become) dirty.
        """
        failures = []
        checked = 0
        for object_id in sorted(self._dirty):
            meta = self._objects.get(object_id)
            if meta is None or meta.deleted:
                self._dirty.discard(object_id)
                continue
            checked += 1
            try:
                self.get(object_id)
                self._dirty.discard(object_id)
            except IntegrityError:
                failures.append(object_id)
        clean = [oid for oid in self.object_ids() if oid not in self._dirty]
        for object_id in self._clean.take(clean, clean_sample):
            checked += 1
            try:
                self.get(object_id)
            except IntegrityError:
                failures.append(object_id)
                self._dirty.add(object_id)
        METRICS.incr("worm_integrity_objects_checked", checked)
        return sorted(failures)

    # -- delete -----------------------------------------------------------------

    def delete(self, object_id: str, *, authorization=None) -> StoredObject:
        """Tombstone an object.  Only lawful after retention expiry and
        with no litigation hold; raises :class:`RetentionError` otherwise.

        *authorization*, when provided, must be an allow
        :class:`~repro.policy.model.Decision` for the destruction
        action covering this object (the disposition workflow passes
        its own decision through).  Recovery paths that restore
        tombstones for records whose keys were already lawfully
        shredded pass ``None`` — the retention gate above still holds.
        """
        meta = self._meta(object_id)
        if meta.deleted:
            raise RecordNotFoundError(f"object {object_id} already deleted")
        if authorization is not None:
            from repro.policy.model import ensure_destruction_authorized

            ensure_destruction_authorized(authorization, object_id)
        self.retention.check_deletable(object_id, self._clock.now())
        tombstoned = StoredObject(
            object_id=meta.object_id,
            size=meta.size,
            content_digest=meta.content_digest,
            written_at=meta.written_at,
            journal_sequence=meta.journal_sequence,
            payload_offset=meta.payload_offset,
            data_start=meta.data_start,
            deleted=True,
        )
        self._objects[object_id] = tombstoned
        return tombstoned

    def expatriate(self, object_id: str) -> StoredObject:
        """Tombstone an object whose custody moved to another store.

        Unlike :meth:`delete` this bypasses the retention gate: the data
        is not being destroyed — it lives on, under its original
        retention term, at the migration destination — so refusing to
        drop the source copy would leave two authoritative homes for one
        record, which is the worse compliance failure.  Idempotent, so
        salvage paths can re-run it after a crash.
        """
        meta = self._meta(object_id)
        if meta.deleted:
            return meta
        tombstoned = StoredObject(
            object_id=meta.object_id,
            size=meta.size,
            content_digest=meta.content_digest,
            written_at=meta.written_at,
            journal_sequence=meta.journal_sequence,
            payload_offset=meta.payload_offset,
            data_start=meta.data_start,
            deleted=True,
        )
        self._objects[object_id] = tombstoned
        self._dirty.discard(object_id)
        self._expatriated.add(object_id)
        return tombstoned

    def _readmit(self, object_id: str) -> None:
        """Clear an expatriated tombstone so the same object id can be
        written again.  This is the one sanctioned exception to
        write-once: the incoming bytes are the *same logical object*
        (the migration manifest digest-checks that upstream), merely
        re-sealed by its returning custodian."""
        self._expatriated.discard(object_id)
        self.retention.clear_term(object_id)
        del self._objects[object_id]

    def physical_extent(self, object_id: str) -> tuple[int, int]:
        """(device_offset, size) of the object's raw bytes — consumed by
        the shredder for physical overwrite after logical deletion."""
        meta = self._meta(object_id)
        return meta.payload_offset, meta.size

    def reseal_shredded(self, object_id: str) -> None:
        """Recompute the containing frame's checksum after the shredder
        zeroed *object_id*'s extent.  Certified destruction punches an
        intentional hole; resealing keeps crash recovery from reading it
        as a torn write and discarding the frame's surviving neighbours
        (batch frames hold many objects) and the journal tail."""
        meta = self._meta(object_id)
        self._journal.reseal(meta.journal_sequence)

    # -- recovery ----------------------------------------------------------

    @staticmethod
    def walk_frames(device: BlockDevice):
        """Every WORM frame on *device*, parsed the one way the format
        is parsed: ``(frame offset, payload, checksum ok, members)``,
        each member ``(object id, start of its bytes within the payload,
        size, manifest entry)``.  Torn, damaged and foreign frames are
        skipped."""
        for frame_offset, payload, checksum_ok in Journal.walk_frames(device):
            separator = payload.find(b"\x00")
            try:
                manifest = canonical_loads(payload[:separator])["batch"]
                data_start = separator + 1
                members = []
                for item in manifest:
                    members.append((item["object_id"], data_start, item["size"], item))
                    data_start += item["size"]
            except Exception:  # noqa: BLE001 — torn, damaged or foreign frame
                continue
            yield frame_offset, payload, checksum_ok, members

    @classmethod
    def recover(
        cls,
        device: BlockDevice,
        clock: Clock | None = None,
        salvage_check=None,
    ) -> "WormStore":
        """Rebuild the object table from a surviving device image.

        A frame that fails its checksum is dropped *whole* — and because
        a ``put_many`` batch is one frame, a crash-torn batch write
        drops the batch whole: there is never a surviving prefix of an
        acknowledged-atomic batch.

        One legitimate exception: authorized destruction zeroes an
        object's extent inside a frame and then re-seals the frame's
        checksum (:meth:`reseal_shredded`).  A crash *between* the zero
        passes and the reseal leaves a broken frame that is a certified
        hole, not a torn write — dropping it would take the shredded
        object's innocent batch neighbours with it.  ``salvage_check``
        (object_ids → bool), wired by the engine to the key escrow's
        shred tombstones, identifies those frames; recovery completes
        the interrupted reseal and keeps the frame.  Without a
        ``salvage_check``, every broken frame is treated as torn.

        Retention terms are restored as zero-duration terms anchored at
        the recorded write time; the layer that granted longer terms
        re-extends them (see ``CuratorStore.recover_from_devices``).
        """
        store = cls(device, clock)
        extents: list[tuple[int, int]] = []
        for frame_offset, payload, checksum_ok, members in cls.walk_frames(device):
            if not checksum_ok:
                if salvage_check is None or not salvage_check(
                    [object_id for object_id, *_ in members]
                ):
                    continue  # torn write: drop the frame whole
                # A shred was interrupted before its reseal — finish it,
                # so the frame's surviving neighbours stay readable.
                Journal.forge_frame(device, frame_offset, payload)
            sequence = len(extents)
            extents.append((frame_offset, len(payload)))
            for object_id, data_start, size, item in members:
                meta = StoredObject(
                    object_id=object_id,
                    size=size,
                    content_digest=item["digest"],
                    written_at=item.get("written_at", 0.0),
                    journal_sequence=sequence,
                    payload_offset=frame_offset + HEADER_SIZE + data_start,
                    data_start=data_start,
                )
                if meta.object_id in store._objects:
                    # A later frame re-using an id is a WORM re-admission
                    # (migration round trip re-imported an expatriated
                    # object): last frame wins, placeholder term included.
                    store.retention.clear_term(meta.object_id)
                store._objects[meta.object_id] = meta
                store.retention.set_term(
                    meta.object_id,
                    RetentionTerm(start=meta.written_at, duration_seconds=0.0),
                )
        store._journal = Journal.adopt(device, extents)
        # Post-crash the device is maximally untrusted: every recovered
        # object is dirty until a digest check clears it.
        store._dirty = set(store._objects)
        return store

    def attempt_overwrite(self, object_id: str, data: bytes) -> None:
        """Explicitly attempt an in-place overwrite; always raises.

        Exists so callers (and tests) exercise the enforcement path
        rather than relying on put()'s duplicate check alone.
        """
        self._meta(object_id)
        raise WormViolationError(
            f"object {object_id} is write-once; corrections must be new versions"
        )
