"""The cold tier: compacted segments on their own device.

The ColdStore is to segments what the WORM store is to objects: the
bytes live on an untrusted device, and the in-memory directory (trusted
manifests, member extents, live/repatriated state) is the trust root an
insider writing raw bytes cannot touch.  It never sees plaintext keys —
members arrive already sealed (the engine encrypts under each record's
data key) and leave as sealed bytes plus the proof material recall needs.

Verification granularity matches the blame the oracle demands:

* **body rot / truncation** — each live member's device extent is
  digest-checked against the trusted ``leaf_digest`` (the Merkle leaf
  over the sealed bytes); a mismatch blames exactly that record;
* **manifest rot** — the on-device manifest is decoded and compared
  entry-by-entry against the trusted manifest; a forged entry blames
  exactly the record whose entry changed (an undecodable manifest
  honestly implicates every live member — there is nothing finer to
  say);
* **incremental** — only *dirty* segments (new writes, prior failures)
  are fully checked, plus a rotating sample of clean members and one
  clean segment's manifest per pass, mirroring ``WormStore.verify_dirty``
  (the manifest rotation bounds how long a manifest rewrite in an
  already-verified segment can hide, exactly as the member sample
  bounds silent body rot).

Scrubbing (disposal's residue pass) zeroes every extent a record's
member ever occupied — including copies already repatriated by recall —
then reseals the frame checksums: unlike the WORM store the cold tier
has no salvage, so an unresealed hole in the last segment would be
dropped at open as a torn write, innocent members and all.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from repro.archive.segment import (
    PREFIX_SIZE,
    MemberManifest,
    SegmentManifest,
    build_segment,
    parse_segment,
)
from repro.crypto.merkle import leaf_hash, verify_inclusion
from repro.errors import IntegrityError, RecordNotFoundError
from repro.storage.block import BlockDevice, MemoryDevice
from repro.storage.journal import HEADER_SIZE, Journal
from repro.util.clock import Clock, WallClock
from repro.util.metrics import METRICS
from repro.util.rotation import Rotation


#: Verified member plaintexts the recall fast path may keep.  The working
#: set of a cold tier is small by definition (an idle record that is read
#: again is recalled warm), so a handful of entries is all it ever holds.
MEMBER_CACHE_SIZE = 16


@dataclass
class ColdSegment:
    """Directory entry for one compacted segment."""

    segment_id: str
    sequence: int  # cold-journal frame sequence
    frame_offset: int  # device offset of the frame header
    payload_length: int
    member_area: int  # absolute device offset of the first member byte
    manifest: SegmentManifest  # the TRUSTED manifest (in-memory)
    live: set[str] = field(default_factory=set)
    scrubbed: set[str] = field(default_factory=set)

    def extent_of(self, member: MemberManifest) -> tuple[int, int]:
        return self.member_area + member.offset, member.length


class ColdStore:
    """Compacted cold segments with verifiable member recall."""

    def __init__(
        self,
        device: BlockDevice | None = None,
        clock: Clock | None = None,
    ) -> None:
        """Open the store on *device* (a blank one by default),
        rebuilding the directory from the segments already on it.

        The one open rule (:meth:`Journal.open_frames`) drops only a torn
        last frame — a segment write interrupted by a crash never
        happened, and its records keep their warm copies (the demotion
        audit marker, the real commit point, was never written).  Every
        other segment is parsed from its raw bytes: decay in a member
        fails that member's leaf digest, not the segment.  Manifests
        found are *adopted* as the trust root and every such segment is
        dirty until re-verified; which members are authoritative (vs
        repatriated or scrubbed) is the engine's call, replayed from the
        audit trail's demotion/recall markers and the key escrow."""
        device = device or MemoryDevice("curator-cold", 1 << 24)
        self._clock = clock or WallClock()
        self._segments: dict[str, ColdSegment] = {}
        self._order: list[str] = []  # segment ids, write order
        self._live: dict[str, str] = {}  # record_id -> owning segment
        # Every extent a record's sealed member ever occupied, across
        # segments and repatriations — disposal scrubs them all.
        self._extents: dict[str, list[tuple[str, int, int]]] = {}
        # Segments written (or failed) since the last clean check.
        self._dirty: set[str] = set()
        self._clean_members = Rotation()
        self._clean_segments = Rotation()
        # Verified member plaintexts (recall fast path).  Purged whole
        # by the shredder's bind_cache hook: a disposed record's
        # decrypted cold bytes must not survive it in memory.
        self._cache: OrderedDict[str, bytes] = OrderedDict()
        extents: list[tuple[int, int]] = []
        for frame_offset, payload, torn in Journal.open_frames(device):
            if torn:
                continue
            extents.append((frame_offset, len(payload)))
            try:
                manifest, member_area_offset = parse_segment(payload)
            except IntegrityError:
                # An undecodable manifest names nothing: its members
                # surface as damaged when the engine tries to place them.
                continue
            self._index_segment(
                ColdSegment(
                    segment_id=manifest.segment_id,
                    sequence=len(extents) - 1,
                    frame_offset=frame_offset,
                    payload_length=len(payload),
                    member_area=frame_offset + HEADER_SIZE + member_area_offset,
                    manifest=manifest,
                    live={member.record_id for member in manifest.members},
                )
            )
        self._journal = Journal.adopt(device, extents)

    @property
    def device(self) -> BlockDevice:
        return self._journal.device

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    def __len__(self) -> int:
        return len(self._live)

    def __contains__(self, record_id: str) -> bool:
        return record_id in self._live

    def record_ids(self) -> list[str]:
        """Record ids whose authoritative copy is cold, sorted."""
        return sorted(self._live)

    def segment_ids(self) -> list[str]:
        return list(self._order)

    def next_segment_id(self) -> str:
        return f"cs-{len(self._order):06d}"

    def segment_of(self, record_id: str) -> ColdSegment:
        segment_id = self._live.get(record_id)
        if segment_id is None:
            raise RecordNotFoundError(f"record {record_id} has no live cold member")
        return self._segments[segment_id]

    def member(self, record_id: str) -> MemberManifest:
        return self.segment_of(record_id).manifest.member(record_id)

    # -- write ---------------------------------------------------------------

    def write_segment(
        self,
        segment_id: str,
        members: list[tuple[str, bytes, int, float, tuple[dict[str, Any], ...]]],
    ) -> ColdSegment:
        """Commit one compacted segment as ONE journal frame (see
        :func:`repro.archive.segment.build_segment` for the member
        tuple shape).  All-or-nothing at the durability layer: a crash
        that tears the write drops the whole segment at recovery, and
        every demoted record keeps its warm copy (the audit demotion
        marker is written only after this returns)."""
        if segment_id in self._segments:
            raise IntegrityError(f"cold segment {segment_id} already written")
        manifest, chunks = build_segment(segment_id, self._clock.now(), members)
        entry = self._journal.append_scattered(chunks)
        member_area = (
            entry.offset + HEADER_SIZE + len(chunks[0]) + len(chunks[1])
        )
        segment = self._index_segment(
            ColdSegment(
                segment_id=segment_id,
                sequence=entry.sequence,
                frame_offset=entry.offset,
                payload_length=entry.length,
                member_area=member_area,
                manifest=manifest,
                live={member.record_id for member in manifest.members},
            )
        )
        METRICS.incr("tier_cold_segments_written")
        METRICS.incr("tier_cold_members_written", len(manifest.members))
        return segment

    def _index_segment(self, segment: ColdSegment) -> ColdSegment:
        """Enter a segment on the device into the directory.  Last
        segment wins: a record demoted, recalled, and demoted again
        lives in its newest segment.  Device bytes are untrusted until a
        verify pass reads them back (same posture as WormStore's dirty
        set)."""
        segment.manifest.tree  # noqa: B018 — its proof tree, derived once
        self._segments[segment.segment_id] = segment
        self._order.append(segment.segment_id)
        for member in segment.manifest.members:
            self._live[member.record_id] = segment.segment_id
            self._extents.setdefault(member.record_id, []).append(
                (segment.segment_id, *segment.extent_of(member))
            )
        self._dirty.add(segment.segment_id)
        return segment

    # -- read / recall ---------------------------------------------------------

    def read_sealed(self, record_id: str) -> bytes:
        """The sealed member bytes, leaf-digest-checked against the
        trusted manifest (body rot and truncation surface here, blaming
        exactly this record)."""
        segment = self.segment_of(record_id)
        member = segment.manifest.member(record_id)
        offset, length = segment.extent_of(member)
        data = self.device.raw_read(offset, length)
        if leaf_hash(data) != member.leaf_digest:
            raise IntegrityError(
                f"cold member {record_id} failed its sealed-digest check"
            )
        return data

    def verify_sealed(self, record_id: str, sealed: bytes) -> None:
        """Check sealed member bytes against their leaf digest and an
        inclusion proof against the trusted segment root, read off the
        manifest's tree; raises :class:`IntegrityError` on failure."""
        manifest = self.segment_of(record_id).manifest
        proof = manifest.tree.prove_inclusion(manifest.positions[record_id])
        verify_inclusion(sealed, proof, manifest.merkle_root)

    # -- plaintext cache -------------------------------------------------------

    def cached_plaintext(self, record_id: str) -> bytes | None:
        cached = self._cache.get(record_id)
        if cached is not None:
            self._cache.move_to_end(record_id)
            METRICS.incr("tier_cold_cache_hits")
        return cached

    def cache_plaintext(self, record_id: str, plaintext: bytes) -> None:
        self._cache[record_id] = plaintext
        self._cache.move_to_end(record_id)
        while len(self._cache) > MEMBER_CACHE_SIZE:
            self._cache.popitem(last=False)

    def purge_cache(self) -> None:
        """Drop every cached plaintext (shredder ``bind_cache`` hook)."""
        self._cache.clear()

    # -- state transitions -------------------------------------------------------

    def mark_repatriated(self, record_id: str) -> None:
        """The record's authoritative copy moved back to the warm tier;
        the cold bytes stay on the device (disposal will scrub them)."""
        segment_id = self._live.pop(record_id, None)
        if segment_id is not None:
            self._segments[segment_id].live.discard(record_id)
        self._cache.pop(record_id, None)

    def mark_scrubbed(self, record_id: str) -> None:
        """Record that *record_id*'s extents hold certified holes (set
        during recovery when the key escrow says the record was
        lawfully destroyed) — verification skips them."""
        segment_id = self._live.pop(record_id, None)
        if segment_id is not None:
            segment = self._segments[segment_id]
            segment.live.discard(record_id)
            segment.scrubbed.add(record_id)
        for segment_id, _, _ in self._extents.pop(record_id, []):
            self._segments[segment_id].scrubbed.add(record_id)
        self._cache.pop(record_id, None)

    def scrub_record(self, record_id: str) -> list[tuple[int, int]]:
        """Zero every extent the record's sealed member ever occupied,
        reseal the affected frames, and forget the member.  Returns the
        scrubbed ``(offset, length)`` extents (for the audit detail).

        Defense in depth behind key shredding: the ciphertext was
        already cryptographically dead, this removes the residue an
        insider could scrape off the raw cold device."""
        extents = self._extents.pop(record_id, [])
        resealed: set[str] = set()
        scrubbed: list[tuple[int, int]] = []
        for segment_id, offset, length in extents:
            self.device.scrub(offset, length)
            scrubbed.append((offset, length))
            segment = self._segments[segment_id]
            segment.live.discard(record_id)
            segment.scrubbed.add(record_id)
            if segment_id not in resealed:
                self._journal.reseal(segment.sequence)
                resealed.add(segment_id)
        self._live.pop(record_id, None)
        self._cache.pop(record_id, None)
        if scrubbed:
            METRICS.incr("tier_cold_members_scrubbed")
        return scrubbed

    # -- verification -------------------------------------------------------------

    def _verify_member(self, segment: ColdSegment, member: MemberManifest) -> bool:
        offset, length = segment.extent_of(member)
        data = self.device.raw_read(offset, length)
        METRICS.incr("tier_cold_members_checked")
        return leaf_hash(data) == member.leaf_digest

    def _verify_manifest(self, segment: ColdSegment) -> set[str]:
        """Compare the on-device manifest against the trusted one;
        returns the record ids whose entries were tampered with."""
        failures: set[str] = set()
        try:
            payload = self.device.raw_read(
                segment.frame_offset + HEADER_SIZE, segment.payload_length
            )
            device_manifest, _ = parse_segment(payload)
            on_device = {m.record_id: m for m in device_manifest.members}
            for record_id in segment.live:
                if on_device.get(record_id) != segment.manifest.member(record_id):
                    failures.add(record_id)
            if (
                not failures
                and device_manifest.merkle_root != segment.manifest.merkle_root
            ):
                # Root forged with every entry intact: no finer blame
                # exists than the whole segment.
                failures |= set(segment.live)
        except IntegrityError:
            # An undecodable manifest implicates every live member.
            failures |= set(segment.live)
        return failures

    def _verify_segment(self, segment: ColdSegment) -> set[str]:
        """Full check of one segment; returns the failing record ids."""
        # 1. the on-device manifest against the trusted one
        failures = self._verify_manifest(segment)
        # 2. each live member's sealed bytes (scrubbed holes are skipped:
        #    certified destruction, not damage)
        for record_id in segment.live:
            member = segment.manifest.member(record_id)
            if not self._verify_member(segment, member):
                failures.add(record_id)
        return failures

    def verify_all(self) -> list[str]:
        """Full sweep: every segment's manifest + every live member —
        :meth:`verify_dirty` with every segment dirty and no clean
        sample.  Clean segments leave the dirty set; failing ones stay."""
        self._dirty = set(self._order)
        return self.verify_dirty(clean_sample=0)

    def verify_dirty(self, clean_sample: int = 8) -> list[str]:
        """Incremental sweep: dirty segments fully, plus a rotating
        sample of *clean_sample* clean members and one clean segment's
        manifest — silent bit-rot (and manifest rewrites) in
        already-verified segments are revisited on a bounded cycle
        without re-reading the whole cold tier: every clean member
        within ``ceil(members / clean_sample)`` passes.  A sample of 0
        checks the dirty segments only."""
        failures: set[str] = set()
        for segment_id in sorted(self._dirty):
            segment_failures = self._verify_segment(self._segments[segment_id])
            failures |= segment_failures
            if not segment_failures:
                self._dirty.discard(segment_id)
        clean_segments = [s for s in self._order if s not in self._dirty]
        for segment_id in self._clean_segments.take(
            clean_segments, min(clean_sample, 1)
        ):
            manifest_failures = self._verify_manifest(self._segments[segment_id])
            if manifest_failures:
                failures |= manifest_failures
                self._dirty.add(segment_id)
        clean_members = [
            (self._segments[segment_id], record_id)
            for segment_id in self._order
            if segment_id not in self._dirty
            for record_id in sorted(self._segments[segment_id].live)
        ]
        for segment, record_id in self._clean_members.take(clean_members, clean_sample):
            if not self._verify_member(segment, segment.manifest.member(record_id)):
                failures.add(record_id)
                self._dirty.add(segment.segment_id)
        return sorted(failures)

    def dirty_segment_ids(self) -> list[str]:
        return sorted(self._dirty)
