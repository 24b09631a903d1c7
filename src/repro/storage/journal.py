"""Append-only journal over a block device.

The lowest-level *structured* storage in the system: length-prefixed,
checksummed entries appended to a device.  The WORM store, the audit
log, and the baselines all persist through a journal, so every byte
the software writes is reachable by the adversary's ``raw_read`` — no
hidden in-Python state that the threat model could not see.

Entry framing::

    magic(4) | length(4, big-endian) | crc: sha256[:8] | payload

There is one append (:meth:`Journal._commit`): a list of frames, each a
list of payload chunks, packed and checksummed in one place and sent to
the device in one ``writev``.  ``append``, ``append_many`` and
``append_scattered`` are its three shapes — one frame of one chunk, N
frames of one chunk, one frame of N chunks — and there is one parser
(:meth:`Journal.walk_frames`).

Opening is recovery, and every store opens under one rule
(:meth:`Journal.open_frames`): the checksum finds the torn tail, and
each object's own trusted check judges the rest.  On a blank device
there is nothing to scan.
"""

from __future__ import annotations

import hashlib
import struct
from typing import NamedTuple

from repro.crypto.hashing import sha256
from repro.errors import DeviceError, IntegrityError, StorageError
from repro.storage.block import BlockDevice
from repro.util.metrics import METRICS

_MAGIC = b"CURJ"
_HEADER = struct.Struct(">4sI8s")

HEADER_SIZE = _HEADER.size
"""Bytes of framing before each entry's payload (exposed for layers
that need to compute device offsets of payload content)."""


class JournalEntry(NamedTuple):
    """Where one committed frame landed.  It does not carry the payload
    bytes: the caller already holds them, and a copy here would undo the
    scattered write."""

    sequence: int
    offset: int
    length: int


class Journal:
    """Length-prefixed checksummed append-only log on a device."""

    def __init__(self, device: BlockDevice) -> None:
        """Open the journal on *device*: its entries are every frame
        :meth:`open_frames` adopts, and appends continue after them."""
        frames = self.open_frames(device)
        self._adopt(device, [(offset, len(data)) for offset, data, torn in frames if not torn])

    def _adopt(self, device: BlockDevice, extents: list[tuple[int, int]]) -> None:
        self._device = device
        self._entries = list(extents)  # (offset, payload_len)
        self._flush_count = 0  # device writes issued (batches count once)
        end = 0
        if extents:
            offset, length = extents[-1]
            end = offset + _HEADER.size + length
        device.truncate_to(end)

    @property
    def device(self) -> BlockDevice:
        return self._device

    @property
    def flush_count(self) -> int:
        """Device writes this journal has issued; a batched append of N
        entries counts once — the amortization the engine buys."""
        return self._flush_count

    def __len__(self) -> int:
        return len(self._entries)

    def append(self, payload: bytes) -> JournalEntry:
        """Append one entry; returns its metadata."""
        return self._commit([[payload]])[0]

    def append_many(self, payloads: list[bytes]) -> list[JournalEntry]:
        """Append several entries, one frame each, under ONE device
        write.  The device bytes are those of the same sequence of
        :meth:`append` calls; only the number of writes differs."""
        return self._commit([[payload] for payload in payloads])

    def append_scattered(self, chunks: list[bytes]) -> JournalEntry:
        """Append ONE entry whose payload is the concatenation of
        *chunks*, without ever joining them.  The device bytes are those
        of ``append(b"".join(chunks))``."""
        return self._commit([chunks])[0]

    def _commit(self, frames: list[list[bytes]]) -> list[JournalEntry]:
        """The one append: each frame is a list of chunks that make up
        its payload.  Every frame gets its own header and checksum
        (hashed chunk by chunk), and the whole run goes to the device by
        reference in ONE ``writev`` — so a torn write can only lose a
        suffix of the run, and recovery drops each torn frame whole."""
        buffers: list[bytes] = []
        lengths = []
        for chunks in frames:
            checksum = hashlib.sha256()
            length = 0
            for chunk in chunks:
                if not isinstance(chunk, (bytes, bytearray)):
                    raise StorageError("journal payload must be bytes")
                checksum.update(chunk)
                length += len(chunk)
            buffers.append(_HEADER.pack(_MAGIC, length, checksum.digest()[:8]))
            buffers.extend(chunks)
            lengths.append(length)
        if not lengths:
            return []
        offset = self._device.allocate(sum(lengths) + _HEADER.size * len(lengths))
        try:
            self._device.writev(offset, buffers)
        except DeviceError:
            # Refused (write-protected, detached) or torn: no frame was
            # committed, so give the space back — a dead gap here would
            # hide every later frame from recovery's prefix walk.
            self._device.truncate_to(offset)
            raise
        self._flush_count += 1
        METRICS.incr("journal_flush_count")
        METRICS.incr("journal_entries_appended", len(lengths))
        entries = []
        for length in lengths:
            self._entries.append((offset, length))
            entries.append(JournalEntry(len(self._entries) - 1, offset, length))
            offset += _HEADER.size + length
        return entries

    def read(self, sequence: int) -> bytes:
        """Read one entry's payload, verifying its checksum."""
        if sequence < 0 or sequence >= len(self._entries):
            raise StorageError(f"journal entry {sequence} does not exist")
        offset, payload_len = self._entries[sequence]
        return self._read_at(offset, payload_len)

    def reseal(self, sequence: int) -> None:
        """Recompute entry *sequence*'s stored checksum over its CURRENT
        device bytes.

        For exactly one caller: the cold tier's scrub.  It zeroes a
        member's extent inside a segment frame, and the cold tier has no
        salvage, so if that frame is the last one an unresealed hole
        would read as a torn write and drop the segment's innocent
        members with it.  (The checksum guards against accidents, not
        adversaries — tamper detection lives in the keyed/off-device
        layers above.)
        """
        if sequence < 0 or sequence >= len(self._entries):
            raise StorageError(f"journal entry {sequence} does not exist")
        offset, payload_len = self._entries[sequence]
        payload = self._device.raw_read(offset + _HEADER.size, payload_len)
        self._device.raw_write(
            offset, _HEADER.pack(_MAGIC, payload_len, sha256(payload)[:8])
        )

    def _read_at(self, offset: int, payload_len: int) -> bytes:
        blob = self._device.read(offset, _HEADER.size + payload_len)
        magic, length, checksum = _HEADER.unpack(blob[: _HEADER.size])
        payload = blob[_HEADER.size :]
        if magic != _MAGIC:
            raise IntegrityError(f"journal entry at {offset}: bad magic")
        if length != payload_len:
            raise IntegrityError(f"journal entry at {offset}: length mismatch")
        if sha256(payload)[:8] != checksum:
            raise IntegrityError(f"journal entry at {offset}: checksum mismatch")
        return payload

    def read_all(self) -> list[bytes]:
        """All payloads in order, each checksum-verified."""
        return [self.read(i) for i in range(len(self._entries))]

    def scan_corruption(self) -> list[int]:
        """Return the sequence numbers of entries that fail their checksum.

        Unlike :meth:`read`, does not raise — the integrity experiments
        want the full damage report.
        """
        corrupted = []
        for sequence in range(len(self._entries)):
            try:
                self.read(sequence)
            except IntegrityError:
                corrupted.append(sequence)
        return corrupted

    # ------------------------------------------------------------------
    # The adversary's view.  A knowledgeable insider understands the
    # on-disk frame format (it is not secret), so the threat harness
    # gets explicit helpers: walking frames on a raw device and forging
    # a frame in place with a *recomputed* checksum.  The checksum is an
    # unkeyed CRC-equivalent — it protects against accidents, not
    # adversaries — which is precisely why the layers above need MACs,
    # digests held off-device, and hash chains.
    # ------------------------------------------------------------------

    @staticmethod
    def walk_frames(device: BlockDevice):
        """The one frame parser: yield ``(offset, payload, checksum_ok)``
        for every frame on the raw device whose header (magic +
        in-bounds length) is intact, *continuing past* frames whose
        payload fails its checksum, and stopping at the first
        unparseable header — a crash-torn tail or the unwritten region.

        Every reader of the on-disk format is a policy over this walk:
        every store's open drops only a flagged last frame
        (:meth:`open_frames`); the key escrow's lenient walk skips each
        flagged frame's key; the adversary's scan ignores the flag.
        """
        offset = 0
        limit = device.used
        while offset + _HEADER.size <= limit:
            header = device.raw_read(offset, _HEADER.size)
            magic, length, checksum = _HEADER.unpack(header)
            if magic != _MAGIC or offset + _HEADER.size + length > limit:
                return
            payload = device.raw_read(offset + _HEADER.size, length)
            yield offset, payload, sha256(payload)[:8] == checksum
            offset += _HEADER.size + length

    @classmethod
    def open_frames(cls, device: BlockDevice):
        """The one open rule: ``(offset, payload, torn)`` for every frame
        :meth:`walk_frames` finds, *torn* only for a last frame that
        fails its checksum — the one write a crash can tear.  Every
        other frame is adopted whatever its checksum says: decay in it
        is left to each object's own check (a content digest, a leaf
        digest, a MAC or a hash chain), which blames exactly what
        decayed."""
        previous = None
        for frame in cls.walk_frames(device):
            if previous is not None:
                yield previous[0], previous[1], False
            previous = frame
        if previous is not None:
            yield previous[0], previous[1], not previous[2]

    @staticmethod
    def forge_frame(device: BlockDevice, offset: int, payload: bytes) -> None:
        """Rewrite the frame at *offset* with *payload* (same length) and
        a freshly computed checksum — the smart insider's tamper."""
        header = device.raw_read(offset, _HEADER.size)
        magic, length, _ = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise StorageError(f"no journal frame at offset {offset}")
        if len(payload) != length:
            raise StorageError(
                f"forged payload must keep the frame length ({length} bytes)"
            )
        new_header = _HEADER.pack(_MAGIC, length, sha256(payload)[:8])
        device.raw_write(offset, new_header + payload)

    @classmethod
    def adopt(
        cls, device: BlockDevice, extents: list[tuple[int, int]]
    ) -> "Journal":
        """A journal over *device* whose entry table is *extents* —
        ``(frame offset, payload length)`` per surviving frame, in log
        order, as a store's own walk selected them.  The device's
        allocator is reset to the end of the last one, so appends
        continue there and whatever lay beyond (a torn tail) is dead
        space."""
        journal = cls.__new__(cls)
        journal._adopt(device, extents)
        return journal
