"""Byte-addressable block devices.

A :class:`BlockDevice` is a flat byte array with explicit capacity,
allocate/read/write primitives, and I/O counters.  Two implementations:

* :class:`MemoryDevice` — a bytearray; fast, used by tests, benchmarks
  and the simulated media pool.
* :class:`FileBackedDevice` — bytes on disk; used by examples that want
  state to survive the process.

Both expose :meth:`raw_read`/:meth:`raw_write`, deliberately
*unchecked* primitives that model an insider with direct disk access
(the paper's key adversary).  The software stack above always goes
through :meth:`read`/:meth:`write`, which honor the device's
write-protection flag; ``raw_write`` does not — tamper-evidence, not
tamper-prevention, is what a hash chain provides, and the experiments
make that distinction measurable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import CrashError, DeviceError

#: Zero-overwrite passes behind every destruction (:meth:`BlockDevice.scrub`).
SCRUB_PASSES = 3


@dataclass
class DeviceStats:
    """I/O counters, used by the performance experiments."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    raw_reads: int = 0
    raw_writes: int = 0

    def snapshot(self) -> dict:
        return {
            "reads": self.reads,
            "writes": self.writes,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "raw_reads": self.raw_reads,
            "raw_writes": self.raw_writes,
        }


class BlockDevice:
    """Abstract flat-address-space device."""

    def __init__(self, device_id: str, capacity: int) -> None:
        if capacity <= 0:
            raise DeviceError("capacity must be positive")
        self.device_id = device_id
        self.capacity = capacity
        self.stats = DeviceStats()
        self._write_protected = False
        self._next_offset = 0
        self._detached = False
        self._write_hook = None

    # -- state flags ---------------------------------------------------

    def set_write_protected(self, value: bool) -> None:
        """Software write-protect latch (honored by write(), not raw_write())."""
        self._write_protected = bool(value)

    @property
    def detached(self) -> bool:
        """A detached (stolen/lost/destroyed) device rejects all software I/O."""
        return self._detached

    def detach(self) -> None:
        self._detached = True

    # -- allocation ----------------------------------------------------

    @property
    def used(self) -> int:
        """Bytes allocated so far."""
        return self._next_offset

    @property
    def free(self) -> int:
        return self.capacity - self._next_offset

    def allocate(self, size: int) -> int:
        """Reserve *size* bytes; returns the start offset."""
        if size < 0:
            raise DeviceError("allocation size must be non-negative")
        if self._next_offset + size > self.capacity:
            raise DeviceError(
                f"device {self.device_id} full: need {size}, free {self.free}"
            )
        offset = self._next_offset
        self._next_offset += size
        return offset

    def truncate_to(self, offset: int) -> None:
        """Roll the allocator back to *offset* (recovery/fault-injection
        API: the owner of the device declares everything past *offset*
        dead).  Bytes beyond are untouched — only allocation moves."""
        if offset < 0 or offset > self.capacity:
            raise DeviceError(
                f"truncate_to({offset}) out of range on {self.device_id} "
                f"(capacity {self.capacity})"
            )
        self._next_offset = offset

    def reset_allocation(self, offset: int = 0) -> None:
        """Reposition the allocator to *offset* in either direction.

        ``reset_allocation(0)`` presents the device as empty (media
        re-use); ``reset_allocation(capacity)`` marks the whole device
        allocated, which is how recovery adopts a raw image whose true
        extent is unknown until a scan finds the valid tail.
        """
        if offset < 0 or offset > self.capacity:
            raise DeviceError(
                f"reset_allocation({offset}) out of range on {self.device_id} "
                f"(capacity {self.capacity})"
            )
        self._next_offset = offset

    # -- fault injection -------------------------------------------------

    def install_write_hook(self, hook) -> None:
        """Interpose *hook* on every media commit (checked and raw).

        The hook is called as ``hook(device, offset, data)`` after all
        validity checks pass and immediately before the bytes reach the
        medium; it returns the bytes to actually commit (normally
        *data*, possibly a torn prefix) or raises to abort the write
        with nothing committed.  This is the seam the crash-consistency
        sweep uses (:mod:`repro.verify.crashpoint`); production code
        never installs hooks.
        """
        self._write_hook = hook

    def clear_write_hook(self) -> None:
        self._write_hook = None

    def _commit(self, offset: int, data: bytes) -> int:
        """Run the write hook (if any), then store; returns bytes stored.

        A hook that raises :class:`~repro.errors.CrashError` kills the
        write — but if the error carries ``partial`` bytes, that prefix
        reaches the medium first: the torn write a power loss leaves
        behind.
        """
        if self._write_hook is not None:
            try:
                data = self._write_hook(self, offset, data)
            except CrashError as crash:
                if crash.partial:
                    self._store(offset, crash.partial)
                raise
        self._store(offset, data)
        return len(data)

    # -- checked I/O (the software stack's path) ------------------------

    def write(self, offset: int, data: bytes) -> None:
        """Write through the software path; honors write protection."""
        self._check_attached()
        if self._write_protected:
            raise DeviceError(f"device {self.device_id} is write-protected")
        self._check_bounds(offset, len(data))
        stored = self._commit(offset, data)
        self.stats.writes += 1
        self.stats.bytes_written += stored

    def writev(self, offset: int, buffers: list[bytes]) -> None:
        """Scatter write: commit *buffers* contiguously from *offset*
        under ONE software write, without joining them first.

        Semantically identical to ``write(offset, b"".join(buffers))`` —
        same bounds/protection checks, same single entry in the I/O
        stats — but the fast path hands each buffer to the medium
        directly, so a batched journal flush never materializes the
        whole frame run in memory.  When a fault-injection write hook is
        installed the buffers ARE joined and routed through the ordinary
        commit path: the crash sweep must keep seeing one tearable write
        per flush.
        """
        self._check_attached()
        if self._write_protected:
            raise DeviceError(f"device {self.device_id} is write-protected")
        total = sum(map(len, buffers))
        self._check_bounds(offset, total)
        if self._write_hook is not None:
            stored = self._commit(offset, b"".join(buffers))
        else:
            self._storev(offset, buffers)
            stored = total
        self.stats.writes += 1
        self.stats.bytes_written += stored

    def read(self, offset: int, size: int) -> bytes:
        """Read through the software path."""
        self._check_attached()
        self._check_bounds(offset, size)
        data = self._load(offset, size)
        self.stats.reads += 1
        self.stats.bytes_read += size
        return data

    # -- raw I/O (the adversary's path) ---------------------------------

    def raw_read(self, offset: int, size: int) -> bytes:
        """Direct media access, bypassing the software stack.

        Works even on a detached device — a thief holding the physical
        medium can always read its bytes.  Confidentiality on stolen
        media therefore comes only from encryption, never from the
        access-control layer above; experiment E5 measures exactly this.
        """
        self._check_bounds(offset, size)
        data = self._load(offset, size)
        self.stats.raw_reads += 1
        return data

    def raw_write(self, offset: int, data: bytes) -> None:
        """Direct media tampering: bypasses write protection.

        Still subject to the write hook: the crash sweep must be able to
        kill the process model mid-shred or mid-reseal, and those paths
        commit through ``raw_write``.
        """
        self._check_bounds(offset, len(data))
        self._commit(offset, data)
        self.stats.raw_writes += 1

    def scrub(self, offset: int, size: int) -> int:
        """Destroy ``size`` bytes at *offset* — the one zero-fill behind
        every shred, scrub, sanitization and epoch drop.
        :data:`SCRUB_PASSES` overwrites through :meth:`raw_write`, so
        retired (write-protected) media are reached and every pass is a
        commit the write hook sees.  Returns the bytes destroyed."""
        zeros = bytes(size)
        for _ in range(SCRUB_PASSES):
            self.raw_write(offset, zeros)
        return size

    def raw_dump(self) -> bytes:
        """The full allocated region — what a forensic scan of the medium sees."""
        self.stats.raw_reads += 1
        return self._load(0, self._next_offset)

    # -- plumbing --------------------------------------------------------

    def _check_attached(self) -> None:
        if self._detached:
            raise DeviceError(f"device {self.device_id} is detached")

    def _check_bounds(self, offset: int, size: int) -> None:
        if offset < 0 or size < 0 or offset + size > self.capacity:
            raise DeviceError(
                f"I/O out of bounds on {self.device_id}: "
                f"offset={offset} size={size} capacity={self.capacity}"
            )

    def _store(self, offset: int, data: bytes) -> None:
        raise NotImplementedError

    def _storev(self, offset: int, buffers: list[bytes]) -> None:
        """Scatter-store fallback: one :meth:`_store` per buffer.
        Subclasses with real file handles override this to keep the
        whole run under a single descriptor operation."""
        for buffer in buffers:
            self._store(offset, buffer)
            offset += len(buffer)

    def _load(self, offset: int, size: int) -> bytes:
        raise NotImplementedError


class MemoryDevice(BlockDevice):
    """In-memory device over a bytearray."""

    def __init__(self, device_id: str, capacity: int) -> None:
        super().__init__(device_id, capacity)
        self._buffer = bytearray(capacity)

    def _store(self, offset: int, data: bytes) -> None:
        self._buffer[offset : offset + len(data)] = data

    def _load(self, offset: int, size: int) -> bytes:
        return bytes(self._buffer[offset : offset + size])


class FileBackedDevice(BlockDevice):
    """Device backed by a file on the host filesystem."""

    def __init__(self, device_id: str, capacity: int, path: str) -> None:
        super().__init__(device_id, capacity)
        self._path = path
        if not os.path.exists(path):
            with open(path, "wb") as handle:
                handle.truncate(capacity)
        else:
            actual = os.path.getsize(path)
            if actual != capacity:
                raise DeviceError(
                    f"backing file {path} is {actual} bytes, expected {capacity}"
                )

    def _store(self, offset: int, data: bytes) -> None:
        with open(self._path, "r+b") as handle:
            handle.seek(offset)
            handle.write(data)

    def _storev(self, offset: int, buffers: list[bytes]) -> None:
        with open(self._path, "r+b") as handle:
            handle.seek(offset)
            for buffer in buffers:
                handle.write(buffer)

    def _load(self, offset: int, size: int) -> bytes:
        with open(self._path, "rb") as handle:
            handle.seek(offset)
            data = handle.read(size)
        if len(data) != size:
            raise DeviceError(f"short read from backing file {self._path}")
        return data
