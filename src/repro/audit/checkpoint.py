"""Persisted verification watermarks for the audit log.

A full :meth:`~repro.audit.log.AuditLog.verify_chain` pass is O(archive
lifetime): it re-reads and re-hashes every journaled event.  Over a
30-year log that cost is paid again on *every* forensic query and every
operational health check.  Following the checkpoint idea of history-
tree audit systems (Crosby & Wallach), a successful verification seals
a **verified watermark** — ``(size, head, merkle_root)`` — so the next
verification replays only events past the watermark and ties them to
the sealed prefix with Merkle consistency proofs.

The watermark itself lives on an untrusted device (the raw-device
insider can rewrite anything), so every sealed frame carries an
HMAC-SHA256 tag under a key derived from the HSM-held master key:

* the adversary cannot *forge* a watermark that launders tampering —
  an invalid tag is skipped and verification falls back to an older
  watermark or to a full rescan;
* the adversary can only *destroy* watermarks, which fails safe: less
  sealed prefix means more work re-verified, never less detection;
* a crash that tears a seal write is dropped whole by the journal's
  frame validation, so recovery falls back to full verification rather
  than trusting a torn watermark.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

from repro.crypto.hmac_utils import constant_time_equal, hmac_sha256
from repro.storage.block import BlockDevice, MemoryDevice
from repro.storage.journal import Journal
from repro.util.clock import Clock, WallClock
from repro.util.encoding import canonical_bytes, canonical_loads

_TAG_BYTES = 32


@dataclass(frozen=True)
class VerifiedWatermark:
    """State sealed by one successful chain verification.

    ``incremental_runs`` counts incremental verifications since the
    last full rescan — the forced-rescan cadence reads it back after a
    restart so an adversary cannot reset the clock by crashing the
    process.
    """

    size: int
    head: bytes
    merkle_root: bytes
    verified_at: float
    incremental_runs: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "VerifiedWatermark":
        return cls(**data)

    def bumped(self) -> "VerifiedWatermark":
        """The same watermark after one more incremental run."""
        return replace(self, incremental_runs=self.incremental_runs + 1)


class CheckpointStore:
    """MACed, journal-backed persistence for verified watermarks.

    Frames are ``tag(32) || canonical(watermark)`` appended to a
    dedicated journal.  :meth:`latest` walks frames newest-first and
    returns the first one whose tag verifies — forged or damaged frames
    are skipped, so the worst an adversary (or a crash) achieves is a
    fall-back to an older watermark or to full verification.
    """

    def __init__(
        self,
        device: BlockDevice | None = None,
        key: bytes = b"",
        clock: Clock | None = None,
    ) -> None:
        """Open the store on *device* (a blank one by default).  The
        journal drops a crash-torn tail frame whole, so a seal
        interrupted mid-write simply does not exist afterwards — the log
        falls back to the previous watermark, or to a full rescan when
        none survives."""
        if not key:
            raise ValueError(
                "CheckpointStore needs a MAC key: an unkeyed watermark on an "
                "untrusted device would let the insider launder tampering"
            )
        self._journal = Journal(device or MemoryDevice("audit-ckpt", 1 << 22))
        self._key = key
        self._clock = clock or WallClock()

    @property
    def device(self) -> BlockDevice:
        return self._journal.device

    def seal(self, watermark: VerifiedWatermark) -> None:
        """Persist one watermark as a single journal frame."""
        payload = canonical_bytes(watermark.to_dict())
        self._journal.append(hmac_sha256(self._key, payload) + payload)

    def latest(self) -> VerifiedWatermark | None:
        """The newest watermark whose MAC verifies, else None."""
        for sequence in range(len(self._journal) - 1, -1, -1):
            try:
                frame = self._journal.read(sequence)
            except Exception:  # noqa: BLE001 — damaged frame: keep walking back
                continue
            if len(frame) <= _TAG_BYTES:
                continue
            tag, payload = frame[:_TAG_BYTES], frame[_TAG_BYTES:]
            if not constant_time_equal(hmac_sha256(self._key, payload), tag):
                continue  # forged or bit-rotted: never trusted
            try:
                return VerifiedWatermark.from_dict(canonical_loads(payload))
            except Exception:  # noqa: BLE001
                continue
        return None
