"""Shreddable key hierarchy — the engine behind secure deletion.

HIPAA §164.310(d)(2)(i-ii) requires trustworthy *disposal* of records
and sanitization of media before re-use.  Overwriting alone is slow and
unverifiable on some media; the standard compliance technique is
**cryptographic deletion**: encrypt every record under its own key, and
destroy the key to render the ciphertext permanently unreadable — even
on stolen media or forgotten backups.

:class:`KeyStore` implements this:

* every record gets a fresh random data key, wrapped (encrypted) under
  the store's master key and held in the keystore;
* :meth:`KeyStore.shred` destroys the wrapped key material and records
  a tombstone with the shredding timestamp (itself auditable);
* using a shredded key raises :class:`ShreddedKeyError`, and nothing in
  the store retains enough material to reconstruct it.

The keystore also supports exporting wrapped keys for backup — backups
made *before* a shred still contain the wrapped key, which is why the
disposition workflow (:mod:`repro.retention.disposition`) must shred
the key in every replica; the backup manager cooperates.
"""

from __future__ import annotations

import secrets
from collections import OrderedDict
from dataclasses import dataclass

from repro.crypto.aead import AeadCipher, AeadCiphertext, encrypt_many
from repro.crypto.chacha20 import KEY_SIZE
from repro.errors import KeyManagementError
from repro.storage.block import BlockDevice, MemoryDevice
from repro.storage.journal import HEADER_SIZE, Journal
from repro.util.clock import Clock, WallClock
from repro.util.encoding import canonical_bytes, canonical_loads
from repro.util.metrics import METRICS

_CIPHER_CACHE_CAPACITY = 4096


class ShreddedKeyError(KeyManagementError):
    """The requested key was cryptographically destroyed."""


@dataclass(frozen=True)
class KeyHandle:
    """Opaque reference to a data key held in a :class:`KeyStore`."""

    key_id: str


@dataclass
class _KeyEntry:
    wrapped: AeadCiphertext | None  # None once shredded
    created_at: float
    shredded_at: float | None = None
    label: str = ""


def _escrow_frame(
    key_id: str, label: str, created_at: float, wrapped: AeadCiphertext
) -> bytes:
    """The one escrow frame of a wrapped key, minted or imported."""
    return canonical_bytes({
        "kind": "key", "key_id": key_id, "label": label,
        "created_at": created_at, "wrapped": wrapped.to_bytes(),
    })


def _serial(key_id: str) -> int:
    """The mint counter a key id was minted at (0 for a foreign id)."""
    serial = key_id.rpartition("-")[2]
    return int(serial) if serial.isdecimal() else 0


class KeyStore:
    """Per-record data keys wrapped under a master key, with shredding.

    The master key itself never leaves the constructor argument; in a
    real deployment it would live in an HSM.  Here it is held in memory,
    which is faithful enough for the threat experiments: the insider
    adversary in :mod:`repro.threats` gets raw *device* access, not
    memory access.
    """

    def __init__(
        self,
        master_key: bytes,
        clock: Clock | None = None,
        device: BlockDevice | None = None,
    ) -> None:
        """Open the keystore on its escrow *device* (a blank one by
        default), replaying the wrapped keys and shred tombstones
        already on it under the HSM-held master key.

        Every wrapped key (and every shred tombstone) is escrowed, so a
        restarted store rebuilds its key hierarchy from the device + the
        master key.  The frames hold only AEAD ciphertext wrapped under
        the master key, so the insider with the device learns nothing —
        and shredding physically zeroes the wrapped bytes, keeping
        cryptographic deletion honest even if the master key later
        leaks.

        The replay uses the journal's *lenient* frame walk: frames whose
        payload no longer checksums (physically destroyed wrapped keys,
        or a torn crash tail) are skipped, frames that parse are
        replayed.  A key whose frame is destroyed but whose tombstone
        survived is a recorded shred; a destroyed frame with no
        tombstone (crash between zeroing and the tombstone append)
        opens as an anonymous shredded entry all the same — the data
        key is gone either way.
        """
        if len(master_key) != KEY_SIZE:
            raise KeyManagementError(f"master key must be {KEY_SIZE} bytes")
        self._wrapper = AeadCipher(master_key)
        self._clock = clock or WallClock()
        self._entries: dict[str, _KeyEntry] = {}
        self._escrow_extents: dict[str, tuple[int, int]] = {}
        # Unwrap + HKDF memo: key_id -> ready AeadCipher.  Shredding
        # MUST invalidate (see shred/invalidate_cached) — a hit after a
        # shred would resurrect a destroyed key.
        self._cipher_cache: OrderedDict[str, AeadCipher] = OrderedDict()
        device = device or MemoryDevice("keys", 1 << 22)
        extents: list[tuple[int, int]] = []
        highest = 0
        for offset, payload, checksum_ok in Journal.walk_frames(device):
            extents.append((offset, len(payload)))
            if not checksum_ok:
                continue
            try:
                frame = canonical_loads(payload)
                kind = frame["kind"]
            except Exception:
                continue  # residue of a destroyed frame; carries no key
            if kind == "key":
                key_id = frame["key_id"]
                self._entries[key_id] = _KeyEntry(
                    wrapped=AeadCiphertext.from_bytes(frame["wrapped"]),
                    created_at=frame["created_at"],
                    label=frame["label"],
                )
                self._escrow_extents[key_id] = (offset + HEADER_SIZE, len(payload))
            elif kind == "shred":
                key_id = frame["key_id"]
                entry = self._entries.get(key_id)
                if entry is None:
                    entry = _KeyEntry(wrapped=None, created_at=frame["at"])
                    self._entries[key_id] = entry
                entry.wrapped = None
                entry.shredded_at = frame["at"]
                entry.label = frame.get("label", entry.label)
                self._escrow_extents.pop(key_id, None)
            if "key_id" in frame:
                highest = max(highest, _serial(frame["key_id"]))
        self._counter = highest
        # Future appends continue after the last intact frame; the torn
        # tail (if any) is dead space the allocator reclaims.
        self._escrow = Journal.adopt(device, extents)

    @property
    def device(self) -> BlockDevice:
        """The escrow device."""
        return self._escrow.device

    def __len__(self) -> int:
        return len(self._entries)

    def create_key(self, label: str = "") -> KeyHandle:
        """Mint a fresh random data key and return its handle.

        The wrapped key is journaled *before* the in-memory entry
        exists: a crash mid-escrow loses an unused key, never a
        used-but-unrecoverable one.
        """
        return self.create_keys([label])[0]

    def create_keys(self, labels: list[str]) -> list[KeyHandle]:
        """Mint fresh data keys, one per label — the only minting path.

        All the wraps run through one vectorized AEAD pass and the
        escrow frames (one per key) land in one journal flush.  The
        whole batch of wrapped keys is journaled *before* any in-memory
        entry exists, so a crash mid-escrow loses unused keys, never a
        used-but-unrecoverable one.
        """
        if not labels:
            return []
        created_at = self._clock.now()
        key_ids = []
        data_keys = []
        for _ in labels:
            self._counter += 1
            key_ids.append(f"key-{self._counter:08d}")
            data_keys.append(secrets.token_bytes(KEY_SIZE))
        data_key_by_id = dict(zip(key_ids, data_keys))
        wrapped_boxes = encrypt_many(
            [
                (self._wrapper, data_key, key_id.encode())
                for key_id, data_key in zip(key_ids, data_keys)
            ]
        )
        payloads = [
            _escrow_frame(key_id, label, created_at, wrapped)
            for key_id, label, wrapped in zip(key_ids, labels, wrapped_boxes)
        ]
        for key_id, entry in zip(key_ids, self._escrow.append_many(payloads)):
            self._escrow_extents[key_id] = (entry.offset + HEADER_SIZE, entry.length)
        for key_id, label, wrapped in zip(key_ids, labels, wrapped_boxes):
            self._entries[key_id] = _KeyEntry(
                wrapped=wrapped, created_at=created_at, label=label
            )
            # Pre-warm the unwrap memo: the plaintext data key is in hand
            # right now, so the first cipher_for() should not have to
            # unwrap what we just wrapped.  Identical cache state to a
            # cipher_for() miss, so shred's invalidation covers it.
            self._cipher_cache[key_id] = AeadCipher(data_key_by_id[key_id])
        while len(self._cipher_cache) > _CIPHER_CACHE_CAPACITY:
            self._cipher_cache.popitem(last=False)
        return [KeyHandle(key_id=key_id) for key_id in key_ids]

    def _entry(self, handle: KeyHandle, live: bool = False) -> _KeyEntry:
        """The entry behind *handle*; a *live* one must not be shredded."""
        entry = self._entries.get(handle.key_id)
        if entry is None:
            raise KeyManagementError(f"unknown key {handle.key_id}")
        if live and entry.wrapped is None:
            raise ShreddedKeyError(f"key {handle.key_id} was shredded")
        return entry

    def cipher_for(self, handle: KeyHandle) -> AeadCipher:
        """Unwrap the data key and return an AEAD cipher bound to it.

        Raises :class:`ShreddedKeyError` if the key was destroyed and
        :class:`KeyManagementError` if the handle is unknown.
        """
        entry = self._entry(handle, live=True)
        cached = self._cipher_cache.get(handle.key_id)
        if cached is not None:
            METRICS.incr("kdf_cache_hits")
            self._cipher_cache.move_to_end(handle.key_id)
            return cached
        METRICS.incr("kdf_cache_misses")
        data_key = self._wrapper.decrypt(entry.wrapped, associated_data=handle.key_id.encode())
        cipher = AeadCipher(data_key)
        self._cipher_cache[handle.key_id] = cipher
        while len(self._cipher_cache) > _CIPHER_CACHE_CAPACITY:
            self._cipher_cache.popitem(last=False)
        return cipher

    def invalidate_cached(self, handle: KeyHandle) -> None:
        """Drop the memoized cipher for *handle* — the only derived
        material the keystore holds.  The shredder calls this;
        :meth:`shred` also calls it internally, so destroyed keys can
        never be served from a cache.
        """
        if self._cipher_cache.pop(handle.key_id, None) is not None:
            METRICS.incr("kdf_cache_invalidations")

    def shred(self, handle: KeyHandle) -> float:
        """Destroy the wrapped key material; returns the shred timestamp.

        Idempotent: shredding an already-shredded key returns the
        original timestamp.  The cipher memo is purged first — after
        this returns, no path through the keystore can decrypt the key's
        ciphertexts.  The wrapped key is never unwrapped on the way: a
        key whose escrowed blob no longer authenticates (altered on the
        device) is destroyed like any other.
        """
        entry = self._entry(handle)
        if entry.wrapped is None:
            assert entry.shredded_at is not None
            return entry.shredded_at
        self.invalidate_cached(handle)
        entry.wrapped = None
        entry.shredded_at = self._clock.now()
        # Physically destroy the escrowed wrapped key (zeroing the
        # payload breaks its frame checksum — the lenient walk on open
        # treats the hole as a destroyed key), then journal a tombstone
        # so the shred itself survives a restart.
        extent = self._escrow_extents.pop(handle.key_id, None)
        if extent is not None:
            self._escrow.device.scrub(*extent)
        # The tombstone carries the label: the wrapped-key frame it
        # refers to is now zeroed, and a restart still needs to map the
        # destroyed key back to its record.
        self._escrow.append(
            canonical_bytes(
                {
                    "kind": "shred",
                    "key_id": handle.key_id,
                    "label": entry.label,
                    "at": entry.shredded_at,
                }
            )
        )
        return entry.shredded_at

    def is_shredded(self, handle: KeyHandle) -> bool:
        """Whether the key has been destroyed."""
        return self._entry(handle).wrapped is None

    def export_wrapped(self, handle: KeyHandle) -> bytes:
        """Export the wrapped (still-encrypted) key for backup transport."""
        entry = self._entry(handle, live=True)
        return entry.wrapped.to_bytes()

    def import_wrapped(self, key_id: str, blob: bytes, label: str = "") -> KeyHandle:
        """Import a wrapped key previously exported from a store sharing
        the same master key (restore path).  It is escrowed like a minted
        key, so a reopen keeps it, and no later mint reuses its id."""
        if key_id in self._entries:
            # a live key is never overwritten, a shredded one never revived
            raise KeyManagementError(f"key {key_id} already present")
        wrapped = AeadCiphertext.from_bytes(blob)
        # Verify the blob unwraps under our master key before accepting it.
        self._wrapper.decrypt(wrapped, associated_data=key_id.encode())
        created_at = self._clock.now()
        entry = self._escrow.append(_escrow_frame(key_id, label, created_at, wrapped))
        self._escrow_extents[key_id] = (entry.offset + HEADER_SIZE, entry.length)
        self._entries[key_id] = _KeyEntry(
            wrapped=wrapped, created_at=created_at, label=label
        )
        self._counter = max(self._counter, _serial(key_id))
        return KeyHandle(key_id=key_id)

    def handles(self) -> list[KeyHandle]:
        """All handles ever minted (shredded ones included)."""
        return [KeyHandle(key_id=key_id) for key_id in sorted(self._entries)]

    def labelled_handles(self) -> dict[str, KeyHandle]:
        """label -> handle for every labelled entry (shredded included;
        when a label was reused, the newest key wins)."""
        out: dict[str, KeyHandle] = {}
        for key_id in sorted(self._entries):
            label = self._entries[key_id].label
            if label:
                out[label] = KeyHandle(key_id=key_id)
        return out

    def shredded_handles(self) -> list[KeyHandle]:
        """Handles whose keys have been destroyed."""
        return [
            KeyHandle(key_id=key_id)
            for key_id, entry in sorted(self._entries.items())
            if entry.wrapped is None
        ]
