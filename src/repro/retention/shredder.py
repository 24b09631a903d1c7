"""Secure destruction of stored data.

Two independent mechanisms, applied together:

1. **Key shredding** — the record's data key is destroyed in the
   :class:`~repro.crypto.keys.KeyStore`.  From that instant the
   ciphertext is computationally unreadable everywhere it exists,
   including backups the shredder cannot reach (their wrapped key is
   what got destroyed).
2. **Extent overwrite** — the record's bytes on the primary device are
   scrubbed (:meth:`~repro.storage.block.BlockDevice.scrub`).  Defense in depth:
   even the ciphertext disappears, so future cryptanalytic surprises or
   key-escrow compromises cannot resurrect the record from this medium.

The shredder never decides *whether* destruction is lawful — that's the
disposition workflow's job; it refuses to run unless handed an *allow*
:class:`~repro.policy.model.Decision` made for the destruction action
and covering the object (the old ``authorized=True`` boolean could be
forged by any call site without leaving a decision trail), keeping the
two concerns impossible to shortcut.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.crypto.keys import KeyHandle, KeyStore
from repro.policy.model import Decision, ensure_destruction_authorized
from repro.storage.block import SCRUB_PASSES, BlockDevice


@dataclass(frozen=True)
class ShredReport:
    """Evidence of one physical+cryptographic destruction."""

    object_id: str
    key_shredded: bool
    key_shredded_at: float | None
    extents_overwritten: int
    bytes_overwritten: int
    overwrite_passes: int = SCRUB_PASSES  # fixed: every scrub is the same


class SecureShredder:
    """Destroys record data under disposition authority."""

    def __init__(self, keystore: KeyStore) -> None:
        self._keystore = keystore
        self._cache_purges: list[Callable[[], Any]] = []

    def bind_cache(self, purge: Callable[[], Any]) -> None:
        """Register a derived-material cache to purge after every
        successful shred.

        Every memo that holds (or can regenerate) material derived from
        destroyed data — the aggregated-signature root memo, ed25519 key
        expansions, the cold store's decrypted members — is registered
        here, so a shred empties them all without any call site having
        to remember each cache.  Policy decisions need no entry: the
        policy engine remembers none."""
        self._cache_purges.append(purge)

    def shred(
        self,
        object_id: str,
        key_handle: KeyHandle | None,
        extents: list[tuple[BlockDevice, int, int]],
        authorization: Decision | None = None,
    ) -> ShredReport:
        """Destroy one object's key and bytes.

        *extents* is a list of (device, offset, size) ranges holding the
        object's ciphertext.  *authorization* must be an allow
        :class:`~repro.policy.model.Decision` for the destruction
        action covering this object — callers obtain it from the
        disposition workflow; passing ``None`` (or a denial, or a
        decision about anything else) raises, which keeps ad-hoc
        destruction out of the codebase.
        """
        ensure_destruction_authorized(authorization, object_id)
        shredded_at = None
        if key_handle is not None:
            shredded_at = self._keystore.shred(key_handle)
            # Belt and braces: shred() already purges the cipher memo,
            # but destruction must never depend on one call site
            # remembering to — invalidate explicitly.
            self._keystore.invalidate_cached(key_handle)
        bytes_overwritten = sum(
            device.scrub(offset, size) for device, offset, size in extents
        )
        for purge in self._cache_purges:
            purge()
        return ShredReport(
            object_id=object_id,
            key_shredded=key_handle is not None,
            key_shredded_at=shredded_at,
            extents_overwritten=len(extents),
            bytes_overwritten=bytes_overwritten,
        )

    def verify_destroyed(
        self,
        key_handle: KeyHandle | None,
        extents: list[tuple[BlockDevice, int, int]],
    ) -> bool:
        """Post-destruction audit: key gone AND extents zeroed."""
        if key_handle is not None and not self._keystore.is_shredded(key_handle):
            return False
        for device, offset, size in extents:
            if any(device.raw_read(offset, size)):
                return False
        return True
