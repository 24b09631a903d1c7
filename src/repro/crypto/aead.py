"""Authenticated encryption: ChaCha20 + HMAC-SHA256, encrypt-then-MAC.

The composition is the classic generic one:

* encryption key and MAC key are derived from the master key with HKDF
  (domain-separated), so a single 32-byte key drives both;
* the MAC covers ``nonce || associated_data_length || associated_data
  || ciphertext``, so truncation and AD-swapping are detected;
* decryption verifies the MAC in constant time *before* touching the
  ciphertext.

HIPAA's integrity requirement ("data integrity must be ensured by means
of checksums, message authentication, or digital signatures") is met by
the MAC; confidentiality by the stream cipher.
"""

from __future__ import annotations

import secrets
import struct
from dataclasses import dataclass

from repro.crypto.chacha20 import KEY_SIZE, NONCE_SIZE, chacha20_xor
from repro.crypto.hmac_utils import constant_time_equal, hmac_sha256
from repro.crypto.kdf import derive_key
from repro.errors import AuthenticationError, CryptoError

TAG_SIZE = 32


@dataclass(frozen=True)
class AeadCiphertext:
    """A sealed box: nonce, ciphertext, MAC tag."""

    nonce: bytes
    ciphertext: bytes
    tag: bytes

    def to_bytes(self) -> bytes:
        """Wire format: ``nonce || tag || ciphertext``."""
        return self.nonce + self.tag + self.ciphertext

    @classmethod
    def from_bytes(cls, blob: bytes) -> "AeadCiphertext":
        if len(blob) < NONCE_SIZE + TAG_SIZE:
            raise CryptoError("AEAD blob too short")
        return cls(
            nonce=blob[:NONCE_SIZE],
            tag=blob[NONCE_SIZE : NONCE_SIZE + TAG_SIZE],
            ciphertext=blob[NONCE_SIZE + TAG_SIZE :],
        )


class AeadCipher:
    """Encrypt-then-MAC AEAD bound to one 32-byte master key."""

    def __init__(self, master_key: bytes) -> None:
        if len(master_key) != KEY_SIZE:
            raise CryptoError(f"master key must be {KEY_SIZE} bytes")
        self._enc_key = derive_key(master_key, "aead/encrypt")
        self._mac_key = derive_key(master_key, "aead/mac")

    @staticmethod
    def _mac_input(nonce: bytes, associated_data: bytes, ciphertext: bytes) -> bytes:
        return (
            nonce
            + struct.pack(">Q", len(associated_data))
            + associated_data
            + ciphertext
        )

    def encrypt(
        self,
        plaintext: bytes,
        associated_data: bytes = b"",
        nonce: bytes | None = None,
    ) -> AeadCiphertext:
        """Seal *plaintext*; a random nonce is drawn unless one is given.

        Passing an explicit nonce is for deterministic tests only —
        nonce reuse under the same key breaks confidentiality.
        """
        if nonce is None:
            nonce = secrets.token_bytes(NONCE_SIZE)
        elif len(nonce) != NONCE_SIZE:
            raise CryptoError(f"nonce must be {NONCE_SIZE} bytes")
        ciphertext = chacha20_xor(self._enc_key, nonce, plaintext)
        tag = hmac_sha256(self._mac_key, self._mac_input(nonce, associated_data, ciphertext))
        return AeadCiphertext(nonce=nonce, ciphertext=ciphertext, tag=tag)

    def decrypt(self, box: AeadCiphertext, associated_data: bytes = b"") -> bytes:
        """Open a sealed box; raises :class:`AuthenticationError` if the
        tag (and therefore the data or associated data) was altered."""
        expected = hmac_sha256(
            self._mac_key, self._mac_input(box.nonce, associated_data, box.ciphertext)
        )
        if not constant_time_equal(expected, box.tag):
            raise AuthenticationError("AEAD tag verification failed")
        return chacha20_xor(self._enc_key, box.nonce, box.ciphertext)


def encrypt_many(
    items: list[tuple["AeadCipher", bytes, bytes]],
) -> list[AeadCiphertext]:
    """Seal many ``(cipher, plaintext, associated_data)`` items at once.

    Byte-for-byte equivalent to calling :meth:`AeadCipher.encrypt` per
    item, each typically under a *different* data key.  This is the hot
    path of the engine's ``store_many``: version sealing and key
    wrapping both funnel through it.
    """
    nonces = [secrets.token_bytes(NONCE_SIZE) for _ in items]
    ciphertexts = [
        chacha20_xor(cipher._enc_key, nonce, plaintext)
        for (cipher, plaintext, _), nonce in zip(items, nonces)
    ]
    boxes = []
    for (cipher, _, associated_data), nonce, ciphertext in zip(
        items, nonces, ciphertexts
    ):
        tag = hmac_sha256(
            cipher._mac_key, cipher._mac_input(nonce, associated_data, ciphertext)
        )
        boxes.append(AeadCiphertext(nonce=nonce, ciphertext=ciphertext, tag=tag))
    return boxes


def decrypt_many(
    items: list[tuple["AeadCipher", AeadCiphertext, bytes]],
) -> list[bytes]:
    """Open many ``(cipher, box, associated_data)`` items at once.

    Every tag is verified (constant-time, per item) *before* any
    ciphertext is decrypted — the encrypt-then-MAC discipline of
    :meth:`AeadCipher.decrypt` holds for the whole batch, and a single
    forged box fails the batch exactly as the scalar call would fail.
    """
    for cipher, box, associated_data in items:
        expected = hmac_sha256(
            cipher._mac_key, cipher._mac_input(box.nonce, associated_data, box.ciphertext)
        )
        if not constant_time_equal(expected, box.tag):
            raise AuthenticationError("AEAD tag verification failed")
    return [chacha20_xor(cipher._enc_key, box.nonce, box.ciphertext) for cipher, box, _ in items]
