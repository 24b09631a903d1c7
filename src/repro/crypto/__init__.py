"""Cryptographic substrate.

No crypto package is a declared dependency, so every primitive the
compliant store needs is implemented here on top of :mod:`hashlib`/
:mod:`hmac` — and, for the stream cipher alone, the libcrypto those
modules already link:

* SHA-256 hashing helpers and digest chaining (:mod:`repro.crypto.hashing`)
* HMAC + constant-time comparison (:mod:`repro.crypto.hmac_utils`)
* Merkle trees with inclusion and consistency proofs (:mod:`repro.crypto.merkle`)
* ChaCha20 stream cipher, RFC 8439: OpenSSL's kernel through
  :mod:`ctypes`, a pure-Python reference as fallback
  (:mod:`repro.crypto.chacha20`)
* Encrypt-then-MAC AEAD over ChaCha20+HMAC (:mod:`repro.crypto.aead`)
* HKDF key derivation (:mod:`repro.crypto.kdf`)
* RSA signatures with Miller-Rabin keygen (:mod:`repro.crypto.rsa`)
* A shreddable key hierarchy (:mod:`repro.crypto.keys`) — the basis of
  secure deletion by key destruction.
"""

from repro.crypto.aead import AeadCipher, AeadCiphertext
from repro.crypto.chacha20 import chacha20_keystream, chacha20_xor
from repro.crypto.hashing import (
    DIGEST_SIZE,
    chain_digest,
    hash_canonical,
    hash_chunks,
    sha256,
)
from repro.crypto.hmac_utils import constant_time_equal, hmac_sha256, verify_hmac
from repro.crypto.kdf import hkdf_expand, hkdf_extract, derive_key
from repro.crypto.keys import KeyHandle, KeyStore, ShreddedKeyError
from repro.crypto.merkle import MerkleProof, MerkleTree, verify_inclusion
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey, generate_keypair
from repro.crypto.signatures import Signer, Verifier, SignedPayload

__all__ = [
    "AeadCipher",
    "AeadCiphertext",
    "chacha20_keystream",
    "chacha20_xor",
    "DIGEST_SIZE",
    "chain_digest",
    "hash_canonical",
    "hash_chunks",
    "sha256",
    "constant_time_equal",
    "hmac_sha256",
    "verify_hmac",
    "hkdf_expand",
    "hkdf_extract",
    "derive_key",
    "KeyHandle",
    "KeyStore",
    "ShreddedKeyError",
    "MerkleProof",
    "MerkleTree",
    "verify_inclusion",
    "RsaKeyPair",
    "RsaPublicKey",
    "generate_keypair",
    "Signer",
    "Verifier",
    "SignedPayload",
]
