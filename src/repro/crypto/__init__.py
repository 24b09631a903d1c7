"""Cryptographic substrate.

No crypto package is a declared dependency, so every primitive the
compliant store needs is implemented here on top of :mod:`hashlib`/
:mod:`hmac` — and, for the stream cipher and RSA signing, the libcrypto
those modules already link (:mod:`repro.crypto.libcrypto`):

* SHA-256 hashing helpers and digest chaining (:mod:`repro.crypto.hashing`)
* HMAC + constant-time comparison (:mod:`repro.crypto.hmac_utils`)
* Merkle trees with inclusion and consistency proofs (:mod:`repro.crypto.merkle`)
* ChaCha20 stream cipher, RFC 8439: OpenSSL's kernel through
  :mod:`ctypes`, a pure-Python reference as fallback
  (:mod:`repro.crypto.chacha20`)
* Encrypt-then-MAC AEAD over ChaCha20+HMAC (:mod:`repro.crypto.aead`)
* HKDF key derivation (:mod:`repro.crypto.kdf`)
* RSA signatures, the private exponent processed in constant time by
  OpenSSL's ``BIGNUM``, pure-Python reference as fallback
  (:mod:`repro.crypto.rsa`)
* A shreddable key hierarchy (:mod:`repro.crypto.keys`) — the basis of
  secure deletion by key destruction.

Callers import each name from the module that defines it; the package
itself re-exports nothing.
"""
