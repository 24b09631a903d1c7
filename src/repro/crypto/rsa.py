"""RSA signatures with deterministic padding (hash-then-sign).

Used for: signed custody-transfer events (provenance), signed migration
manifests, and signed audit anchors — the places where *non-repudiation*
matters, not just integrity.  MACs cannot provide non-repudiation
because both parties hold the key; signatures can.

Implementation notes
--------------------
* Default modulus is 1024 bits: fine for a simulation substrate, fast
  enough for tests.  (Real deployments would use >=3072-bit keys or a
  modern signature scheme; this module documents that explicitly rather
  than pretending.)
* Signing is "full-domain-hash style": the SHA-256 digest is embedded
  in a fixed, deterministic PKCS#1 v1.5-like padding block, then
  exponentiated.  Deterministic padding keeps signatures reproducible
  across runs, which the experiment harness relies on.
* The two CRT exponentiations run on libcrypto's constant-time
  ``BN_mod_exp_mont_consttime`` (exponent flagged ``BN_FLG_CONSTTIME``)
  and primes come from ``BN_generate_prime_ex``
  (:mod:`repro.crypto.libcrypto`).  Padding and recombination stay here,
  so signatures are byte-identical to the reference — ``pow`` and the
  Miller-Rabin search below, the fallback the tests compare against.
"""

from __future__ import annotations

import ctypes
import hashlib
import secrets
from collections.abc import Callable
from dataclasses import dataclass

from repro.crypto import libcrypto
from repro.errors import AuthenticationError, CryptoError

_MILLER_RABIN_ROUNDS = 40
_E = 65537
_BN_FLG_CONSTTIME = 0x04

# SHA-256 DigestInfo prefix from PKCS#1 v1.5.
_SHA256_PREFIX = bytes.fromhex("3031300d060960864801650304020105000420")

#: A fixed (base, exponent, odd modulus) and what ``pow`` gives for it:
#: the native kernel must agree before it is trusted.
_SELF_TEST = (3**300, 2**383 - 187, 2**521 - 1)
_SELF_TEST_RESIDUE = pow(*_SELF_TEST)

#: ``(modexp(base, exp, mod), random_prime(bits))``: native or reference.
_Kernel = tuple[Callable[[int, int, int], int], Callable[[int], int]]


def _is_probable_prime(candidate: int) -> bool:
    if candidate < 2:
        return False
    small_primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    for p in small_primes:
        if candidate % p == 0:
            return candidate == p
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(_MILLER_RABIN_ROUNDS):
        a = secrets.randbelow(candidate - 3) + 2
        x = pow(a, d, candidate)
        if x in (1, candidate - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, candidate)
            if x == candidate - 1:
                break
        else:
            return False
    return True


def _random_prime(bits: int) -> int:
    while True:
        candidate = secrets.randbits(bits) | (1 << (bits - 1)) | 1
        if _is_probable_prime(candidate):
            return candidate


def _native(
    bn_new, bin2bn, bn2binpad, clear_free, set_flags, ctx_new, ctx_free, mod_exp, generate_prime
) -> _Kernel:
    """``(modexp, random_prime)`` over the bound ``BIGNUM`` functions;
    raises :class:`~repro.crypto.libcrypto.NativeUnavailable` unless
    ``modexp`` agrees with ``pow`` on :data:`_SELF_TEST`."""

    def from_int(value: int) -> int | None:
        raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
        return bin2bn(raw, len(raw), None)

    def to_int(number: int, size: int) -> int:
        out = ctypes.create_string_buffer(size)
        if bn2binpad(number, out, size) != size:
            raise CryptoError("BN_bn2binpad failed")
        return int.from_bytes(out.raw, "big")

    def modexp(base: int, exp: int, mod: int) -> int:
        # Every BIGNUM here holds key material, so each is cleared as it
        # is freed; the context is per call (BN_CTX_free clears its
        # temporaries), so nothing outlives the call or crosses threads.
        ctx = ctx_new()
        numbers = [from_int(base), from_int(exp), from_int(mod), bn_new()]
        base_bn, exp_bn, mod_bn, result = numbers
        try:
            if not ctx or not all(numbers):
                raise CryptoError("BIGNUM allocation failed")
            set_flags(exp_bn, _BN_FLG_CONSTTIME)
            if mod_exp(result, base_bn, exp_bn, mod_bn, ctx, None) != 1:
                raise CryptoError("BN_mod_exp_mont_consttime failed")
            return to_int(result, (mod.bit_length() + 7) // 8)
        finally:
            for number in numbers:
                clear_free(number)  # a no-op on NULL, as is BN_CTX_free
            ctx_free(ctx)

    def random_prime(bits: int) -> int:
        prime = bn_new()
        try:
            if not prime or generate_prime(prime, bits, 0, None, None, None) != 1:
                raise CryptoError("BN_generate_prime_ex failed")
            return to_int(prime, (bits + 7) // 8)
        finally:
            clear_free(prime)

    if modexp(*_SELF_TEST) != _SELF_TEST_RESIDUE:
        raise libcrypto.NativeUnavailable("libcrypto self-test mismatch against pow")
    return modexp, random_prime


def _select_backend() -> tuple[_Kernel, str]:
    """``((modexp, random_prime), name)`` for this process: the native
    kernel when it binds and passes its self-test, else ``pow`` and the
    Miller-Rabin search with one warning."""
    c_int, c_void_p = ctypes.c_int, ctypes.c_void_p
    return libcrypto.select(
        "RSA",
        {
            "BN_new": (c_void_p, []),
            "BN_bin2bn": (c_void_p, [ctypes.c_char_p, c_int, c_void_p]),
            "BN_bn2binpad": (c_int, [c_void_p, c_void_p, c_int]),
            "BN_clear_free": (None, [c_void_p]),
            "BN_set_flags": (None, [c_void_p, c_int]),
            "BN_CTX_new": (c_void_p, []),
            "BN_CTX_free": (None, [c_void_p]),
            "BN_mod_exp_mont_consttime": (c_int, [c_void_p] * 6),
            "BN_generate_prime_ex": (c_int, [c_void_p, c_int, c_int, c_void_p, c_void_p, c_void_p]),
        },
        _native,
        (pow, _random_prime),
        "~0.6 ms per 768-bit signature instead of ~0.1 ms",
    )


(_modexp, _prime), BACKEND = _select_backend()


@dataclass(frozen=True)
class RsaPublicKey:
    """Verification half of an RSA key pair."""

    modulus: int
    exponent: int

    @property
    def byte_length(self) -> int:
        return (self.modulus.bit_length() + 7) // 8

    def fingerprint(self) -> str:
        """Stable hex identifier for this key (hash of n||e)."""
        material = self.modulus.to_bytes(self.byte_length, "big") + self.exponent.to_bytes(4, "big")
        return hashlib.sha256(material).hexdigest()[:16]

    def verify(self, message: bytes, signature: bytes) -> None:
        """Verify a signature; raises :class:`AuthenticationError` on failure."""
        k = self.byte_length
        if len(signature) != k:
            raise AuthenticationError("signature length mismatch")
        sig_int = int.from_bytes(signature, "big")
        if sig_int >= self.modulus:
            raise AuthenticationError("signature out of range")
        recovered = pow(sig_int, self.exponent, self.modulus).to_bytes(k, "big")
        expected = _pad_digest(hashlib.sha256(message).digest(), k)
        if recovered != expected:
            raise AuthenticationError("RSA signature verification failed")


def _pad_digest(digest: bytes, key_bytes: int) -> bytes:
    """PKCS#1 v1.5 type-1 padding around the SHA-256 DigestInfo."""
    payload = _SHA256_PREFIX + digest
    pad_len = key_bytes - len(payload) - 3
    if pad_len < 8:
        raise CryptoError("RSA modulus too small for SHA-256 signature")
    return b"\x00\x01" + b"\xff" * pad_len + b"\x00" + payload


@dataclass(frozen=True)
class RsaKeyPair:
    """An RSA key pair; ``public`` can be shared, the rest must not be.

    Signing uses the Chinese Remainder Theorem: two half-size
    exponentiations plus a recombination, ~4x faster than
    ``pow(m, d, n)`` and producing the identical signature.
    """

    public: RsaPublicKey
    private_exponent: int
    p: int
    q: int

    def __post_init__(self) -> None:
        # Precompute the CRT constants once; frozen dataclass, so set
        # through object.__setattr__.
        object.__setattr__(self, "_d_p", self.private_exponent % (self.p - 1))
        object.__setattr__(self, "_d_q", self.private_exponent % (self.q - 1))
        object.__setattr__(self, "_q_inv", pow(self.q, -1, self.p))

    def sign(self, message: bytes) -> bytes:
        """Deterministically sign SHA-256(message)."""
        k = self.public.byte_length
        padded = _pad_digest(hashlib.sha256(message).digest(), k)
        m_int = int.from_bytes(padded, "big")
        s_p = _modexp(m_int % self.p, self._d_p, self.p)
        s_q = _modexp(m_int % self.q, self._d_q, self.q)
        h = (self._q_inv * (s_p - s_q)) % self.p
        sig_int = (s_q + h * self.q) % self.public.modulus
        return sig_int.to_bytes(k, "big")


def generate_keypair(bits: int = 1024) -> RsaKeyPair:
    """Generate an RSA key pair with a *bits*-bit modulus."""
    if bits < 512:
        raise CryptoError("modulus must be at least 512 bits")
    if bits % 2:
        raise CryptoError("modulus bit length must be even")
    while True:
        p = _prime(bits // 2)
        q = _prime(bits // 2)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        if phi % _E == 0:
            continue
        return RsaKeyPair(
            public=RsaPublicKey(modulus=n, exponent=_E),
            private_exponent=pow(_E, -1, phi),
            p=p,
            q=q,
        )
