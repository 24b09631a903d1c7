"""Ed25519 signatures (RFC 8032), pure Python.

An alternative :class:`~repro.crypto.signatures.Signer` backend to
RSA-CRT: deterministic, small keys (32-byte seed, 32-byte public key,
64-byte signature), no padding to get wrong.  The curve arithmetic uses
extended homogeneous coordinates (RFC 8032 §5.1.4) over
``p = 2**255 - 19`` with plain double-and-add scalar multiplication —
adequate here because aggregated batch signing (one signature per batch
root) keeps the sign count per ingest batch at one.

Key expansion (seed -> clamped scalar + prefix + public key) costs a
SHA-512 and a base-point multiplication, so expansions are memoized per
seed in an LRU.  The memo holds key-equivalent material, so
:func:`purge_ed25519_memo` is registered with the shredder's
``bind_cache`` purges, the same contract the keystore's cipher memo
honours.
"""

from __future__ import annotations

import hashlib
import secrets
from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import AuthenticationError, CryptoError

P = 2**255 - 19
L = 2**252 + 27742317777372353535851937790883648493
_D = (-121665 * pow(121666, P - 2, P)) % P

SEED_SIZE = 32
PUBLIC_KEY_SIZE = 32
SIGNATURE_SIZE = 64

# Extended coordinates (X, Y, Z, T) with x = X/Z, y = Y/Z, T = XY/Z.
_IDENTITY = (0, 1, 1, 0)

_BASE_Y = (4 * pow(5, P - 2, P)) % P


def _recover_x(y: int, sign: int) -> int:
    """x from y on the curve -x^2 + y^2 = 1 + d x^2 y^2 (RFC 8032 §5.1.3)."""
    if y >= P:
        raise CryptoError("ed25519 point decoding failed: y out of range")
    x2 = (y * y - 1) * pow(_D * y * y + 1, P - 2, P) % P
    if x2 == 0:
        if sign:
            raise CryptoError("ed25519 point decoding failed: bad sign bit")
        return 0
    x = pow(x2, (P + 3) // 8, P)
    if (x * x - x2) % P != 0:
        x = x * pow(2, (P - 1) // 4, P) % P
    if (x * x - x2) % P != 0:
        raise CryptoError("ed25519 point decoding failed: not a square")
    if x & 1 != sign:
        x = P - x
    return x


_BASE_X = _recover_x(_BASE_Y, 0)
_BASE = (_BASE_X, _BASE_Y, 1, (_BASE_X * _BASE_Y) % P)


def _point_add(p1: tuple[int, int, int, int], p2: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    x1, y1, z1, t1 = p1
    x2, y2, z2, t2 = p2
    a = (y1 - x1) * (y2 - x2) % P
    b = (y1 + x1) * (y2 + x2) % P
    c = 2 * t1 * t2 * _D % P
    d = 2 * z1 * z2 % P
    e, f, g, h = b - a, d - c, d + c, b + a
    return (e * f % P, g * h % P, f * g % P, e * h % P)


def _point_mul(scalar: int, point: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    result = _IDENTITY
    while scalar:
        if scalar & 1:
            result = _point_add(result, point)
        point = _point_add(point, point)
        scalar >>= 1
    return result


def _point_compress(point: tuple[int, int, int, int]) -> bytes:
    x, y, z, _ = point
    z_inv = pow(z, P - 2, P)
    x, y = x * z_inv % P, y * z_inv % P
    return (y | ((x & 1) << 255)).to_bytes(32, "little")


def _point_decompress(data: bytes) -> tuple[int, int, int, int]:
    if len(data) != 32:
        raise CryptoError("ed25519 point must be 32 bytes")
    encoded = int.from_bytes(data, "little")
    y = encoded & ((1 << 255) - 1)
    sign = encoded >> 255
    x = _recover_x(y, sign)
    return (x, y, 1, (x * y) % P)


def _point_equal(p1: tuple[int, int, int, int], p2: tuple[int, int, int, int]) -> bool:
    x1, y1, z1, _ = p1
    x2, y2, z2, _ = p2
    return (x1 * z2 - x2 * z1) % P == 0 and (y1 * z2 - y2 * z1) % P == 0


def _sha512_int(*parts: bytes) -> int:
    h = hashlib.sha512()
    for part in parts:
        h.update(part)
    return int.from_bytes(h.digest(), "little")


class _KeyMemo:
    """LRU of seed -> (clamped scalar, prefix, public key bytes)."""

    def __init__(self, capacity: int = 64) -> None:
        self.capacity = capacity
        self._entries: OrderedDict[bytes, tuple[int, bytes, bytes]] = OrderedDict()

    def expand(self, seed: bytes) -> tuple[int, bytes, bytes]:
        cached = self._entries.get(seed)
        if cached is not None:
            self._entries.move_to_end(seed)
            return cached
        digest = hashlib.sha512(seed).digest()
        scalar = int.from_bytes(digest[:32], "little")
        scalar &= (1 << 254) - 8
        scalar |= 1 << 254
        prefix = digest[32:]
        public = _point_compress(_point_mul(scalar, _BASE))
        entry = (scalar, prefix, public)
        self._entries[seed] = entry
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return entry

    def purge(self, seed: bytes | None = None) -> int:
        if seed is None:
            count = len(self._entries)
            self._entries.clear()
            return count
        return 1 if self._entries.pop(seed, None) is not None else 0

    def __len__(self) -> int:
        return len(self._entries)


_KEY_MEMO = _KeyMemo()


def purge_ed25519_memo(seed: bytes | None = None) -> int:
    """Drop memoized key expansions (all, or one seed's).  Wired into the
    shredder purge path: expanded scalars are key-equivalent material and
    must not outlive a shredded key in process memory."""
    return _KEY_MEMO.purge(seed)


@dataclass(frozen=True)
class Ed25519PublicKey:
    """Verification half: the 32-byte compressed public point."""

    key_bytes: bytes

    def fingerprint(self) -> str:
        return hashlib.sha256(b"ed25519" + self.key_bytes).hexdigest()[:32]

    def verify(self, message: bytes, signature: bytes) -> None:
        """Raises :class:`AuthenticationError` unless *signature* is a
        valid ed25519 signature over *message* by this key."""
        if len(signature) != SIGNATURE_SIZE:
            raise AuthenticationError("ed25519 signature must be 64 bytes")
        try:
            a_point = _point_decompress(self.key_bytes)
            r_point = _point_decompress(signature[:32])
        except CryptoError as exc:
            raise AuthenticationError(f"ed25519 verification failed: {exc}") from exc
        s = int.from_bytes(signature[32:], "little")
        if s >= L:
            raise AuthenticationError("ed25519 signature scalar out of range")
        k = _sha512_int(signature[:32], self.key_bytes, message) % L
        left = _point_mul(s, _BASE)
        right = _point_add(r_point, _point_mul(k, a_point))
        if not _point_equal(left, right):
            raise AuthenticationError("ed25519 signature verification failed")


@dataclass(frozen=True)
class Ed25519KeyPair:
    """Signing half, derived entirely from a 32-byte seed (RFC 8032).

    A plain frozen dataclass of bytes, so it is picklable — worker
    processes rebuild shard engines from serialized specs that include
    the signing keypair.
    """

    seed: bytes

    def __post_init__(self) -> None:
        if len(self.seed) != SEED_SIZE:
            raise CryptoError(f"ed25519 seed must be {SEED_SIZE} bytes")

    @property
    def public(self) -> Ed25519PublicKey:
        _, _, public = _KEY_MEMO.expand(self.seed)
        return Ed25519PublicKey(public)

    def sign(self, message: bytes) -> bytes:
        scalar, prefix, public = _KEY_MEMO.expand(self.seed)
        r = _sha512_int(prefix, message) % L
        r_bytes = _point_compress(_point_mul(r, _BASE))
        k = _sha512_int(r_bytes, public, message) % L
        s = (r + k * scalar) % L
        return r_bytes + s.to_bytes(32, "little")


def generate_ed25519_keypair(seed: bytes | None = None) -> Ed25519KeyPair:
    """A fresh (or seed-derived, for tests) ed25519 keypair."""
    return Ed25519KeyPair(seed=seed if seed is not None else secrets.token_bytes(SEED_SIZE))
