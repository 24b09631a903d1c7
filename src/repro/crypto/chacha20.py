"""ChaCha20 stream cipher (RFC 8439): a native kernel and a reference.

Encryption at rest runs on OpenSSL's ``EVP_chacha20`` from the shared
libcrypto binding (:mod:`repro.crypto.libcrypto`).  One call is one EVP
init plus one update; the XOR happens in C, at ~3 us for one block and
~5 us for 128.

The kernel is trusted once it reproduces the RFC 8439 section 2.4.2
vector; otherwise the pure-Python block function below runs, which
``tests/crypto/test_chacha20.py`` also holds the kernel to over random
keys, nonces, counters and lengths.

Both paths sit behind the same parameter and counter-overflow checks.
OpenSSL wraps the 32-bit block counter silently; RFC 8439 gives no
meaning to a stream that runs past it, so the check in front refuses.

Nothing here keeps state between calls: no keystream is cached, so a
shredded key leaves nothing derived from it in this module.
"""

from __future__ import annotations

import ctypes
import struct
from collections.abc import Callable

from repro.crypto import libcrypto
from repro.errors import CryptoError

KEY_SIZE = 32
NONCE_SIZE = 12
BLOCK_SIZE = 64

_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)
_MASK = 0xFFFFFFFF

#: RFC 8439 section 2.4.2: key 00..1f, this nonce, counter 1.  The
#: native kernel must reproduce the ciphertext before it is trusted.
_SELF_TEST_NONCE = bytes.fromhex("000000000000004a00000000")
_SELF_TEST_PLAINTEXT = (
    b"Ladies and Gentlemen of the class of '99: If I could offer you "
    b"only one tip for the future, sunscreen would be it."
)
_SELF_TEST_CIPHERTEXT = bytes.fromhex(
    "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
    "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
    "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
    "5af90bbf74a35be6b40b8eedf2785e42874d"
)

#: ``EVP_EncryptUpdate`` takes its length as a C ``int``; longer inputs
#: go through in pieces of this many bytes (a whole number of blocks, so
#: the context's stream position carries over exactly).
_MAX_UPDATE = 1 << 30


def _chacha20_block(key_words: tuple[int, ...], counter: int, nonce_words: tuple[int, ...]) -> bytes:
    # Fully unrolled double round over locals: ~4x faster than the
    # list-based quarter-round helper this replaced.
    x0, x1, x2, x3 = _CONSTANTS
    x4, x5, x6, x7, x8, x9, x10, x11 = key_words
    x12 = counter & _MASK
    x13, x14, x15 = nonce_words
    s0, s1, s2, s3, s4, s5, s6, s7 = x0, x1, x2, x3, x4, x5, x6, x7
    s8, s9, s10, s11, s12, s13, s14, s15 = x8, x9, x10, x11, x12, x13, x14, x15
    for _ in range(10):  # 20 rounds = 10 double rounds
        # column round
        x0 = (x0 + x4) & _MASK; x12 ^= x0; x12 = ((x12 << 16) | (x12 >> 16)) & _MASK
        x8 = (x8 + x12) & _MASK; x4 ^= x8; x4 = ((x4 << 12) | (x4 >> 20)) & _MASK
        x0 = (x0 + x4) & _MASK; x12 ^= x0; x12 = ((x12 << 8) | (x12 >> 24)) & _MASK
        x8 = (x8 + x12) & _MASK; x4 ^= x8; x4 = ((x4 << 7) | (x4 >> 25)) & _MASK
        x1 = (x1 + x5) & _MASK; x13 ^= x1; x13 = ((x13 << 16) | (x13 >> 16)) & _MASK
        x9 = (x9 + x13) & _MASK; x5 ^= x9; x5 = ((x5 << 12) | (x5 >> 20)) & _MASK
        x1 = (x1 + x5) & _MASK; x13 ^= x1; x13 = ((x13 << 8) | (x13 >> 24)) & _MASK
        x9 = (x9 + x13) & _MASK; x5 ^= x9; x5 = ((x5 << 7) | (x5 >> 25)) & _MASK
        x2 = (x2 + x6) & _MASK; x14 ^= x2; x14 = ((x14 << 16) | (x14 >> 16)) & _MASK
        x10 = (x10 + x14) & _MASK; x6 ^= x10; x6 = ((x6 << 12) | (x6 >> 20)) & _MASK
        x2 = (x2 + x6) & _MASK; x14 ^= x2; x14 = ((x14 << 8) | (x14 >> 24)) & _MASK
        x10 = (x10 + x14) & _MASK; x6 ^= x10; x6 = ((x6 << 7) | (x6 >> 25)) & _MASK
        x3 = (x3 + x7) & _MASK; x15 ^= x3; x15 = ((x15 << 16) | (x15 >> 16)) & _MASK
        x11 = (x11 + x15) & _MASK; x7 ^= x11; x7 = ((x7 << 12) | (x7 >> 20)) & _MASK
        x3 = (x3 + x7) & _MASK; x15 ^= x3; x15 = ((x15 << 8) | (x15 >> 24)) & _MASK
        x11 = (x11 + x15) & _MASK; x7 ^= x11; x7 = ((x7 << 7) | (x7 >> 25)) & _MASK
        # diagonal round
        x0 = (x0 + x5) & _MASK; x15 ^= x0; x15 = ((x15 << 16) | (x15 >> 16)) & _MASK
        x10 = (x10 + x15) & _MASK; x5 ^= x10; x5 = ((x5 << 12) | (x5 >> 20)) & _MASK
        x0 = (x0 + x5) & _MASK; x15 ^= x0; x15 = ((x15 << 8) | (x15 >> 24)) & _MASK
        x10 = (x10 + x15) & _MASK; x5 ^= x10; x5 = ((x5 << 7) | (x5 >> 25)) & _MASK
        x1 = (x1 + x6) & _MASK; x12 ^= x1; x12 = ((x12 << 16) | (x12 >> 16)) & _MASK
        x11 = (x11 + x12) & _MASK; x6 ^= x11; x6 = ((x6 << 12) | (x6 >> 20)) & _MASK
        x1 = (x1 + x6) & _MASK; x12 ^= x1; x12 = ((x12 << 8) | (x12 >> 24)) & _MASK
        x11 = (x11 + x12) & _MASK; x6 ^= x11; x6 = ((x6 << 7) | (x6 >> 25)) & _MASK
        x2 = (x2 + x7) & _MASK; x13 ^= x2; x13 = ((x13 << 16) | (x13 >> 16)) & _MASK
        x8 = (x8 + x13) & _MASK; x7 ^= x8; x7 = ((x7 << 12) | (x7 >> 20)) & _MASK
        x2 = (x2 + x7) & _MASK; x13 ^= x2; x13 = ((x13 << 8) | (x13 >> 24)) & _MASK
        x8 = (x8 + x13) & _MASK; x7 ^= x8; x7 = ((x7 << 7) | (x7 >> 25)) & _MASK
        x3 = (x3 + x4) & _MASK; x14 ^= x3; x14 = ((x14 << 16) | (x14 >> 16)) & _MASK
        x9 = (x9 + x14) & _MASK; x4 ^= x9; x4 = ((x4 << 12) | (x4 >> 20)) & _MASK
        x3 = (x3 + x4) & _MASK; x14 ^= x3; x14 = ((x14 << 8) | (x14 >> 24)) & _MASK
        x9 = (x9 + x14) & _MASK; x4 ^= x9; x4 = ((x4 << 7) | (x4 >> 25)) & _MASK
    return struct.pack(
        "<16I",
        (x0 + s0) & _MASK, (x1 + s1) & _MASK, (x2 + s2) & _MASK, (x3 + s3) & _MASK,
        (x4 + s4) & _MASK, (x5 + s5) & _MASK, (x6 + s6) & _MASK, (x7 + s7) & _MASK,
        (x8 + s8) & _MASK, (x9 + s9) & _MASK, (x10 + s10) & _MASK, (x11 + s11) & _MASK,
        (x12 + s12) & _MASK, (x13 + s13) & _MASK, (x14 + s14) & _MASK, (x15 + s15) & _MASK,
    )


def _check_params(key: bytes, nonce: bytes, counter: int) -> None:
    if len(key) != KEY_SIZE:
        raise CryptoError(f"ChaCha20 key must be {KEY_SIZE} bytes, got {len(key)}")
    if len(nonce) != NONCE_SIZE:
        raise CryptoError(f"ChaCha20 nonce must be {NONCE_SIZE} bytes, got {len(nonce)}")
    if counter < 0 or counter > _MASK:
        raise CryptoError("ChaCha20 counter out of 32-bit range")


def counter_overflows(first_counter: int, n_blocks: int) -> bool:
    """True when generating *n_blocks* from *first_counter* would run the
    32-bit block counter past its range."""
    return n_blocks > 0 and first_counter + n_blocks - 1 > _MASK


def _reference_xor(key: bytes, nonce: bytes, data: bytes, counter: int) -> bytes:
    """XOR *data* with the keystream from the pure-Python block function
    (parameters already checked)."""
    key_words = struct.unpack("<8I", key)
    nonce_words = struct.unpack("<3I", nonce)
    n_blocks = (len(data) + BLOCK_SIZE - 1) // BLOCK_SIZE
    keystream = b"".join(
        _chacha20_block(key_words, counter + i, nonce_words) for i in range(n_blocks)
    )
    # One arbitrary-precision XOR beats a per-byte Python loop by >10x;
    # the surplus keystream bytes fall off in to_bytes' length.
    xored = int.from_bytes(data, "little") ^ int.from_bytes(
        keystream[: len(data)], "little"
    )
    return xored.to_bytes(len(data), "little")


def _native(
    evp_chacha20, ctx_new, ctx_free, init, update
) -> Callable[[bytes, bytes, bytes, int], bytes]:
    """The ``EVP_chacha20`` kernel over the bound functions; raises
    :class:`~repro.crypto.libcrypto.NativeUnavailable` unless it
    reproduces the RFC 8439 vector."""
    cipher = evp_chacha20()
    if not cipher:
        raise libcrypto.NativeUnavailable("libcrypto symbol missing: EVP_chacha20() returned NULL")
    pack_counter = struct.Struct("<I").pack
    byref, create_buffer = ctypes.byref, ctypes.create_string_buffer

    def native_xor(key: bytes, nonce: bytes, data: bytes, counter: int) -> bytes:
        # A fresh context per call: nothing is shared between threads,
        # and a thread-local one measured no faster (2.6-2.8 us per
        # one-block call either way).
        data = bytes(data)  # c_char_p takes only bytes; a no-op when it already is
        out = create_buffer(len(data))
        written = ctypes.c_int(0)
        ctx = ctx_new()
        if not ctx:
            raise CryptoError("EVP_CIPHER_CTX_new failed")
        try:
            # OpenSSL's 16-byte ChaCha20 IV is counter_le32 || nonce.
            if init(ctx, cipher, None, key, pack_counter(counter) + nonce) != 1:
                raise CryptoError("EVP_EncryptInit_ex(chacha20) failed")
            for start in range(0, len(data), _MAX_UPDATE):
                piece = data[start : start + _MAX_UPDATE]
                if (
                    update(ctx, byref(out, start), byref(written), piece, len(piece)) != 1
                    or written.value != len(piece)
                ):
                    raise CryptoError("EVP_EncryptUpdate(chacha20) failed")
        finally:
            ctx_free(ctx)
        return out.raw

    sealed = native_xor(bytes(range(KEY_SIZE)), _SELF_TEST_NONCE, _SELF_TEST_PLAINTEXT, 1)
    if sealed != _SELF_TEST_CIPHERTEXT:
        raise libcrypto.NativeUnavailable("libcrypto self-test mismatch on the RFC 8439 vector")
    return native_xor


def _select_backend() -> tuple[Callable[[bytes, bytes, bytes, int], bytes], str]:
    """``(xor, name)`` for this process: the native kernel when it binds
    and passes its self-test, else the reference with one warning."""
    c_int, c_char_p, c_void_p = ctypes.c_int, ctypes.c_char_p, ctypes.c_void_p
    return libcrypto.select(
        "ChaCha20",
        {
            "EVP_chacha20": (c_void_p, []),
            "EVP_CIPHER_CTX_new": (c_void_p, []),
            "EVP_CIPHER_CTX_free": (None, [c_void_p]),
            "EVP_EncryptInit_ex": (c_int, [c_void_p, c_void_p, c_void_p, c_char_p, c_char_p]),
            "EVP_EncryptUpdate": (c_int, [c_void_p, c_void_p, ctypes.POINTER(c_int), c_char_p, c_int]),
        },
        _native,
        _reference_xor,
        "~70 us per 64-byte block instead of ~3 us per call",
    )


_xor, BACKEND = _select_backend()


def chacha20_xor(key: bytes, nonce: bytes, data: bytes, counter: int = 1) -> bytes:
    """Encrypt or decrypt *data* (XOR with the keystream)."""
    _check_params(key, nonce, counter)
    if counter_overflows(counter, (len(data) + BLOCK_SIZE - 1) // BLOCK_SIZE):
        raise CryptoError("ChaCha20 counter overflow")
    if not data:
        return b""
    return _xor(key, nonce, data, counter)


def chacha20_keystream(key: bytes, nonce: bytes, length: int, counter: int = 1) -> bytes:
    """Generate *length* bytes of keystream (the XOR of zeros)."""
    if length < 0:
        raise CryptoError("keystream length must be non-negative")
    return chacha20_xor(key, nonce, bytes(length), counter)
