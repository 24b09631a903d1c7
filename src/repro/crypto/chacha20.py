"""ChaCha20 stream cipher (RFC 8439), pure Python.

No crypto library is installed in this environment, so encryption at
rest is built on this implementation.  It follows RFC 8439 exactly and
is tested against the RFC test vectors in
``tests/crypto/test_chacha20.py``.

Performance note: pure-Python ChaCha20 runs at a few MB/s.  That is
ample for the simulated workloads here; the benchmarks measure
*relative* overheads, which is what the paper's security-vs-performance
trade-off discussion is about.  Two things keep the hot path as fast
as pure Python allows:

* the block function is fully unrolled over local variables (no list
  indexing, no per-quarter-round calls);
* keystream prefixes are cached per ``(key, nonce)`` with counter
  continuation — decrypting a box right after encrypting it (the
  store-then-read pattern), or streaming a chunked payload under one
  nonce, extends the cached keystream from the next block counter
  instead of recomputing blocks 1..k.

The cache holds keystream bytes, which are key-equivalent material.
That is the same trust domain as the master key already held in process
memory: the threat model gives the adversary raw *device* access, not
process memory.  Shredding a key must still purge its keystream
(:func:`purge_keystream_for_key`) so no derived material outlives the
key inside the trusted process either.
"""

from __future__ import annotations

import struct
from collections import OrderedDict

from repro.errors import CryptoError
from repro.util.metrics import METRICS

try:  # optional accelerator: vectorized block generation when numpy exists
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _np = None

KEY_SIZE = 32
NONCE_SIZE = 12
BLOCK_SIZE = 64

_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)
_MASK = 0xFFFFFFFF

#: Below this many total blocks the scalar path wins: every vectorized
#: round costs a fixed numpy-dispatch overhead, so tiny requests are
#: cheaper fully unrolled over Python ints.  Measured (median of 30,
#: one lane): the scalar block is ~70 us each, the numpy pass is flat at
#: ~1.2 ms from 1 to 64 blocks — 8 blocks 0.6 vs 1.2 ms, 14 blocks 1.2
#: vs 1.2, 16 blocks 1.4 vs 1.2, 32 blocks 2.7 vs 1.4; the crossover
#: sat between 14 and 17 blocks over three runs.
_VECTOR_MIN_BLOCKS = 16


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


def _check_params(key: bytes, nonce: bytes, counter: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if len(key) != KEY_SIZE:
        raise CryptoError(f"ChaCha20 key must be {KEY_SIZE} bytes, got {len(key)}")
    if len(nonce) != NONCE_SIZE:
        raise CryptoError(f"ChaCha20 nonce must be {NONCE_SIZE} bytes, got {len(nonce)}")
    if counter < 0 or counter > _MASK:
        raise CryptoError("ChaCha20 counter out of 32-bit range")
    key_words = struct.unpack("<8I", key)
    nonce_words = struct.unpack("<3I", nonce)
    return key_words, nonce_words


def _generate_blocks(
    key_words: tuple[int, ...],
    nonce_words: tuple[int, ...],
    first_counter: int,
    n_blocks: int,
) -> bytes:
    if counter_overflows(first_counter, n_blocks):
        raise CryptoError("ChaCha20 counter overflow")
    if _np is not None and n_blocks >= _VECTOR_MIN_BLOCKS:
        return _generate_lanes_numpy([(key_words, nonce_words, first_counter, n_blocks)])[0]
    blocks = []
    counter = first_counter
    for _ in range(n_blocks):
        blocks.append(_chacha20_block(key_words, counter, nonce_words))
        counter += 1
    return b"".join(blocks)


def counter_overflows(first_counter: int, n_blocks: int) -> bool:
    """True when generating *n_blocks* from *first_counter* would run the
    32-bit block counter past its range."""
    return n_blocks > 0 and first_counter + n_blocks - 1 > _MASK


def _generate_lanes_scalar(
    lanes: list[tuple[tuple[int, ...], tuple[int, ...], int, int]],
) -> list[bytes]:
    out = []
    for key_words, nonce_words, first_counter, n_blocks in lanes:
        blocks = []
        for i in range(n_blocks):
            blocks.append(_chacha20_block(key_words, first_counter + i, nonce_words))
        out.append(b"".join(blocks))
    return out


def _generate_lanes_numpy(
    lanes: list[tuple[tuple[int, ...], tuple[int, ...], int, int]],
) -> list[bytes]:
    """Run every requested block of every lane through one vectorized pass.

    Each *lane* is an independent ``(key_words, nonce_words,
    first_counter, n_blocks)`` request — the SIMD dimension is the block,
    not the position within one stream, so keystreams for many records
    under *different* keys amortize into a single set of array rounds.
    Output is bit-identical to :func:`_chacha20_block` (RFC 8439 vectors
    cover both paths in ``tests/crypto/test_chacha20.py``).
    """
    counts = [lane[3] for lane in lanes]
    total = sum(counts)
    if total == 0:
        return [b"" for _ in lanes]
    reps = _np.asarray(counts, dtype=_np.int64)
    keys = _np.asarray([lane[0] for lane in lanes], dtype=_np.uint32)
    nonces = _np.asarray([lane[1] for lane in lanes], dtype=_np.uint32)
    firsts = _np.asarray([lane[2] for lane in lanes], dtype=_np.uint64)
    rep_keys = _np.repeat(keys, reps, axis=0)
    rep_nonces = _np.repeat(nonces, reps, axis=0)
    starts = _np.zeros(len(lanes), dtype=_np.int64)
    _np.cumsum(reps[:-1], out=starts[1:])
    offsets = _np.arange(total, dtype=_np.int64) - _np.repeat(starts, reps)
    counters = (_np.repeat(firsts, reps) + offsets.astype(_np.uint64)).astype(_np.uint32)

    x0 = _np.full(total, _CONSTANTS[0], dtype=_np.uint32)
    x1 = _np.full(total, _CONSTANTS[1], dtype=_np.uint32)
    x2 = _np.full(total, _CONSTANTS[2], dtype=_np.uint32)
    x3 = _np.full(total, _CONSTANTS[3], dtype=_np.uint32)
    x4 = rep_keys[:, 0].copy(); x5 = rep_keys[:, 1].copy()
    x6 = rep_keys[:, 2].copy(); x7 = rep_keys[:, 3].copy()
    x8 = rep_keys[:, 4].copy(); x9 = rep_keys[:, 5].copy()
    x10 = rep_keys[:, 6].copy(); x11 = rep_keys[:, 7].copy()
    x12 = counters.copy()
    x13 = rep_nonces[:, 0].copy(); x14 = rep_nonces[:, 1].copy()
    x15 = rep_nonces[:, 2].copy()
    state = (x0.copy(), x1.copy(), x2.copy(), x3.copy(), x4.copy(), x5.copy(),
             x6.copy(), x7.copy(), x8.copy(), x9.copy(), x10.copy(), x11.copy(),
             x12.copy(), x13.copy(), x14.copy(), x15.copy())

    def qr(a, b, c, d):
        a += b; d ^= a; d[:] = (d << _np.uint32(16)) | (d >> _np.uint32(16))
        c += d; b ^= c; b[:] = (b << _np.uint32(12)) | (b >> _np.uint32(20))
        a += b; d ^= a; d[:] = (d << _np.uint32(8)) | (d >> _np.uint32(24))
        c += d; b ^= c; b[:] = (b << _np.uint32(7)) | (b >> _np.uint32(25))

    for _ in range(10):
        qr(x0, x4, x8, x12); qr(x1, x5, x9, x13)
        qr(x2, x6, x10, x14); qr(x3, x7, x11, x15)
        qr(x0, x5, x10, x15); qr(x1, x6, x11, x12)
        qr(x2, x7, x8, x13); qr(x3, x4, x9, x14)

    words = _np.empty((total, 16), dtype="<u4")
    current = (x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15)
    for i in range(16):
        words[:, i] = current[i] + state[i]
    blob = words.tobytes()
    out = []
    offset = 0
    for n_blocks in counts:
        out.append(blob[offset : offset + n_blocks * BLOCK_SIZE])
        offset += n_blocks * BLOCK_SIZE
    return out


def generate_keystream_lanes(
    lanes: list[tuple[tuple[int, ...], tuple[int, ...], int, int]],
) -> list[bytes]:
    """Generate keystream for many independent ``(key_words, nonce_words,
    first_counter, n_blocks)`` lanes, vectorized across *all* blocks of
    *all* lanes when numpy is available."""
    for _, _, first_counter, n_blocks in lanes:
        if counter_overflows(first_counter, n_blocks):
            raise CryptoError("ChaCha20 counter overflow")
    if _np is not None and sum(lane[3] for lane in lanes) >= _VECTOR_MIN_BLOCKS:
        return _generate_lanes_numpy(lanes)
    return _generate_lanes_scalar(lanes)


class _KeystreamCache:
    """LRU of keystream prefixes keyed by ``(key, nonce)``.

    Each entry is the keystream starting at block counter 1 (the AEAD
    convention), always a whole number of blocks; a request longer than
    the cached prefix *continues* block generation from the next
    counter, so chunked processing under one nonce and the
    encrypt-then-decrypt round trip never recompute a block.
    """

    def __init__(self, capacity: int = 128, max_entry_bytes: int = 1 << 20) -> None:
        self.capacity = capacity
        self.max_entry_bytes = max_entry_bytes
        self._entries: OrderedDict[tuple[bytes, bytes], bytearray] = OrderedDict()

    def keystream(self, key: bytes, nonce: bytes, length: int) -> bytes:
        entry_key = (key, nonce)
        entry = self._entries.get(entry_key)
        if entry is None:
            entry = bytearray()
            self._entries[entry_key] = entry
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        else:
            self._entries.move_to_end(entry_key)
        if length <= len(entry):
            METRICS.incr("keystream_cache_hits")
            return bytes(entry[:length])
        METRICS.incr("keystream_cache_misses")
        key_words = struct.unpack("<8I", key)
        nonce_words = struct.unpack("<3I", nonce)
        # Extend the cached prefix by whole blocks, continuing the counter.
        cacheable = min(length, self.max_entry_bytes)
        if len(entry) < cacheable:
            n_blocks = (cacheable - len(entry) + BLOCK_SIZE - 1) // BLOCK_SIZE
            entry += _generate_blocks(
                key_words, nonce_words, 1 + len(entry) // BLOCK_SIZE, n_blocks
            )
        if length <= len(entry):
            return bytes(entry[:length])
        # Oversized request: serve the uncacheable tail without storing it.
        tail_blocks = (length - len(entry) + BLOCK_SIZE - 1) // BLOCK_SIZE
        tail = _generate_blocks(
            key_words, nonce_words, 1 + len(entry) // BLOCK_SIZE, tail_blocks
        )
        return (bytes(entry) + tail)[:length]

    def keystream_many(self, requests: list[tuple[bytes, bytes, int]]) -> list[bytes]:
        """Serve many ``(key, nonce, length)`` requests (counter-1
        convention), generating every missing block across all requests
        in ONE vectorized pass before slicing per-request answers."""
        results: list[bytes | None] = [None] * len(requests)
        lanes = []
        lane_meta = []  # (request index, entry, requested length)
        queued: set[tuple[bytes, bytes]] = set()
        deferred: list[int] = []
        for i, (key, nonce, length) in enumerate(requests):
            entry_key = (key, nonce)
            if entry_key in queued:
                # A second request under the same (key, nonce) in one
                # batch must see the first one's cache extension, not
                # race it — serve it after the vectorized pass lands.
                deferred.append(i)
                continue
            entry = self._entries.get(entry_key)
            if entry is None:
                entry = bytearray()
                self._entries[entry_key] = entry
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
            else:
                self._entries.move_to_end(entry_key)
            if length <= len(entry):
                METRICS.incr("keystream_cache_hits")
                results[i] = bytes(entry[:length])
                continue
            METRICS.incr("keystream_cache_misses")
            n_blocks = (length - len(entry) + BLOCK_SIZE - 1) // BLOCK_SIZE
            lanes.append(
                (
                    struct.unpack("<8I", key),
                    struct.unpack("<3I", nonce),
                    1 + len(entry) // BLOCK_SIZE,
                    n_blocks,
                )
            )
            lane_meta.append((i, entry, length))
            queued.add(entry_key)
        if lanes:
            fresh = generate_keystream_lanes(lanes)
            for (i, entry, length), blocks in zip(lane_meta, fresh):
                cacheable = self.max_entry_bytes - len(entry)
                if cacheable > 0:
                    entry += blocks[:cacheable]
                prefix = bytes(entry[:length])
                if len(prefix) < length:
                    # Oversized request: splice the uncached tail.
                    prefix += blocks[cacheable : cacheable + (length - len(prefix))]
                results[i] = prefix
        for i in deferred:
            key, nonce, length = requests[i]
            results[i] = self.keystream(key, nonce, length)
        return [r if r is not None else b"" for r in results]

    def purge_key(self, key: bytes) -> int:
        """Drop every cached keystream derived from *key*; returns the
        number of entries removed (key shredding calls this)."""
        stale = [entry_key for entry_key in self._entries if entry_key[0] == key]
        for entry_key in stale:
            del self._entries[entry_key]
        return len(stale)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


_KEYSTREAM_CACHE = _KeystreamCache()


def purge_keystream_for_key(key: bytes) -> int:
    """Remove all cached keystream generated under *key*.

    Key shredding (:meth:`repro.crypto.keys.KeyStore.shred`) calls this
    so that no key-equivalent material survives the key's destruction
    inside the process — a correctness property of secure deletion, not
    just hygiene.
    """
    return _KEYSTREAM_CACHE.purge_key(key)


def clear_keystream_cache() -> None:
    """Drop the whole keystream cache (tests / memory hygiene)."""
    _KEYSTREAM_CACHE.clear()


def chacha20_keystream(key: bytes, nonce: bytes, length: int, counter: int = 1) -> bytes:
    """Generate *length* bytes of keystream.

    The default-counter path (counter=1, as AEAD uses) is served from
    the per-``(key, nonce)`` cache with counter continuation; explicit
    non-default counters bypass the cache.
    """
    if length < 0:
        raise CryptoError("keystream length must be non-negative")
    key_words, nonce_words = _check_params(key, nonce, counter)
    if length == 0:
        return b""
    if counter == 1:
        return _KEYSTREAM_CACHE.keystream(key, nonce, length)
    n_blocks = (length + BLOCK_SIZE - 1) // BLOCK_SIZE
    return _generate_blocks(key_words, nonce_words, counter, n_blocks)[:length]


def chacha20_keystream_many(requests: list[tuple[bytes, bytes, int]]) -> list[bytes]:
    """Batch form of :func:`chacha20_keystream` (counter-1 convention).

    All missing blocks across every request — typically one request per
    record in a ``store_many`` batch, each under its own data key — are
    generated in a single vectorized pass, then served/cached exactly as
    the one-at-a-time path would.
    """
    for key, nonce, length in requests:
        if length < 0:
            raise CryptoError("keystream length must be non-negative")
        _check_params(key, nonce, 1)
    if not requests:
        return []
    return _KEYSTREAM_CACHE.keystream_many(requests)


def _xor_bytes(data: bytes, keystream: bytes) -> bytes:
    # One arbitrary-precision XOR beats a per-byte Python loop by >10x.
    xored = int.from_bytes(data, "little") ^ int.from_bytes(keystream, "little")
    return xored.to_bytes(len(data), "little")


def chacha20_xor_many(items: list[tuple[bytes, bytes, bytes]]) -> list[bytes]:
    """Encrypt/decrypt many ``(key, nonce, data)`` items, with every
    keystream block generated in one vectorized pass."""
    keystreams = chacha20_keystream_many(
        [(key, nonce, len(data)) for key, nonce, data in items]
    )
    return [
        _xor_bytes(data, ks) if data else b""
        for (_, _, data), ks in zip(items, keystreams)
    ]


def chacha20_xor(key: bytes, nonce: bytes, data: bytes, counter: int = 1) -> bytes:
    """Encrypt or decrypt *data* (XOR with the keystream)."""
    if not data:
        chacha20_keystream(key, nonce, 0, counter)  # parameter validation
        return b""
    keystream = chacha20_keystream(key, nonce, len(data), counter)
    return _xor_bytes(data, keystream)
