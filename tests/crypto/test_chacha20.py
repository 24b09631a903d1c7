"""ChaCha20 against RFC 8439 test vectors, plus property checks."""

import struct

import pytest
from hypothesis import given, strategies as st

from repro.crypto.chacha20 import (
    _VECTOR_MIN_BLOCKS,
    BLOCK_SIZE,
    _generate_lanes_numpy,
    _generate_lanes_scalar,
    chacha20_keystream,
    chacha20_xor,
    generate_keystream_lanes,
)
from repro.errors import CryptoError

RFC_KEY = bytes(range(32))
RFC_NONCE = bytes.fromhex("000000000000004a00000000")
RFC_PLAINTEXT = (
    b"Ladies and Gentlemen of the class of '99: If I could offer you "
    b"only one tip for the future, sunscreen would be it."
)
RFC_CIPHERTEXT = bytes.fromhex(
    "6e2e359a2568f98041ba0728dd0d6981"
    "e97e7aec1d4360c20a27afccfd9fae0b"
    "f91b65c5524733ab8f593dabcd62b357"
    "1639d624e65152ab8f530c359f0861d8"
    "07ca0dbf500d6a6156a38e088a22b65e"
    "52bc514d16ccf806818ce91ab7793736"
    "5af90bbf74a35be6b40b8eedf2785e42"
    "874d"
)


def test_rfc8439_encryption_vector():
    assert chacha20_xor(RFC_KEY, RFC_NONCE, RFC_PLAINTEXT, counter=1) == RFC_CIPHERTEXT


def test_rfc8439_block_function_vector():
    # RFC 8439 section 2.3.2 block test vector
    key = bytes(range(32))
    nonce = bytes.fromhex("000000090000004a00000000")
    stream = chacha20_keystream(key, nonce, 64, counter=1)
    assert stream[:16] == bytes.fromhex("10f1e7e4d13b5915500fdd1fa32071c4")


def _lane(seed: int, first_counter: int, n_blocks: int):
    key = struct.unpack("<8I", bytes((seed + i) % 256 for i in range(32)))
    nonce = struct.unpack("<3I", bytes((3 * seed + i) % 256 for i in range(12)))
    return key, nonce, first_counter, n_blocks


def test_rfc8439_vector_through_the_vectorized_generator():
    pytest.importorskip("numpy")
    lane = (struct.unpack("<8I", RFC_KEY), struct.unpack("<3I", RFC_NONCE), 1, 2)
    (stream,) = _generate_lanes_numpy([lane])
    sealed = bytes(p ^ k for p, k in zip(RFC_PLAINTEXT, stream))
    assert sealed == RFC_CIPHERTEXT


def test_vectorized_and_scalar_generators_agree_around_the_threshold():
    # The scalar block function is the reference; the dispatcher must
    # return its bytes whichever generator it picks, for several lanes
    # under different keys, nonces and starting counters.
    pytest.importorskip("numpy")
    for total in (1, _VECTOR_MIN_BLOCKS - 1, _VECTOR_MIN_BLOCKS, 3 * _VECTOR_MIN_BLOCKS):
        lanes = [_lane(1, 1, 1), _lane(2, 7, 0), _lane(3, 2**32 - total, total - 1)]
        expected = _generate_lanes_scalar(lanes)
        assert _generate_lanes_numpy(lanes) == expected
        assert generate_keystream_lanes(lanes) == expected


def test_xor_round_trips():
    data = b"some protected health information" * 3
    key, nonce = bytes(32), bytes(12)
    assert chacha20_xor(key, nonce, chacha20_xor(key, nonce, data)) == data


def test_keystream_is_deterministic_and_extendable():
    key, nonce = bytes(32), bytes(12)
    short = chacha20_keystream(key, nonce, 10)
    long = chacha20_keystream(key, nonce, BLOCK_SIZE * 2 + 10)
    assert long[:10] == short


def test_different_nonce_different_stream():
    key = bytes(32)
    a = chacha20_keystream(key, bytes(12), 32)
    b = chacha20_keystream(key, b"\x01" + bytes(11), 32)
    assert a != b


def test_counter_offsets_stream():
    key, nonce = bytes(32), bytes(12)
    from_zero = chacha20_keystream(key, nonce, BLOCK_SIZE * 2, counter=0)
    from_one = chacha20_keystream(key, nonce, BLOCK_SIZE, counter=1)
    assert from_zero[BLOCK_SIZE:] == from_one


def test_bad_key_size_rejected():
    with pytest.raises(CryptoError):
        chacha20_xor(bytes(16), bytes(12), b"x")


def test_bad_nonce_size_rejected():
    with pytest.raises(CryptoError):
        chacha20_xor(bytes(32), bytes(8), b"x")


def test_negative_length_rejected():
    with pytest.raises(CryptoError):
        chacha20_keystream(bytes(32), bytes(12), -1)


@given(st.binary(max_size=300), st.binary(min_size=32, max_size=32),
       st.binary(min_size=12, max_size=12))
def test_property_round_trip(data, key, nonce):
    assert chacha20_xor(key, nonce, chacha20_xor(key, nonce, data)) == data
