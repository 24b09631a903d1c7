"""ChaCha20 against RFC 8439 test vectors, through the native kernel and
the pure-Python reference, plus a differential between the two."""

import ctypes.util
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import chacha20
from repro.crypto.chacha20 import (
    BLOCK_SIZE,
    _reference_xor,
    chacha20_keystream,
    chacha20_xor,
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


@pytest.fixture(params=["selected", "reference"])
def backend(request, monkeypatch):
    """Run a case on whatever backend this host selected at import and
    again with the reference forced in."""
    if request.param == "reference":
        monkeypatch.setattr(chacha20, "_xor", _reference_xor)
    return request.param


def test_native_backend_is_selected_here():
    # This sandbox has a libcrypto with EVP_chacha20; if the import-time
    # selection ever falls back, the differential below compares the
    # reference with itself and proves nothing.
    assert chacha20.BACKEND.startswith("openssl OpenSSL ")
    assert chacha20._xor is not _reference_xor


def test_rfc8439_vectors_through_the_reference():
    sealed = _reference_xor(RFC_KEY, RFC_NONCE, RFC_PLAINTEXT, 1)
    assert sealed == RFC_CIPHERTEXT
    block_nonce = bytes.fromhex("000000090000004a00000000")  # section 2.3.2
    stream = _reference_xor(RFC_KEY, block_nonce, bytes(64), 1)
    assert stream[:16] == bytes.fromhex("10f1e7e4d13b5915500fdd1fa32071c4")
    assert stream[-16:] == bytes.fromhex("b5129cd1de164eb9cbd083e8a2503c4e")


_keys = st.binary(min_size=32, max_size=32)
_nonces = st.binary(min_size=12, max_size=12)
#: Mostly the edges: 0, the AEAD's 1, and the top of the range where a
#: wrapped counter would show.
_counters = st.one_of(
    st.sampled_from([0, 1, 2**31 - 1, 2**31, 2**32 - 65, 2**32 - 2, 2**32 - 1]),
    st.integers(min_value=0, max_value=2**32 - 1),
)


@settings(max_examples=300, deadline=None)
@given(_keys, _nonces, _counters, st.binary(max_size=4096))
def test_native_equals_reference(key, nonce, counter, data):
    n_blocks = (len(data) + BLOCK_SIZE - 1) // BLOCK_SIZE
    if chacha20.counter_overflows(counter, n_blocks):
        with pytest.raises(CryptoError):
            chacha20_xor(key, nonce, data, counter)
        return
    assert chacha20_xor(key, nonce, data, counter) == _reference_xor(key, nonce, data, counter)


def test_native_equals_reference_at_block_edges():
    # The reference is what the kernel answers to, at every length where
    # a partial block starts or ends and at both ends of the counter.
    data = bytes(range(256)) * 17
    for length in (0, 1, 63, 64, 65, 127, 128, 1000, 4096):
        for counter in (0, 1, 2**32 - 65):
            assert chacha20_xor(RFC_KEY, RFC_NONCE, data[:length], counter) == _reference_xor(
                RFC_KEY, RFC_NONCE, data[:length], counter
            ), (length, counter)


def test_counter_overflow_refused_by_both_paths(backend):
    # OpenSSL would wrap the 32-bit counter silently; the check in front
    # of either backend refuses instead.
    last = 2**32 - 1
    assert len(chacha20_xor(RFC_KEY, RFC_NONCE, bytes(64), counter=last)) == 64
    with pytest.raises(CryptoError):
        chacha20_xor(RFC_KEY, RFC_NONCE, bytes(65), counter=last)
    with pytest.raises(CryptoError):
        chacha20_keystream(RFC_KEY, RFC_NONCE, 3 * 64 + 1, counter=last - 2)
    with pytest.raises(CryptoError):
        chacha20_xor(RFC_KEY, RFC_NONCE, b"x", counter=2**32)


def test_long_input_goes_through_in_pieces(monkeypatch):
    # EVP_EncryptUpdate takes a C int; inputs past _MAX_UPDATE are fed in
    # block-aligned pieces.  Shrink the piece so the loop runs here.
    monkeypatch.setattr(chacha20, "_MAX_UPDATE", 2 * BLOCK_SIZE)
    data = bytes(range(251)) * 3
    assert chacha20_xor(RFC_KEY, RFC_NONCE, data, 7) == _reference_xor(RFC_KEY, RFC_NONCE, data, 7)


def test_bytes_like_input_accepted(backend):
    data = bytearray(b"protected health information" * 5)
    expected = _reference_xor(RFC_KEY, RFC_NONCE, bytes(data), 1)
    assert chacha20_xor(RFC_KEY, RFC_NONCE, data) == expected
    assert chacha20_xor(RFC_KEY, RFC_NONCE, memoryview(data)) == expected


# -- backend selection: never silent ------------------------------------------

_LIBC = ctypes.util.find_library("c")  # loads, but has no EVP_chacha20


def test_selection_reports_the_libcrypto_cpython_already_loads():
    import ssl

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, name = chacha20._select_backend()
    assert name == chacha20.BACKEND == f"openssl {ssl.OPENSSL_VERSION}"
    assert not caught


@pytest.mark.parametrize(
    "patches, reason",
    [
        ({"ctypes.util.find_library": lambda name: None}, "libcrypto not found"),
        ({"ctypes.util.find_library": lambda name: "libno-such-crypto.so.0"}, "libcrypto not found"),
        ({"ctypes.util.find_library": lambda name: _LIBC}, "symbol missing"),
        ({"repro.crypto.chacha20._SELF_TEST_CIPHERTEXT": bytes(114)}, "self-test mismatch"),
    ],
    ids=["not-found", "not-loadable", "symbol-missing", "self-test-mismatch"],
)
def test_fallback_warns_exactly_once_with_the_reason(monkeypatch, patches, reason):
    for target, value in patches.items():
        monkeypatch.setattr(target, value)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        xor, name = chacha20._select_backend()
    assert xor is _reference_xor and name == "reference"
    assert len(caught) == 1
    assert issubclass(caught[0].category, RuntimeWarning)
    assert reason in str(caught[0].message)


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


# -- threads: the EVP context is per call, never shared --------------------------


def test_concurrent_seal_open_round_trips_under_distinct_keys():
    """8 threads x 2,000 seal/open round trips, each thread under its own
    key, sizes crossing block boundaries.  A context shared between
    threads would interleave one thread's init with another's update:
    the box then fails its MAC on open, or opens to the wrong bytes."""
    import sys
    import threading

    from repro.crypto.aead import AeadCipher
    from repro.errors import AuthenticationError

    threads, rounds = 8, 2000
    failures: list[str] = []
    done = [0] * threads
    start = threading.Barrier(threads)

    def worker(t: int) -> None:
        cipher = AeadCipher(bytes([t + 1]) * 32)
        start.wait(timeout=30)
        for i in range(rounds):
            plaintext = bytes([t]) * (1 + (i * 37) % 300) + i.to_bytes(4, "big")
            ad = b"t%d/%d" % (t, i)
            box = cipher.encrypt(plaintext, ad)
            # a re-seal under the same nonce must give the same box
            if cipher.encrypt(plaintext, ad, nonce=box.nonce) != box:
                failures.append(f"thread {t} round {i}: ciphertext differs on re-seal")
            try:
                opened = cipher.decrypt(box, ad)  # MAC first, then the XOR
            except AuthenticationError:
                failures.append(f"thread {t} round {i}: MAC failed on open")
                continue
            if opened != plaintext:
                failures.append(f"thread {t} round {i}: wrong plaintext")
            done[t] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pool = [threading.Thread(target=worker, args=(t,)) for t in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    assert failures == []
    assert done == [rounds] * threads
