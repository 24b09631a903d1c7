"""RSA signatures and the structured-payload signing layer, through the
native libcrypto kernel and the pure-Python reference, plus a
differential between the two."""

import ctypes.util
import hashlib
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import rsa
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey, generate_keypair
from repro.crypto.signatures import SignedPayload, Signer, TrustStore, Verifier
from repro.errors import AuthenticationError, CryptoError

KEYPAIR = generate_keypair(768)


def _keypair_from_primes(p: int, q: int) -> RsaKeyPair:
    return RsaKeyPair(
        public=RsaPublicKey(modulus=p * q, exponent=65537),
        private_exponent=pow(65537, -1, (p - 1) * (q - 1)),
        p=p,
        q=q,
    )


#: The two largest primes below 2**384 with p - 1 prime to 65537: a
#: 768-bit key that is the same on every run, so a failure reproduces.
FIXED_KEYPAIR = _keypair_from_primes(2**384 - 317, 2**384 - 1437)


def test_sign_verify_round_trip():
    sig = KEYPAIR.sign(b"message")
    KEYPAIR.public.verify(b"message", sig)


def test_signature_is_deterministic():
    assert KEYPAIR.sign(b"m") == KEYPAIR.sign(b"m")


def test_wrong_message_rejected():
    sig = KEYPAIR.sign(b"message")
    with pytest.raises(AuthenticationError):
        KEYPAIR.public.verify(b"other", sig)


def test_wrong_key_rejected():
    other = generate_keypair(768)
    sig = KEYPAIR.sign(b"message")
    with pytest.raises(AuthenticationError):
        other.public.verify(b"message", sig)


def test_bad_signature_length_rejected():
    with pytest.raises(AuthenticationError):
        KEYPAIR.public.verify(b"m", b"\x00" * 10)


def test_out_of_range_signature_rejected():
    k = KEYPAIR.public.byte_length
    with pytest.raises(AuthenticationError):
        KEYPAIR.public.verify(b"m", b"\xff" * k)


def test_fingerprint_stable_and_distinct():
    assert KEYPAIR.public.fingerprint() == KEYPAIR.public.fingerprint()
    assert KEYPAIR.public.fingerprint() != generate_keypair(768).public.fingerprint()


def test_small_modulus_rejected():
    with pytest.raises(CryptoError):
        generate_keypair(256)
    with pytest.raises(CryptoError):
        generate_keypair(769)


def test_signer_verifier_round_trip():
    signer = Signer("site-A", keypair=KEYPAIR)
    signed = signer.sign({"record": "rec-1", "action": "transfer"})
    payload = signer.verifier().verify(signed)
    assert payload["record"] == "rec-1"


def test_verifier_rejects_wrong_signer_id():
    signer = Signer("site-A", keypair=KEYPAIR)
    signed = signer.sign({"x": 1})
    wrong = Verifier("site-B", KEYPAIR.public)
    with pytest.raises(AuthenticationError):
        wrong.verify(signed)


def test_verifier_rejects_modified_payload():
    signer = Signer("site-A", keypair=KEYPAIR)
    signed = signer.sign({"amount": 1})
    forged = SignedPayload(
        payload={"amount": 999},
        signer_id=signed.signer_id,
        key_fingerprint=signed.key_fingerprint,
        signature=signed.signature,
    )
    with pytest.raises(AuthenticationError):
        signer.verifier().verify(forged)


def test_verifier_rejects_wrong_key_fingerprint():
    signer = Signer("site-A", keypair=KEYPAIR)
    signed = signer.sign({"x": 1})
    forged = SignedPayload(
        payload=signed.payload,
        signer_id=signed.signer_id,
        key_fingerprint="0" * 16,
        signature=signed.signature,
    )
    with pytest.raises(AuthenticationError):
        signer.verifier().verify(forged)


def test_trust_store_routes_by_signer():
    signer = Signer("site-A", keypair=KEYPAIR)
    store = TrustStore()
    store.add(signer.verifier())
    assert store.verify(signer.sign({"ok": True})) == {"ok": True}
    assert store.known_signers() == ["site-A"]


def test_trust_store_unknown_signer_rejected():
    store = TrustStore()
    signer = Signer("site-A", keypair=KEYPAIR)
    with pytest.raises(AuthenticationError):
        store.verify(signer.sign({"x": 1}))


def test_signed_payload_dict_round_trip():
    signer = Signer("site-A", keypair=KEYPAIR)
    signed = signer.sign({"n": 5})
    restored = SignedPayload.from_dict(signed.to_dict())
    assert signer.verifier().verify(restored) == {"n": 5}


# -- the native kernel against the reference -----------------------------------


def _textbook(keypair: RsaKeyPair, message: bytes) -> bytes:
    """``pow(m, d, n)``: the signature straight from its definition."""
    k = keypair.public.byte_length
    padded = rsa._pad_digest(hashlib.sha256(message).digest(), k)
    m_int = int.from_bytes(padded, "big")
    return pow(m_int, keypair.private_exponent, keypair.public.modulus).to_bytes(k, "big")


def _reference_sign(keypair: RsaKeyPair, message: bytes) -> bytes:
    """``keypair.sign`` with ``pow`` in place of the native kernel."""
    native, rsa._modexp = rsa._modexp, pow
    try:
        return keypair.sign(message)
    finally:
        rsa._modexp = native


DIFFERENTIAL_KEYS = [FIXED_KEYPAIR, KEYPAIR, generate_keypair(512), generate_keypair(1024)]


def test_native_backend_is_selected_here():
    # CPython's own libcrypto has BN_mod_exp_mont_consttime; if the
    # import-time selection ever falls back, the differential below
    # compares the reference with itself and proves nothing.
    assert rsa.BACKEND.startswith("openssl OpenSSL ")
    assert rsa._modexp is not pow
    assert rsa._prime is not rsa._random_prime


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(DIFFERENTIAL_KEYS), st.binary(max_size=512))
def test_native_sign_equals_reference_sign(keypair, message):
    native = keypair.sign(message)
    assert native == _reference_sign(keypair, message) == _textbook(keypair, message)
    keypair.public.verify(message, native)


def test_native_modexp_equals_pow_at_the_edges():
    p = FIXED_KEYPAIR.p
    for base, exp in [(0, 5), (1, 2**383), (p - 1, 2), (2, 0), (p - 1, p - 2), (3**200, p - 2)]:
        assert rsa._modexp(base, exp, p) == pow(base, exp, p), (base, exp)


def test_no_bignum_or_context_outlives_its_call(monkeypatch):
    """Bind the kernel through counting wrappers: every BIGNUM the kernel
    allocates (each holds a key, a prime, or a value derived from them)
    is gone through ``BN_clear_free`` by the time the call returns, and
    so is every ``BN_CTX``."""
    live: set[int] = set()
    native = rsa._native

    def counting(bn_new, bin2bn, bn2binpad, clear_free, set_flags, ctx_new, ctx_free, *rest):
        def allocating(allocate):
            def wrapper(*args):
                pointer = allocate(*args)
                live.add(pointer)
                return pointer
            return wrapper

        def releasing(release):
            def wrapper(pointer):
                live.discard(pointer)
                release(pointer)
            return wrapper

        return native(
            allocating(bn_new), allocating(bin2bn), bn2binpad, releasing(clear_free),
            set_flags, allocating(ctx_new), releasing(ctx_free), *rest,
        )

    monkeypatch.setattr(rsa, "_native", counting)
    (modexp, random_prime), name = rsa._select_backend()
    assert name == rsa.BACKEND and not live  # the self-test left nothing behind
    p = FIXED_KEYPAIR.p
    assert modexp(3**200, FIXED_KEYPAIR._d_p, p) == pow(3**200, FIXED_KEYPAIR._d_p, p)
    assert not live
    assert random_prime(384).bit_length() == 384
    assert not live


@pytest.mark.parametrize("backend", ["selected", "reference"])
@pytest.mark.parametrize("bits", [512, 768, 1024])
def test_keygen_properties(monkeypatch, backend, bits):
    if backend == "reference":
        monkeypatch.setattr(rsa, "_prime", rsa._random_prime)
        monkeypatch.setattr(rsa, "_modexp", pow)
    keypair = generate_keypair(bits)
    p, q, e = keypair.p, keypair.q, keypair.public.exponent
    assert keypair.public.modulus == p * q
    assert keypair.public.modulus.bit_length() == bits
    assert p != q
    assert rsa._is_probable_prime(p) and rsa._is_probable_prime(q)
    assert e * keypair._d_p % (p - 1) == 1
    assert e * keypair._d_q % (q - 1) == 1
    assert keypair._q_inv * q % p == 1
    keypair.public.verify(b"m", keypair.sign(b"m"))


# -- backend selection: never silent -------------------------------------------

_LIBC = ctypes.util.find_library("c")  # loads, but has no BIGNUM


class _WithoutPrimeSearch(ctypes.PyDLL):
    """libcrypto with one symbol the RSA kernel needs hidden."""

    def __getattr__(self, name):
        if name == "BN_generate_prime_ex":
            raise AttributeError(name)
        return super().__getattr__(name)


def test_selection_reports_the_libcrypto_cpython_already_loads():
    import ssl

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, name = rsa._select_backend()
    assert name == rsa.BACKEND == f"openssl {ssl.OPENSSL_VERSION}"
    assert not caught


@pytest.mark.parametrize(
    "patches, reason",
    [
        ({"ctypes.util.find_library": lambda name: _LIBC}, "symbol missing"),
        ({"ctypes.PyDLL": _WithoutPrimeSearch}, "symbol missing: BN_generate_prime_ex"),
        ({"repro.crypto.rsa._SELF_TEST_RESIDUE": 1}, "self-test mismatch"),
    ],
    ids=["no-bignum", "no-prime-search", "self-test-mismatch"],
)
def test_fallback_warns_exactly_once_and_signs_identically(monkeypatch, patches, reason):
    for target, value in patches.items():
        monkeypatch.setattr(target, value)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        kernel, name = rsa._select_backend()
    monkeypatch.undo()
    assert kernel == (pow, rsa._random_prime) and name == "reference"
    assert len(caught) == 1
    assert issubclass(caught[0].category, RuntimeWarning)
    assert reason in str(caught[0].message)
    native = FIXED_KEYPAIR.sign(b"custody event")
    monkeypatch.setattr(rsa, "_modexp", kernel[0])
    assert FIXED_KEYPAIR.sign(b"custody event") == native


# -- threads: the BIGNUM context is per call, never shared -----------------------


def test_concurrent_sign_verify_under_threads():
    """8 threads x 100 sign/verify rounds, two threads per key.  A context
    or BIGNUM shared between threads would hand one thread another's
    residue: the signature then differs from the textbook one or fails
    to verify."""
    import sys
    import threading

    threads, rounds = 8, 100
    failures: list[str] = []
    done = [0] * threads
    start = threading.Barrier(threads)

    def worker(t: int) -> None:
        keypair = DIFFERENTIAL_KEYS[t % len(DIFFERENTIAL_KEYS)]
        start.wait(timeout=30)
        for i in range(rounds):
            message = b"t%d/%d" % (t, i)
            signature = keypair.sign(message)
            try:
                keypair.public.verify(message, signature)
            except AuthenticationError:
                failures.append(f"thread {t} round {i}: signature does not verify")
                continue
            if signature != _textbook(keypair, message):
                failures.append(f"thread {t} round {i}: signature differs from pow(m, d, n)")
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
