"""Ed25519 signatures: RFC 8032 vectors, memo hygiene, Signer backend."""

import pytest

from repro.crypto.ed25519 import (
    _KEY_MEMO,
    Ed25519KeyPair,
    generate_ed25519_keypair,
    purge_ed25519_memo,
)
from repro.crypto.signatures import Signer, TrustStore
from repro.errors import AuthenticationError, CryptoError

# RFC 8032 §7.1 TEST 1 (empty message) and TEST 2 (one byte).
RFC_TEST_1 = {
    "seed": bytes.fromhex(
        "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"
    ),
    "public": bytes.fromhex(
        "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
    ),
    "message": b"",
    "signature": bytes.fromhex(
        "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
        "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
    ),
}
RFC_TEST_2 = {
    "seed": bytes.fromhex(
        "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb"
    ),
    "public": bytes.fromhex(
        "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c"
    ),
    "message": bytes.fromhex("72"),
    "signature": bytes.fromhex(
        "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
        "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"
    ),
}


@pytest.mark.parametrize("vector", [RFC_TEST_1, RFC_TEST_2])
def test_rfc8032_vectors(vector):
    keypair = Ed25519KeyPair(seed=vector["seed"])
    assert keypair.public.key_bytes == vector["public"]
    assert keypair.sign(vector["message"]) == vector["signature"]
    keypair.public.verify(vector["message"], vector["signature"])


def test_tampered_message_rejected():
    keypair = generate_ed25519_keypair(seed=bytes(32))
    sig = keypair.sign(b"message")
    with pytest.raises(AuthenticationError):
        keypair.public.verify(b"messagE", sig)


def test_tampered_signature_rejected():
    keypair = generate_ed25519_keypair(seed=bytes(32))
    sig = bytearray(keypair.sign(b"message"))
    sig[0] ^= 0x01
    with pytest.raises(AuthenticationError):
        keypair.public.verify(b"message", bytes(sig))


def test_wrong_key_rejected():
    a = generate_ed25519_keypair(seed=bytes(32))
    b = generate_ed25519_keypair(seed=bytes([1]) + bytes(31))
    with pytest.raises(AuthenticationError):
        b.public.verify(b"message", a.sign(b"message"))


def test_signature_scalar_out_of_range_rejected():
    keypair = generate_ed25519_keypair(seed=bytes(32))
    sig = keypair.sign(b"m")
    with pytest.raises(AuthenticationError):
        keypair.public.verify(b"m", sig[:32] + b"\xff" * 32)


def test_bad_seed_length_rejected():
    with pytest.raises(CryptoError):
        Ed25519KeyPair(seed=b"short")


def test_fingerprints_distinct_from_rsa_space():
    keypair = generate_ed25519_keypair(seed=bytes(32))
    assert len(keypair.public.fingerprint()) == 32


def test_key_memo_purge_forgets_expansions():
    keypair = generate_ed25519_keypair(seed=bytes(range(32)))
    keypair.sign(b"warm the memo")
    assert len(_KEY_MEMO) > 0
    purge_ed25519_memo()
    assert len(_KEY_MEMO) == 0
    # Signing still works after a purge (re-expansion from the seed).
    keypair.public.verify(b"x", keypair.sign(b"x"))


def test_key_memo_targeted_purge():
    a = generate_ed25519_keypair(seed=bytes(32))
    b = generate_ed25519_keypair(seed=bytes([7] * 32))
    a.sign(b"m")
    b.sign(b"m")
    before = len(_KEY_MEMO)
    purge_ed25519_memo(a.seed)
    assert len(_KEY_MEMO) == before - 1


def test_signer_backend_selected_by_key_metadata():
    keypair = generate_ed25519_keypair(seed=bytes(range(32)))
    signer = Signer("site-ed", keypair=keypair)
    signed = signer.sign({"record": "rec-1", "action": "transfer"})
    # An Ed25519 signature (64 bytes) under the Ed25519 key's fingerprint.
    assert len(signed.signature) == 64
    assert signed.key_fingerprint == keypair.public.fingerprint()
    trust = TrustStore()
    trust.add(signer.verifier())
    assert trust.verify(signed) == {"record": "rec-1", "action": "transfer"}
