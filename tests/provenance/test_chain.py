"""Custody chains: continuity, signatures, forgery detection."""

import dataclasses

import pytest

from repro.crypto.hashing import sha256
from repro.crypto.rsa import generate_keypair
from repro.crypto.signatures import AggregateSignedPayload, Signer, TrustStore
from repro.errors import ProvenanceError
from repro.provenance.chain import CustodyRegistry

KP_A = generate_keypair(768)
KP_B = generate_keypair(768)
KP_C = generate_keypair(768)
KP_M = generate_keypair(768)


def setup():
    site_a = Signer("site-A", keypair=KP_A)
    site_b = Signer("site-B", keypair=KP_B)
    site_c = Signer("site-C", keypair=KP_C)
    trust = TrustStore()
    registry = CustodyRegistry(trust)
    for signer in (site_a, site_b, site_c):
        registry.register_custodian(signer)
    return registry, site_a, site_b, site_c


DIGEST = sha256(b"the record bytes")


def test_origin_then_transfer_verifies():
    registry, site_a, site_b, _ = setup()
    registry.record_origin("obj-1", site_a, DIGEST, 100.0)
    registry.record_transfer("obj-1", site_a, "site-B", DIGEST, 200.0, "migration")
    chain = registry.chain_for("obj-1")
    chain.verify(registry.trust)
    assert chain.current_custodian() == "site-B"
    assert chain.custodians() == ["site-A", "site-B"]


def test_multi_hop_chain():
    registry, site_a, site_b, site_c = setup()
    registry.record_origin("obj-1", site_a, DIGEST, 100.0)
    registry.record_transfer("obj-1", site_a, "site-B", DIGEST, 200.0, "migration")
    registry.record_transfer("obj-1", site_b, "site-C", DIGEST, 300.0, "ownership change")
    chain = registry.chain_for("obj-1")
    chain.verify(registry.trust)
    assert chain.custodians() == ["site-A", "site-B", "site-C"]


def test_non_custodian_cannot_release():
    registry, site_a, site_b, _ = setup()
    registry.record_origin("obj-1", site_a, DIGEST, 100.0)
    with pytest.raises(ProvenanceError, match="cannot release"):
        registry.record_transfer("obj-1", site_b, "site-C", DIGEST, 200.0, "theft")


def test_duplicate_origin_rejected():
    registry, site_a, _, _ = setup()
    registry.record_origin("obj-1", site_a, DIGEST, 100.0)
    with pytest.raises(ProvenanceError):
        registry.record_origin("obj-1", site_a, DIGEST, 200.0)


def test_unknown_object_rejected():
    registry, site_a, _, _ = setup()
    with pytest.raises(ProvenanceError):
        registry.chain_for("ghost")
    with pytest.raises(ProvenanceError):
        registry.record_transfer("ghost", site_a, "site-B", DIGEST, 1.0, "x")


def test_digest_change_in_transit_detected():
    registry, site_a, site_b, _ = setup()
    registry.record_origin("obj-1", site_a, DIGEST, 100.0)
    altered = sha256(b"tampered bytes")
    registry.record_transfer("obj-1", site_a, "site-B", altered, 200.0, "migration")
    with pytest.raises(ProvenanceError, match="digest changed"):
        registry.chain_for("obj-1").verify(registry.trust)


def test_forged_event_fields_detected():
    registry, site_a, _, _ = setup()
    registry.record_origin("obj-1", site_a, DIGEST, 100.0)
    registry.record_transfer("obj-1", site_a, "site-B", DIGEST, 200.0, "migration")
    chain = registry.chain_for("obj-1")
    # Mallory edits the recipient after signing.
    chain._events[1] = dataclasses.replace(chain._events[1], to_custodian="site-M")
    with pytest.raises(ProvenanceError, match="payload mismatch"):
        chain.verify(registry.trust)


def test_unknown_signer_rejected():
    registry, site_a, _, _ = setup()
    mallory = Signer("mallory", keypair=KP_M)  # never registered
    registry.record_origin("obj-1", site_a, DIGEST, 100.0)
    chain = registry.chain_for("obj-1")
    forged = dataclasses.replace(
        chain._events[0],
        signed=mallory.sign({"anything": 1}),
        to_custodian="mallory",
    )
    chain._events[0] = forged
    with pytest.raises(ProvenanceError):
        chain.verify(registry.trust)


def test_custody_gap_detected():
    registry, site_a, site_b, site_c = setup()
    registry.record_origin("obj-1", site_a, DIGEST, 100.0)
    registry.record_transfer("obj-1", site_a, "site-B", DIGEST, 200.0, "m")
    chain = registry.chain_for("obj-1")
    # Splice out the A->B hop: now C appears to receive from A... but the
    # remaining event says from=A while holder is A - craft a C event.
    registry.record_transfer("obj-1", site_b, "site-C", DIGEST, 300.0, "m")
    del chain._events[1]  # remove A->B; B->C now follows origin at A
    with pytest.raises(ProvenanceError, match="custody gap"):
        chain.verify(registry.trust)


def test_verify_all_reports_problems():
    registry, site_a, site_b, _ = setup()
    registry.record_origin("ok", site_a, DIGEST, 100.0)
    registry.record_origin("bad", site_a, DIGEST, 100.0)
    chain = registry.chain_for("bad")
    chain._events[0] = dataclasses.replace(chain._events[0], reason="edited")
    problems = registry.verify_all()
    assert "bad" in problems and "ok" not in problems
    assert registry.object_ids() == ["bad", "ok"]


def test_empty_chain_has_no_custodian():
    from repro.provenance.chain import CustodyChain

    with pytest.raises(ProvenanceError):
        CustodyChain("x").current_custodian()
    assert CustodyChain("x").custodians() == []


# -- record_origin is record_origins of one -------------------------------------


def _two_single_origins():
    registry, site_a, _, _ = setup()
    registry.record_origin("obj-1", site_a, DIGEST, 100.0)
    registry.record_origin("obj-2", site_a, sha256(b"other bytes"), 100.0)
    return registry


def _reforge_origin(registry, object_id, **signed_fields):
    chain = registry.chain_for(object_id)
    origin = chain._events[0]
    chain._events[0] = dataclasses.replace(
        origin, signed=dataclasses.replace(origin.signed, **signed_fields)
    )


def test_single_origin_is_a_one_leaf_aggregate_that_verifies():
    registry, site_a, _, _ = setup()
    single = registry.record_origin("obj-1", site_a, DIGEST, 100.0)
    (batched,) = registry.record_origins([("obj-2", DIGEST)], site_a, 100.0)
    for event in (single, batched):
        assert isinstance(event.signed, AggregateSignedPayload)
        assert event.signed.leaf_count == 1
        assert event.reason == "created"
    assert registry.verify_all() == {}
    with pytest.raises(ProvenanceError, match="already has a custody chain"):
        registry.record_origin("obj-1", site_a, DIGEST, 100.0)


def test_one_leaf_origin_with_edited_payload_fails():
    registry = _two_single_origins()
    signed = registry.chain_for("obj-1").events()[0].signed
    _reforge_origin(
        registry, "obj-1", payload={**signed.payload, "digest": sha256(b"forged")}
    )
    with pytest.raises(ProvenanceError, match="signature invalid"):
        registry.chain_for("obj-1").verify(registry.trust)
    assert list(registry.verify_all()) == ["obj-1"]


def test_one_leaf_origin_with_edited_batch_root_fails():
    registry = _two_single_origins()
    _reforge_origin(registry, "obj-1", batch_root=sha256(b"another root"))
    with pytest.raises(ProvenanceError, match="signature invalid"):
        registry.chain_for("obj-1").verify(registry.trust)
    assert list(registry.verify_all()) == ["obj-1"]


def test_one_leaf_proof_swapped_in_from_another_record_fails():
    """obj-2's origin is genuinely signed by the same custodian, with the
    same leaf count and the same (empty) audit path — it still cannot
    stand in for obj-1's."""
    registry = _two_single_origins()
    other = registry.chain_for("obj-2").events()[0].signed
    # the whole signed payload transplanted: valid signature, wrong object
    chain = registry.chain_for("obj-1")
    chain._events[0] = dataclasses.replace(chain._events[0], signed=other)
    with pytest.raises(ProvenanceError, match="payload mismatch"):
        chain.verify(registry.trust)
    # only the root + signature transplanted under obj-1's own payload
    registry = _two_single_origins()
    other = registry.chain_for("obj-2").events()[0].signed
    _reforge_origin(
        registry, "obj-1", batch_root=other.batch_root, signature=other.signature,
        proof=other.proof,
    )
    with pytest.raises(ProvenanceError, match="signature invalid"):
        registry.chain_for("obj-1").verify(registry.trust)
    assert list(registry.verify_all()) == ["obj-1"]
