"""Secure shredding and the disposition workflow."""

import pytest

from repro.crypto.keys import KeyStore, ShreddedKeyError
from repro.errors import DispositionError, RetentionError
from repro.policy.engine import PolicyEngine
from repro.policy.model import DESTRUCTION_ACTION, Effect, PolicyRule, Tier
from repro.retention.disposition import DispositionWorkflow
from repro.retention.shredder import SecureShredder
from repro.storage.block import SCRUB_PASSES, MemoryDevice
from repro.util.clock import SimulatedClock
from repro.worm.retention_lock import RetentionTerm
from repro.worm.store import WormStore

MASTER = bytes(range(32))


def make_world(retention_seconds=100.0):
    clock = SimulatedClock(start=0.0)
    keystore = KeyStore(MASTER, clock=clock)
    store = WormStore(device=MemoryDevice("worm", 1 << 20), clock=clock)
    shredder = SecureShredder(keystore)
    handle = keystore.create_key()
    workflow = DispositionWorkflow(store, shredder, {"rec-1": handle}.get, clock=clock)
    cipher = keystore.cipher_for(handle)
    ciphertext = cipher.encrypt(b"PHI DATA").to_bytes()
    store.put("rec-1", ciphertext, retention=RetentionTerm(0.0, retention_seconds))
    return clock, keystore, store, shredder, workflow, handle


def destruction_grant(object_id):
    """An allow Decision for the destruction action, as the disposition
    workflow would mint it."""
    engine = PolicyEngine(
        (
            PolicyRule(
                rule_id="allow:test:destruction",
                effect=Effect.ALLOW,
                actions=frozenset({DESTRUCTION_ACTION}),
                tier=Tier.FALLBACK,
            ),
        )
    )
    return engine.decide("records-manager", DESTRUCTION_ACTION, object_id)


def test_shredder_requires_authorization():
    _, keystore, store, shredder, _, handle = make_world()
    with pytest.raises(DispositionError, match="authorization"):
        shredder.shred("rec-1", handle, [], authorization=None)


def test_shredder_rejects_authorization_for_another_object():
    _, keystore, store, shredder, _, handle = make_world()
    with pytest.raises(DispositionError, match="authorization"):
        shredder.shred("rec-1", handle, [], authorization=destruction_grant("rec-9"))


def test_shredder_rejects_non_destruction_decision():
    _, keystore, store, shredder, _, handle = make_world()
    engine = PolicyEngine(
        (
            PolicyRule(
                rule_id="allow:test:read",
                effect=Effect.ALLOW,
                actions=frozenset({"read_record"}),
                tier=Tier.FALLBACK,
            ),
        )
    )
    grant = engine.decide("records-manager", "read_record", "rec-1")
    assert grant.allowed
    with pytest.raises(DispositionError, match="authorization"):
        shredder.shred("rec-1", handle, [], authorization=grant)


def test_shredder_destroys_key_and_bytes():
    clock, keystore, store, shredder, _, handle = make_world()
    offset, size = store.physical_extent("rec-1")
    report = shredder.shred(
        "rec-1",
        handle,
        [(store.device, offset, size)],
        authorization=destruction_grant("rec-1"),
    )
    assert report.key_shredded
    assert report.bytes_overwritten == size
    assert report.overwrite_passes == SCRUB_PASSES
    assert keystore.is_shredded(handle)
    assert store.device.raw_read(offset, size) == bytes(size)
    assert shredder.verify_destroyed(handle, [(store.device, offset, size)])


def test_verify_destroyed_detects_surviving_key():
    _, keystore, store, shredder, _, handle = make_world()
    assert not shredder.verify_destroyed(handle, [])


def test_verify_destroyed_detects_surviving_bytes():
    _, keystore, store, shredder, _, handle = make_world()
    keystore.shred(handle)
    offset, size = store.physical_extent("rec-1")
    assert not shredder.verify_destroyed(handle, [(store.device, offset, size)])


def test_workflow_identify_respects_retention():
    clock, _, _, _, workflow, _ = make_world(retention_seconds=100.0)
    assert workflow.identify() == []
    clock.advance(200.0)
    assert workflow.identify() == ["rec-1"]
    assert workflow.pending() == ["rec-1"]
    # Re-identification does not duplicate tickets.
    assert workflow.identify() == []


def test_workflow_requires_approval_before_execute():
    clock, _, _, _, workflow, _ = make_world()
    clock.advance(200.0)
    workflow.identify()
    with pytest.raises(DispositionError, match="approved"):
        workflow.execute("rec-1")


def test_workflow_approval_requires_identification():
    clock, _, _, _, workflow, _ = make_world()
    with pytest.raises(DispositionError, match="never identified"):
        workflow.approve("rec-1", "manager")


def test_workflow_approval_requires_named_approver():
    clock, _, _, _, workflow, _ = make_world()
    clock.advance(200.0)
    workflow.identify()
    with pytest.raises(DispositionError):
        workflow.approve("rec-1", "")


def test_full_disposition_destroys_record():
    clock, keystore, store, shredder, workflow, handle = make_world()
    clock.advance(200.0)
    workflow.identify()
    workflow.approve("rec-1", "records-manager")
    certificate = workflow.execute("rec-1")
    assert certificate.approved_by == "records-manager"
    assert certificate.shred_report.key_shredded
    assert "rec-1" not in store
    with pytest.raises(ShreddedKeyError):
        keystore.cipher_for(handle)
    offset, size = store.physical_extent("rec-1")
    assert store.device.raw_read(offset, size) == bytes(size)
    assert workflow.certificate_for("rec-1") is certificate


def test_hold_between_approval_and_execution_blocks():
    clock, _, store, _, workflow, _ = make_world()
    clock.advance(200.0)
    workflow.identify()
    workflow.approve("rec-1", "manager")
    store.retention.place_hold("rec-1", "lawsuit-1")
    with pytest.raises(RetentionError, match="hold"):
        workflow.execute("rec-1")


def test_double_execution_rejected():
    clock, _, _, _, workflow, _ = make_world()
    clock.advance(200.0)
    workflow.run_full_cycle("manager")
    with pytest.raises(DispositionError):
        workflow.execute("rec-1")


def test_run_full_cycle():
    clock, _, store, _, workflow, _ = make_world()
    clock.advance(200.0)
    certificates = workflow.run_full_cycle("manager")
    assert len(certificates) == 1
    assert workflow.certificates() == certificates


def test_certificate_for_unknown_record():
    _, _, _, _, workflow, _ = make_world()
    with pytest.raises(DispositionError):
        workflow.certificate_for("rec-1")
