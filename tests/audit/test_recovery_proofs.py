"""Audit log recovery after restart and third-party event proofs."""

import pytest

from repro.audit.anchors import AnchorWitness, publish_anchor
from repro.audit.events import AuditAction
from repro.audit.log import AuditLog, verify_event_proof
from repro.crypto.rsa import generate_keypair
from repro.crypto.signatures import Signer
from repro.errors import AuditError, IntegrityError
from repro.storage.block import MemoryDevice
from repro.storage.failures import FaultInjector
from repro.util.clock import SimulatedClock
from repro.util.rng import DeterministicRng

KEYPAIR = generate_keypair(768)


def grown_log(n=20):
    clock = SimulatedClock(start=1000.0)
    log = AuditLog(device=MemoryDevice("audit", 1 << 20), clock=clock)
    for i in range(n):
        clock.advance(1.0)
        log.append(AuditAction.RECORD_READ, f"actor-{i % 3}", f"rec-{i}")
    return clock, log


def test_recover_reproduces_state():
    clock, log = grown_log(15)
    recovered = AuditLog(log.device, clock=clock)
    assert len(recovered) == 15
    assert recovered.head_digest == log.head_digest
    assert recovered.merkle_root() == log.merkle_root()
    assert recovered.events() == log.events()


def test_recover_then_append_continues_chain():
    clock, log = grown_log(5)
    recovered = AuditLog(log.device, clock=clock)
    recovered.append(AuditAction.RECORD_READ, "actor-x", "rec-new")
    assert recovered.verify_chain().ok
    assert len(recovered) == 6


def test_recover_drops_crash_tail():
    clock, log = grown_log(10)
    FaultInjector(DeterministicRng(3)).truncate_tail(log.device, lost_bytes=15)
    recovered = AuditLog(log.device, clock=clock)
    assert len(recovered) == 9
    assert recovered.verify_chain().ok


def test_recover_rejects_midlog_tampering():
    clock, log = grown_log(10)
    from repro.storage.journal import Journal

    frames = list(Journal.walk_frames(log.device))
    offset, payload, _ok = frames[4]
    Journal.forge_frame(log.device, offset, payload[:-6] + b"FORGED")
    with pytest.raises(AuditError, match="recovery failed"):
        AuditLog(log.device, clock=clock)


def test_recover_empty_device():
    recovered = AuditLog(MemoryDevice("empty", 1 << 16))
    assert len(recovered) == 0
    assert recovered.verify_chain().ok


def test_event_proof_against_anchor():
    clock, log = grown_log(12)
    signer = Signer("hospital-A", keypair=KEYPAIR)
    witness = AnchorWitness(signer.verifier())
    anchor = publish_anchor(log, signer, clock.now())
    witness.receive(anchor, log)

    event, chain_prev, proof = log.prove_event(7, at_size=anchor.log_size)
    # The third party checks against the witnessed root only.
    verify_event_proof(event, chain_prev, proof, anchor.merkle_root)


def test_event_proof_after_log_grows_past_anchor():
    clock, log = grown_log(12)
    signer = Signer("hospital-A", keypair=KEYPAIR)
    anchor = publish_anchor(log, signer, clock.now())
    # The log keeps growing; proofs must target the anchored size.
    for i in range(5):
        log.append(AuditAction.RECORD_READ, "actor-z", f"rec-late-{i}")
    event, chain_prev, proof = log.prove_event(3, at_size=anchor.log_size)
    verify_event_proof(event, chain_prev, proof, anchor.merkle_root)


def test_event_proof_reads_one_frame_however_long_the_log(monkeypatch):
    from repro.audit import log as audit_log

    clock, log = grown_log(2000)
    signer = Signer("hospital-A", keypair=KEYPAIR)
    anchor = publish_anchor(log, signer, clock.now())
    decodes = [0]
    real = audit_log.decode_frame

    def counting(frame, decisions):
        decodes[0] += 1
        return real(frame, decisions)

    monkeypatch.setattr(audit_log, "decode_frame", counting)
    for sequence in (0, 1, 1000, 1999):
        decodes[0] = 0
        event, chain_prev, proof = log.prove_event(sequence, at_size=anchor.log_size)
        assert decodes[0] == 1  # the event's own frame, not every earlier event
        assert chain_prev == log.expected_head_for(log.events()[:sequence])
        verify_event_proof(event, chain_prev, proof, anchor.merkle_root)


def test_event_proof_refuses_a_frame_tampered_on_the_device():
    from repro.storage.journal import Journal

    clock, log = grown_log(12)
    offset, payload, _ok = list(Journal.walk_frames(log.device))[7]
    assert b"actor-1" in payload  # a well-formed frame naming somebody else
    Journal.forge_frame(log.device, offset, payload.replace(b"actor-1", b"actor-2"))
    with pytest.raises(AuditError, match="trusted Merkle leaf"):
        log.prove_event(7)
    log.prove_event(6)  # the neighbours still prove


def test_event_proof_inside_an_open_batch_flushes_first():
    clock, log = grown_log(4)
    log.begin_batch()
    log.append(AuditAction.RECORD_READ, "actor-z", "rec-buffered")
    event, chain_prev, proof = log.prove_event(4)
    verify_event_proof(event, chain_prev, proof, log.merkle_root())
    assert log.in_batch and log.commit() == 0  # flushed, batch still open


def test_event_proof_rejects_forged_event():
    import dataclasses

    clock, log = grown_log(12)
    signer = Signer("hospital-A", keypair=KEYPAIR)
    anchor = publish_anchor(log, signer, clock.now())
    event, chain_prev, proof = log.prove_event(7, at_size=anchor.log_size)
    forged = dataclasses.replace(event, actor_id="somebody-else")
    with pytest.raises(IntegrityError):
        verify_event_proof(forged, chain_prev, proof, anchor.merkle_root)


def test_event_proof_beyond_anchor_rejected():
    clock, log = grown_log(12)
    signer = Signer("hospital-A", keypair=KEYPAIR)
    anchor = publish_anchor(log, signer, clock.now())
    log.append(AuditAction.RECORD_READ, "actor-z", "rec-late")
    with pytest.raises(AuditError, match="not covered"):
        log.prove_event(12, at_size=anchor.log_size)
