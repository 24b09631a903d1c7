"""Decisions written once, by digest: a third party still checks a
single exported access event, and a restart rebuilds every trace —
including one whose only text sits under a sealed watermark — without
writing that text again."""

import copy
import random

import pytest

from repro.audit.checkpoint import CheckpointStore
from repro.audit.events import AuditAction, AuditEvent
from repro.audit.log import AuditLog, verify_event_proof
from repro.core import CuratorConfig, CuratorStore
from repro.errors import IntegrityError
from repro.records.model import ClinicalNote
from repro.storage.block import MemoryDevice
from repro.util.clock import SimulatedClock

KEY = b"\x42" * 32


def decision(rule_id="allow:physician:read_record"):
    """An access decision detail as the engine records one."""
    return {
        "permission": "read_record",
        "rule": "role physician grants read_record for purpose treatment",
        "rule_id": rule_id,
        "trace": [
            {"rule": "allow:system", "effect": "allow", "matched": False,
             "detail": "system principal"},
            {"rule": rule_id, "effect": "allow", "matched": True, "detail": ""},
        ],
    }


def test_a_third_party_checks_one_exported_access_event():
    clock = SimulatedClock(start=1.17e9)
    store = CuratorStore(CuratorConfig(master_key=bytes(range(32)), clock=clock))
    store.store(
        ClinicalNote.create(
            record_id="rec-1", patient_id="pat-1", created_at=100.0, author="dr-a",
            specialty="oncology", text="routine followup visit",
        ),
        author_id="dr-a",
    )
    for _ in range(3):
        store.read("rec-1", actor_id="dr-a")
    exported = store.audit_events()
    # the last read references a decision whose text an earlier frame carries
    sequence = max(
        n for n, e in enumerate(exported) if e["action"] == "record_read"
    )
    _event, chain_prev, proof, anchor = store.prove_audit_event(sequence)
    # the verifier holds the anchored root, the exported event, chain_prev
    # and the proof — nothing else of the log
    rebuilt = AuditEvent.from_dict(copy.deepcopy(exported[sequence]))
    assert rebuilt.detail["trace"]
    verify_event_proof(rebuilt, chain_prev, proof, anchor.merkle_root)
    forged = copy.deepcopy(exported[sequence])
    entry = forged["detail"]["trace"][-1]
    entry["rule"] = entry["rule"][:-1] + ("x" if entry["rule"][-1] != "x" else "y")
    with pytest.raises(IntegrityError):
        verify_event_proof(AuditEvent.from_dict(forged), chain_prev, proof, anchor.merkle_root)
    log = store.audit_log
    assert log.expected_head_for(log.events()) == log.head_digest


def test_restart_rebuilds_traces_defined_under_a_sealed_watermark():
    clock = SimulatedClock(start=1.17e9)
    device, ckpt_device = MemoryDevice("audit", 1 << 22), MemoryDevice("ckpt", 1 << 20)
    log = AuditLog(
        device=device,
        clock=clock,
        checkpoints=CheckpointStore(device=ckpt_device, key=KEY, clock=clock),
        rng=random.Random(7),
    )
    log.append(AuditAction.ACCESS_GRANTED, "dr-a", "rec-1", decision())
    log.append(AuditAction.RECORD_READ, "dr-a", "rec-1", {"version": 0})
    assert log.verify_chain().ok  # the trace's only text is now sealed
    for n in range(4):
        clock.advance(1.0)
        log.append(AuditAction.ACCESS_GRANTED, "dr-a", f"rec-{n}", decision())
        log.append(AuditAction.ACCESS_DENIED, "dr-b", f"rec-{n}", decision("default:deny"))
    assert log.verify_chain(incremental=True).ok

    recovered = AuditLog(device, clock=clock)
    assert recovered.events() == log.events()
    assert [e.detail for e in recovered.events()] == [e.detail for e in log.events()]
    assert recovered.head_digest == log.head_digest
    assert recovered.merkle_root() == log.merkle_root()
    recovered.adopt_checkpoints(CheckpointStore(ckpt_device, key=KEY))
    result = recovered.verify_chain(incremental=True)
    assert result.ok and result.mode == "incremental"

    # both decisions are on the device: neither text is written again
    used = device.used
    event = recovered.append(AuditAction.ACCESS_GRANTED, "dr-a", "rec-9", decision())
    recovered.append(AuditAction.ACCESS_DENIED, "dr-b", "rec-9", decision("default:deny"))
    assert b"allow:system" not in device.raw_read(used, device.used - used)
    assert event.detail["trace"] == decision()["trace"]
    assert recovered.verify_chain().ok
    assert AuditLog(device).events() == recovered.events()
