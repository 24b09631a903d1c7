"""Audit log: chaining, persistence, tamper detection and localization."""

import pytest

from repro.audit.events import AuditAction, AuditEvent
from repro.audit.log import AuditLog
from repro.errors import AuditError, ValidationError
from repro.storage.block import MemoryDevice
from repro.util.clock import SimulatedClock


def make_log(n_events=0):
    clock = SimulatedClock(start=1000.0)
    log = AuditLog(device=MemoryDevice("audit", 1 << 20), clock=clock)
    for i in range(n_events):
        clock.advance(1.0)
        log.append(AuditAction.RECORD_READ, f"actor-{i % 3}", f"rec-{i}")
    return log


def test_append_assigns_sequence_and_time():
    log = make_log()
    event = log.append(AuditAction.RECORD_CREATED, "dr-a", "rec-1")
    assert event.sequence == 0
    assert event.timestamp == 1000.0
    assert len(log) == 1


def test_head_digest_changes_per_event():
    log = make_log()
    heads = {bytes(log.head_digest)}
    for i in range(5):
        log.append(AuditAction.RECORD_READ, "dr-a", f"rec-{i}")
        heads.add(bytes(log.head_digest))
    assert len(heads) == 6


def test_event_accessor_bounds():
    log = make_log(2)
    assert log.event(1).subject_id == "rec-1"
    with pytest.raises(AuditError):
        log.event(2)


def test_empty_actor_rejected():
    log = make_log()
    with pytest.raises(ValidationError):
        log.append(AuditAction.RECORD_READ, "", "rec-1")


def test_verify_clean_log():
    log = make_log(20)
    verification = log.verify_chain()
    assert verification.ok
    assert verification.events_checked == 20


def test_verify_detects_raw_device_edit():
    log = make_log(10)
    # Insider flips bytes in the middle of the journal region.
    log.device.raw_write(log.device.used // 2, b"\xff\xff\xff")
    verification = log.verify_chain()
    assert not verification.ok
    assert verification.first_bad_sequence is not None


def test_verify_localizes_first_tampered_event():
    log = make_log(10)
    # Corrupt exactly event 4's journal frame.
    offset, length = log._journal._entries[4]
    log.device.raw_write(offset + 20, b"XX")
    verification = log.verify_chain()
    assert not verification.ok
    assert verification.first_bad_sequence == 4
    # the four frames before it were replayed, and the frame is named
    assert verification.events_checked == 4
    assert verification.problem.startswith("event 4 unreadable")


def test_verify_detects_truncation_against_memory_head():
    log = make_log(10)
    offset, _ = log._journal._entries[7]
    log.device.truncate_to(offset)  # crude truncation
    log._journal._entries = log._journal._entries[:7]
    verification = log.verify_chain()
    assert not verification.ok
    assert "truncation" in verification.problem or "head" in verification.problem


def test_events_returns_copies_in_order():
    log = make_log(5)
    events = log.events()
    assert [e.sequence for e in events] == list(range(5))
    events.append("junk")  # type: ignore[arg-type]
    assert len(log.events()) == 5


def test_expected_head_for_matches_real_head():
    log = make_log(8)
    assert log.expected_head_for(log.events()) == log.head_digest


def test_expected_head_for_detects_edited_export():
    log = make_log(8)
    events = log.events()
    events[3] = AuditEvent(
        sequence=3,
        timestamp=events[3].timestamp,
        action=events[3].action,
        actor_id="someone-else",
        subject_id=events[3].subject_id,
        detail=events[3].detail,
    )
    assert log.expected_head_for(events) != log.head_digest


def test_event_dict_round_trip():
    log = make_log(1)
    event = log.event(0)
    assert AuditEvent.from_dict(event.to_dict()) == event


def test_merkle_root_tracks_appends():
    log = make_log()
    empty_root = log.merkle_root()
    log.append(AuditAction.RECORD_READ, "dr-a", "rec-1")
    assert log.merkle_root() != empty_root
