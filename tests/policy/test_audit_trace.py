"""Decision traces on the audit chain: every outcome — grant, denial,
emergency — records which rule decided and every rule consulted."""

import pytest

from repro.access.principals import Role, User
from repro.core import CuratorConfig, CuratorStore
from repro.errors import AccessDeniedError
from repro.records.model import ClinicalNote
from repro.util.clock import SimulatedClock

MASTER = bytes(range(32))


def make_store():
    clock = SimulatedClock(start=1.17e9)
    store = CuratorStore(CuratorConfig(master_key=MASTER, clock=clock))
    store.store(
        ClinicalNote.create(
            record_id="rec-1",
            patient_id="pat-1",
            created_at=100.0,
            author="dr-a",
            specialty="oncology",
            text="biopsy shows metastatic carcinoma",
        ),
        author_id="dr-a",
    )
    return store


def last_event(store, action):
    events = [e for e in store.audit_events() if e["action"] == action]
    assert events, f"no {action} event on the chain"
    return events[-1]


def test_denied_access_logs_the_decision_trace():
    store = make_store()
    store.register_user(User.make("dr-b", "Dr. B", [Role.PHYSICIAN]))
    with pytest.raises(AccessDeniedError, match="treating"):
        store.read("rec-1", actor_id="dr-b")
    event = last_event(store, "access_denied")
    detail = event["detail"]
    assert detail["permission"] == "read_record"
    assert detail["rule_id"] == "default:deny"
    assert "no treating relationship" in detail["reason"]
    consulted = [t["rule"] for t in detail["trace"]]
    assert "allow:physician:read_record" in consulted
    failed = next(
        t for t in detail["trace"] if t["rule"] == "allow:physician:read_record"
    )
    assert not failed["matched"]
    assert "no treating relationship" in failed["detail"]


def test_granted_access_logs_rule_id_and_trace():
    store = make_store()
    store.read("rec-1", actor_id="dr-a")
    event = last_event(store, "record_read")
    detail = event["detail"]
    assert detail["rule_id"] == "allow:physician:read_record"
    assert detail["rule"] == "role physician grants read_record for purpose treatment"
    assert any(t["rule"] == "allow:physician:read_record" for t in detail["trace"])


def test_emergency_access_logs_the_break_glass_rule():
    store = make_store()
    store.register_user(User.make("dr-er", "ER Doc", [Role.PHYSICIAN]))
    store.break_glass("dr-er", "pat-1", "patient unconscious in emergency room")
    store.read("rec-1", actor_id="dr-er")
    event = last_event(store, "emergency_access")
    detail = event["detail"]
    assert detail["rule_id"] == "allow:break-glass"
    assert any(t["rule"] == "allow:break-glass" and t["matched"] for t in detail["trace"])


def test_unknown_principal_denial_keeps_the_legacy_shape():
    store = make_store()
    with pytest.raises(AccessDeniedError, match="unknown principal"):
        store.read("rec-1", actor_id="stranger")
    detail = last_event(store, "access_denied")["detail"]
    assert detail == {"reason": "unknown principal", "permission": "read_record"}
