"""Every decided engine call lands in the audit chain exactly once.

A plain allow rides on the event of the operation it authorized
(``RECORD_READ``, ``RECORD_SEARCHED``, ``RECORD_EXPORTED``,
``RECORD_CORRECTED``; the accounting of disclosures, which has no event
of its own, keeps ``ACCESS_GRANTED``).  A denial is its own
``ACCESS_DENIED``.  An emergency allow is its own ``EMERGENCY_ACCESS``,
the event break-glass review reads, and the operation's event after it
carries no second copy of the decision.  An operation that raises after
the allow still appends its event, marked ``failed`` with the
exception's class name and no message text."""

import pytest

from repro.access.principals import Role, User
from repro.access.rbac import Permission, Purpose
from repro.audit.events import AuditAction
from repro.core import CuratorConfig, CuratorStore
from repro.errors import AccessDeniedError, IntegrityError, RecordError
from repro.policy import PolicyContext
from repro.records.ids import version_id
from repro.records.model import ClinicalNote, HealthRecord
from repro.util.clock import SimulatedClock
from repro.verify.crashpoint import surviving_image

MASTER = bytes(range(32))
DECISION = {"rule", "rule_id", "trace"}


def make_store():
    clock = SimulatedClock(start=1.17e9)
    config = CuratorConfig(master_key=MASTER, clock=clock, device_capacity=1 << 22)
    store = CuratorStore(config)
    for user_id, role in (
        ("dr-b", Role.PHYSICIAN), ("res", Role.RESEARCHER),
        ("po", Role.PRIVACY_OFFICER), ("admin", Role.SYSTEM_ADMIN),
    ):
        store.register_user(User.make(user_id, user_id, [role]))
    for n in range(2):
        store.store(
            ClinicalNote.create(
                record_id=f"rec-{n}", patient_id="pat-1", created_at=clock.now(),
                author="dr-a", specialty="oncology", text=f"biopsy followup {n}",
            ),
            author_id="dr-a",
        )
    store.attach("rec-0", "scan", b"pixels" * 100, actor_id="dr-a")
    return store, clock, config


def amendment(store, clock, record_id):
    current = store.read(record_id, actor_id="system")
    return HealthRecord(
        record_id=record_id, record_type=current.record_type,
        patient_id=current.patient_id, created_at=clock.now(),
        body={**current.body, "text": "amended after review"},
    )


def calls(store, clock, actor):
    """``name -> (call, the operation's own action, its subject)`` for
    every decided engine call, made as *actor*."""
    corrected = amendment(store, clock, "rec-1")
    return {
        "read": (lambda: store.read("rec-0", actor_id=actor),
                 AuditAction.RECORD_READ, "rec-0"),
        "read_version": (lambda: store.read_version("rec-0", 0, actor_id=actor),
                         AuditAction.RECORD_READ, "rec-0"),
        "read_attachment": (
            lambda: store.read_attachment("rec-0", "scan", actor_id=actor),
            AuditAction.RECORD_READ, "rec-0#att/scan",
        ),
        "search": (lambda: store.search("biopsy", actor_id=actor),
                   AuditAction.RECORD_SEARCHED, None),
        "export": (lambda: store.export_deidentified("rec-1", actor_id=actor),
                   AuditAction.RECORD_EXPORTED, "rec-1"),
        "correct": (lambda: store.correct(corrected, actor, "amend"),
                    AuditAction.RECORD_CORRECTED, "rec-1"),
        "accounting": (lambda: store.accounting_of_disclosures("pat-1", actor_id=actor),
                       AuditAction.ACCESS_GRANTED, "disclosures:pat-1"),
    }


#: Who is allowed each call (a physician treating pat-1, a researcher
#: for the export, the privacy officer for the accounting).
ALLOWED = {
    "read": "dr-a", "read_version": "dr-a", "read_attachment": "dr-a",
    "search": "dr-a", "export": "res", "correct": "dr-a", "accounting": "po",
}


def new_events(store, call):
    """The events *call* appends, anchors left out (an anchor falls due
    on a cadence, not per call)."""
    before = len(store.audit_log)
    call()
    return [
        event for event in store.audit_log.events()[before:]
        if event.action is not AuditAction.ANCHOR_PUBLISHED
    ]


def restarted(store, config):
    images = {name: surviving_image(device) for name, device in store.device_set().items()}
    return CuratorStore.recover_from_devices(
        config, **images, witnesses=[store.witness], signer=store.signer
    )


def test_a_plain_allow_rides_on_the_operations_own_event_and_survives_a_restart():
    store, clock, config = make_store()
    landed = {}
    for name, actor in ALLOWED.items():
        call, action, subject = calls(store, clock, actor)[name]
        (event,) = new_events(store, call)
        assert event.action is action, name
        assert subject is None or event.subject_id == subject, name
        assert DECISION <= set(event.detail), name
        # the operation's action names the permission; only the
        # accounting's ACCESS_GRANTED, which names none, writes it
        assert ("permission" in event.detail) == (name == "accounting"), name
        assert event.detail["rule_id"].startswith("allow:"), name
        assert event.detail["trace"], name
        landed[event.sequence] = event.detail
    # the decision text rides once per log; a restart rebuilds every
    # event's decision from the frame that carries it
    recovered = restarted(store, config)
    events = recovered.audit_log.events()
    for sequence, detail in landed.items():
        assert events[sequence].detail == detail
    assert recovered.verify_audit_trail().ok


def test_a_denial_is_one_access_denied_event_and_the_operation_never_runs():
    store, clock, _ = make_store()
    denied = {name: "dr-b" for name in ALLOWED} | {"search": "admin"}
    for name, actor in denied.items():
        call, _action, _subject = calls(store, clock, actor)[name]

        def attempt():
            with pytest.raises(AccessDeniedError):
                call()

        events = new_events(store, attempt)
        assert [e.action for e in events] == [AuditAction.ACCESS_DENIED], name
        assert events[0].detail["rule_id"] and events[0].detail["trace"], name


def test_an_emergency_allow_keeps_its_own_event_and_the_decision_lands_once():
    store, clock, _ = make_store()
    store.break_glass("dr-b", "pat-1", justification="patient unconscious in the ER")
    for name in ("read", "read_version", "read_attachment", "export", "correct", "accounting"):
        call, action, subject = calls(store, clock, "dr-b")[name]
        events = new_events(store, call)
        assert [e.action for e in events] == [AuditAction.EMERGENCY_ACCESS, action], name
        grant, operation = events
        assert grant.detail["rule_id"] == "allow:break-glass", name
        assert grant.subject_id == operation.subject_id == subject, name
        assert not (DECISION | {"permission"}) & set(operation.detail), name
    assert len(store.audit_query().emergency_accesses()) == 1 + 6


@pytest.mark.parametrize("fault", ["out_of_range_version", "decayed_worm_byte"])
def test_a_raise_after_the_allow_still_appends_the_operations_event(fault):
    store, clock, config = make_store()
    if fault == "out_of_range_version":
        call, error = (lambda: store.read_version("rec-0", 7, actor_id="dr-a")), RecordError
    else:
        offset, size = store.worm.physical_extent(version_id("rec-0", 0))
        (byte,) = store.worm.device.raw_read(offset + size // 2, 1)
        store.worm.device.raw_write(offset + size // 2, bytes([byte ^ 0x5A]))
        store._dir.purge("rec-0")
        call, error = (lambda: store.read("rec-0", actor_id="dr-a")), IntegrityError

    raised = []

    def attempt():
        with pytest.raises(error) as info:
            call()
        raised.append(info.value)

    (event,) = new_events(store, attempt)
    assert event.action is AuditAction.RECORD_READ
    assert set(event.detail) == {"failed"} | DECISION
    assert event.detail["failed"] == type(raised[0]).__name__
    assert event.detail["rule_id"] == "allow:physician:read_record"
    # no free text: the exception's message is nowhere in the event
    assert str(raised[0]) not in repr(event.to_dict())
    recovered = restarted(store, config)
    assert recovered.audit_log.events()[event.sequence].detail == event.detail


def test_an_old_chain_with_a_grant_and_a_read_per_access_still_replays():
    """Chains written before a decision rode on its operation hold an
    ``ACCESS_GRANTED`` and a bare ``RECORD_READ`` per access; they still
    open, verify and account."""
    store, clock, config = make_store()
    user = store._workforce.resolve("dr-a")
    decision = store.policy.decide(
        user, Permission.READ_RECORD, "rec-0",
        PolicyContext(purpose=Purpose.TREATMENT, patient_id="pat-1", own_record=False),
    )
    for _ in range(3):
        store._anchors.append(
            AuditAction.ACCESS_GRANTED, "dr-a", "rec-0",
            {"permission": "read_record", **decision.to_audit_detail()},
        )
        store._anchors.append(AuditAction.RECORD_READ, "dr-a", "rec-0", {"version": 0})
    recovered = restarted(store, config)
    assert recovered.verify_audit_trail().ok
    grants = recovered.audit_query().by_action(AuditAction.ACCESS_GRANTED)
    assert [g.detail["rule_id"] for g in grants] == ["allow:physician:read_record"] * 3
    # enrolments are process memory: the restart does not bring them back
    recovered.register_user(User.make("po", "po", [Role.PRIVACY_OFFICER]))
    report = recovered.accounting_of_disclosures("pat-1", actor_id="po")
    assert [e.action for e in report if e.subject_id == "rec-0"].count(
        AuditAction.RECORD_READ
    ) == 3
