"""The role-tier rules alone: role capabilities, purposes, treating
relationships (no consent, no break-glass, no system override)."""

import pytest

from repro.access.principals import Role, User
from repro.access.rbac import Permission, Purpose
from repro.policy.engine import PolicyEngine
from repro.policy.model import PolicyContext, Tier
from repro.policy.rules import DEFAULT_RULES

ENGINE = PolicyEngine([rule for rule in DEFAULT_RULES if rule.tier is Tier.ROLE])


def physician(treating=("pat-1",)):
    return User.make("dr-a", "Dr. A", [Role.PHYSICIAN], "cardiology", treating)


def ctx(purpose=Purpose.TREATMENT, patient="pat-1", own=False):
    return PolicyContext(purpose=purpose, patient_id=patient, own_record=own)


def decide(user, permission, context):
    return ENGINE.decide(user, permission, context.patient_id, context)


def test_user_requires_role():
    with pytest.raises(ValueError):
        User.make("u", "U", [])


def test_user_validation():
    from repro.errors import ValidationError

    with pytest.raises(ValidationError):
        User.make("", "U", [Role.NURSE])


def test_physician_reads_treated_patient():
    decision = decide(physician(), Permission.READ_RECORD, ctx())
    assert decision.allowed
    assert decision.role_used is Role.PHYSICIAN
    assert "grants" in decision.reason


def test_physician_denied_untreated_patient():
    decision = decide(
        physician(treating=()), Permission.READ_RECORD, ctx(patient="pat-9")
    )
    assert not decision.allowed
    assert "treating relationship" in decision.reason


def test_emergency_purpose_bypasses_treating_check():
    decision = decide(
        physician(treating=()),
        Permission.READ_RECORD,
        ctx(purpose=Purpose.EMERGENCY, patient="pat-9"),
    )
    assert decision.allowed


def test_physician_can_correct_nurse_cannot():
    nurse = User.make("rn-1", "RN", [Role.NURSE], treating=["pat-1"])
    assert decide(physician(), Permission.CORRECT_RECORD, ctx())
    assert not decide(nurse, Permission.CORRECT_RECORD, ctx())


def test_billing_limited_to_payment_purpose():
    billing = User.make("bill-1", "B", [Role.BILLING])
    assert decide(billing, Permission.READ_RECORD, ctx(purpose=Purpose.PAYMENT))
    denied = decide(billing, Permission.READ_RECORD, ctx(purpose=Purpose.TREATMENT))
    assert not denied
    assert "payment" in denied.reason


def test_researcher_exports_deidentified_only_for_research():
    researcher = User.make("res-1", "R", [Role.RESEARCHER])
    assert decide(
        researcher, Permission.EXPORT_DEIDENTIFIED, ctx(purpose=Purpose.RESEARCH)
    )
    assert not decide(
        researcher, Permission.EXPORT_DEIDENTIFIED, ctx(purpose=Purpose.OPERATIONS)
    )
    assert not decide(researcher, Permission.READ_RECORD, ctx(purpose=Purpose.RESEARCH))


def test_patient_reads_own_record_only():
    patient = User.make("pat-1", "P", [Role.PATIENT])
    own = ctx(Purpose.PATIENT_REQUEST, "pat-1", own=True)
    other = ctx(Purpose.PATIENT_REQUEST, "pat-2")
    assert decide(patient, Permission.READ_RECORD, own)
    assert not decide(patient, Permission.READ_RECORD, other)


def test_media_technician_never_reads_records():
    tech = User.make("tech-1", "T", [Role.MEDIA_TECHNICIAN])
    assert decide(tech, Permission.MANAGE_MEDIA, ctx(purpose=Purpose.OPERATIONS))
    assert not decide(tech, Permission.READ_RECORD, ctx(purpose=Purpose.OPERATIONS))


def test_sysadmin_manages_but_does_not_read():
    admin = User.make("adm-1", "A", [Role.SYSTEM_ADMIN])
    assert decide(admin, Permission.RUN_MIGRATION, ctx(purpose=Purpose.OPERATIONS))
    assert decide(admin, Permission.MANAGE_RETENTION, ctx(purpose=Purpose.OPERATIONS))
    assert not decide(admin, Permission.READ_RECORD, ctx(purpose=Purpose.OPERATIONS))


def test_privacy_officer_reads_audit_trail():
    officer = User.make("po-1", "PO", [Role.PRIVACY_OFFICER])
    assert decide(officer, Permission.READ_AUDIT_TRAIL, ctx(purpose=Purpose.OPERATIONS))


def test_multi_role_user_gets_union_of_grants():
    user = User.make(
        "dr-adm", "Dual", [Role.PHYSICIAN, Role.SYSTEM_ADMIN], treating=["pat-1"]
    )
    assert decide(user, Permission.READ_RECORD, ctx())
    assert decide(user, Permission.RUN_MIGRATION, ctx(purpose=Purpose.OPERATIONS))


def test_denial_explains_missing_capability():
    nurse = User.make("rn-1", "RN", [Role.NURSE])
    decision = decide(nurse, Permission.RUN_MIGRATION, ctx())
    assert not decision.allowed
    assert "run_migration" in decision.reason
