"""The RBAC vocabulary and capability tables.

This module owns the *data*: the permission and purpose enums, the
role → capability table, the (role, permission) → purpose restrictions,
and which roles/permissions require a treating relationship.  The
*decision logic* lives in :mod:`repro.policy` — the tables here are
compiled into the declarative default ruleset by
:func:`repro.policy.compiler.compile_rbac_rules`; a
:class:`~repro.policy.engine.PolicyEngine` over those rules alone gives
pure role decisions (no consent, no break-glass).
"""

from __future__ import annotations

import enum

from repro.access.principals import Role


class Permission(enum.Enum):
    """Operations the storage engine gates."""

    CREATE_RECORD = "create_record"
    READ_RECORD = "read_record"
    CORRECT_RECORD = "correct_record"
    SEARCH_RECORDS = "search_records"
    EXPORT_DEIDENTIFIED = "export_deidentified"
    READ_AUDIT_TRAIL = "read_audit_trail"
    MANAGE_RETENTION = "manage_retention"
    MANAGE_MEDIA = "manage_media"
    RUN_MIGRATION = "run_migration"
    MANAGE_BACKUP = "manage_backup"
    MANAGE_CONSENT = "manage_consent"


class Purpose(enum.Enum):
    """HIPAA purposes of use."""

    TREATMENT = "treatment"
    PAYMENT = "payment"
    OPERATIONS = "operations"
    RESEARCH = "research"
    EMERGENCY = "emergency"
    PATIENT_REQUEST = "patient_request"


_ROLE_PERMISSIONS: dict[Role, frozenset[Permission]] = {
    Role.PHYSICIAN: frozenset(
        {
            Permission.CREATE_RECORD,
            Permission.READ_RECORD,
            Permission.CORRECT_RECORD,
            Permission.SEARCH_RECORDS,
        }
    ),
    Role.NURSE: frozenset(
        {Permission.CREATE_RECORD, Permission.READ_RECORD, Permission.SEARCH_RECORDS}
    ),
    Role.BILLING: frozenset({Permission.READ_RECORD, Permission.SEARCH_RECORDS}),
    Role.RESEARCHER: frozenset({Permission.EXPORT_DEIDENTIFIED, Permission.SEARCH_RECORDS}),
    Role.PRIVACY_OFFICER: frozenset(
        {
            Permission.READ_AUDIT_TRAIL,
            Permission.MANAGE_CONSENT,
            Permission.READ_RECORD,
            Permission.SEARCH_RECORDS,
        }
    ),
    Role.MEDIA_TECHNICIAN: frozenset({Permission.MANAGE_MEDIA}),
    Role.SYSTEM_ADMIN: frozenset(
        {
            Permission.MANAGE_RETENTION,
            Permission.MANAGE_MEDIA,
            Permission.RUN_MIGRATION,
            Permission.MANAGE_BACKUP,
        }
    ),
    Role.PATIENT: frozenset({Permission.READ_RECORD}),
}

# (role, permission) -> allowed purposes.  Anything not listed allows
# TREATMENT/OPERATIONS by default for clinical roles; the table makes
# the restrictive pairs explicit.
_PURPOSE_RULES: dict[tuple[Role, Permission], frozenset[Purpose]] = {
    (Role.BILLING, Permission.READ_RECORD): frozenset({Purpose.PAYMENT}),
    (Role.BILLING, Permission.SEARCH_RECORDS): frozenset({Purpose.PAYMENT}),
    (Role.RESEARCHER, Permission.EXPORT_DEIDENTIFIED): frozenset({Purpose.RESEARCH}),
    (Role.RESEARCHER, Permission.SEARCH_RECORDS): frozenset({Purpose.RESEARCH}),
    (Role.PATIENT, Permission.READ_RECORD): frozenset({Purpose.PATIENT_REQUEST}),
}

_CLINICAL_ROLES = frozenset({Role.PHYSICIAN, Role.NURSE})

_TREATING_REQUIRED = frozenset({Permission.READ_RECORD, Permission.CORRECT_RECORD})
