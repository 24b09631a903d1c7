"""The RBAC vocabulary: the permission and purpose enums.

Which role holds which permission, and for which purposes, is declared
as rules in :data:`repro.policy.rules.DEFAULT_RULES`; a
:class:`~repro.policy.engine.PolicyEngine` makes every decision.
"""

from __future__ import annotations

import enum


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
