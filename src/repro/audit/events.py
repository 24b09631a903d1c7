"""Audit event taxonomy.

The action vocabulary covers every operation the regulations require to
be logged: record access and modification (HIPAA Privacy Rule), media
movements (§164.310(d)(2)(iii)), disposal (§164.310(d)(2)(i)), backup
(§164.310(d)(2)(iv)), migrations, and access-control decisions
(including denials and break-glass emergency access — denials matter
because probing is a breach signal).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.util.validation import require_non_empty


class AuditAction(enum.Enum):
    """What happened."""

    # record lifecycle
    RECORD_CREATED = "record_created"
    RECORD_READ = "record_read"
    RECORD_CORRECTED = "record_corrected"
    RECORD_SEARCHED = "record_searched"
    RECORD_DISPOSED = "record_disposed"
    RECORD_EXPORTED = "record_exported"
    # tiering: the demotion marker is the durable commit point for a
    # record's move to the cold tier (recovery replays these, like the
    # migration markers), the recall marker records its return
    RECORD_DEMOTED = "record_demoted"
    RECORD_RECALLED = "record_recalled"
    # access control
    ACCESS_GRANTED = "access_granted"
    ACCESS_DENIED = "access_denied"
    EMERGENCY_ACCESS = "emergency_access"
    CONSENT_CHANGED = "consent_changed"
    # media / hardware accountability
    MEDIA_PROVISIONED = "media_provisioned"
    MEDIA_RETIRED = "media_retired"
    MEDIA_SANITIZED = "media_sanitized"
    MEDIA_DISPOSED = "media_disposed"
    MEDIA_MOVED = "media_moved"
    # data movement
    MIGRATION_STARTED = "migration_started"
    MIGRATION_COMPLETED = "migration_completed"
    MIGRATION_FAILED = "migration_failed"
    BACKUP_CREATED = "backup_created"
    BACKUP_RESTORED = "backup_restored"
    CUSTODY_TRANSFERRED = "custody_transferred"
    # retention
    RETENTION_HOLD_PLACED = "retention_hold_placed"
    RETENTION_HOLD_RELEASED = "retention_hold_released"
    RETENTION_EXPIRED = "retention_expired"
    KEY_SHREDDED = "key_shredded"
    # system
    ANCHOR_PUBLISHED = "anchor_published"
    INTEGRITY_ALERT = "integrity_alert"
    # wire service (the HTTP frontend's own hash chain): one event
    # per API call — including rejections, because probing a network
    # front door is a breach signal just like a local denial
    API_REQUEST = "api_request"
    API_REJECTED = "api_rejected"
    SERVICE_LIFECYCLE = "service_lifecycle"


@dataclass(frozen=True)
class AuditEvent:
    """One immutable audit event.

    ``actor_id`` is the authenticated principal (or ``"system"``);
    ``subject_id`` is what was acted on (record id, medium id, ...);
    ``detail`` carries action-specific canonical data.
    """

    sequence: int
    timestamp: float
    action: AuditAction
    actor_id: str
    subject_id: str
    detail: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        require_non_empty(self.actor_id, "actor_id")
        require_non_empty(self.subject_id, "subject_id")

    def to_dict(self) -> dict[str, Any]:
        return {
            "sequence": self.sequence,
            "timestamp": self.timestamp,
            "action": self.action.value,
            "actor_id": self.actor_id,
            "subject_id": self.subject_id,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "AuditEvent":
        return cls(
            sequence=data["sequence"],
            timestamp=data["timestamp"],
            action=AuditAction(data["action"]),
            actor_id=data["actor_id"],
            subject_id=data["subject_id"],
            detail=data["detail"],
        )
