"""Audit event taxonomy.

The action vocabulary covers every operation the regulations require to
be logged: record access and modification (HIPAA Privacy Rule), media
movements (§164.310(d)(2)(iii)), disposal (§164.310(d)(2)(i)), backup
(§164.310(d)(2)(iv)), migrations, and access-control decisions
(including denials and break-glass emergency access — denials matter
because probing is a breach signal).

It also holds the one codec of the audit log's binary frames; the
layout is in :mod:`repro.audit.log`.
"""

from __future__ import annotations

import enum
import hashlib
import json
import struct
from dataclasses import dataclass, field
from typing import Any

from repro.crypto.hashing import DIGEST_SIZE
from repro.errors import AuditError, ValidationError
from repro.util.encoding import canonical_loads
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
        return {**vars(self), "action": self.action.value}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "AuditEvent":
        return cls(
            data["sequence"], data["timestamp"], AuditAction(data["action"]),
            data["actor_id"], data["subject_id"], data["detail"],
        )


#: A frame stores its action as an index into this table, so the order
#: is persisted: new actions go at the end (a golden test pins it).
ACTION_CODES: tuple[AuditAction, ...] = tuple(AuditAction)
_CODE_OF = {action: code for code, action in enumerate(ACTION_CODES)}
DECISION_KEYS = ("rule", "rule_id", "trace")  # split out of a detail holding a trace
_HEAD = struct.Struct(">QdBBHHI")


#: The C JSON encoder set up as :func:`~repro.util.encoding.canonical_bytes`:
#: the same bytes for every canonical value, without its Python walk.
_dumps = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False,
    default=lambda raw: {"__bytes__": raw.hex()},  # bytes, bytearray, memoryview
).encode


def encode_leaf(event: AuditEvent) -> tuple[bytes, bytes, bytes]:
    """``(leaf, decision digest, decision text)`` of *event*; the last
    two are empty when its detail carries no decision."""
    detail, digest, text = event.detail, b"", b""
    if "trace" in detail:
        text = _dumps({key: detail[key] for key in DECISION_KEYS if key in detail}).encode()
        digest = hashlib.sha256(text).digest()
        detail = {key: value for key, value in detail.items() if key not in DECISION_KEYS}
    actor, subject = event.actor_id.encode(), event.subject_id.encode()
    body = _dumps(detail).encode()
    try:
        head = _HEAD.pack(
            event.sequence, event.timestamp, _CODE_OF[event.action], len(digest) // DIGEST_SIZE,
            len(actor), len(subject), len(body),
        )
    except struct.error as exc:
        raise ValidationError(f"audit event does not fit a frame: {exc}") from exc
    return b"".join((head, actor, subject, digest, body)), digest, text


def decode_frame(
    frame: bytes, decisions: dict[bytes, tuple[int, dict]]
) -> tuple[AuditEvent, bytes, bytes]:
    """``(event, leaf, chain digest)`` of one frame, or :class:`AuditError`.

    *decisions* maps each decision digest defined before this frame to
    ``(defining sequence, decision)``.  A frame carries a decision's text
    exactly when it is the first to use it, the text must hash to the
    digest, and that first use is added to *decisions*.
    """
    try:
        sequence, timestamp, code, has_decision, *sizes = _HEAD.unpack_from(frame)
        at, fields = _HEAD.size, []
        for size in (sizes[0], sizes[1], DIGEST_SIZE * has_decision, sizes[2]):
            fields.append(frame[at : at + size])
            at += size
        actor, subject, digest, body = fields
        detail, text = canonical_loads(body), frame[at:-DIGEST_SIZE]
        if has_decision > 1 or at > len(frame) - DIGEST_SIZE or not isinstance(detail, dict):
            raise AuditError("frame is truncated or malformed")
        if text:
            if digest in decisions or hashlib.sha256(text).digest() != digest:
                raise AuditError("decision text repeated or not matching its digest")
            decisions[digest] = (sequence, canonical_loads(text))
        if digest and digest not in decisions:
            raise AuditError("decision digest used before its text")
        event = AuditEvent(
            sequence, timestamp, ACTION_CODES[code], actor.decode(), subject.decode(),
            {**detail, **decisions[digest][1]} if digest else detail,
        )
    except AuditError:
        raise
    except Exception as exc:  # noqa: BLE001 — any decode failure is a finding
        raise AuditError(f"frame undecodable: {exc}") from exc
    return event, frame[:at], frame[-DIGEST_SIZE:]
