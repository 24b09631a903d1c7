"""The versioned wire schema: typed requests, responses, error codes.

Everything that crosses the service boundary is declared here — the
``/v1`` request and response dataclasses, whose fields *are* the schema
(one codec reads them: ``to_wire()`` / ``from_wire()``, a field's wire
name in its metadata when it differs), and the single :data:`ERROR_CODES`
table mapping every public exception in :mod:`repro.errors` to a stable
HTTP status plus a machine-readable code.  Nothing else is allowed on
the wire: no raw tracebacks, no ad-hoc dicts, no internal reprs.

Versioning contract: the ``v1`` shapes are additive-only once shipped.
A field may be added with a default; a field may never change meaning
or disappear.  A breaking change mints ``/v2`` beside ``/v1``.

``from_wire`` raises :class:`WireError` (a :class:`ValidationError`,
so it maps to 400 through the same table) naming the offending field —
the dispatcher turns that into a structured 400 without ever seeing a
``KeyError``.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from functools import lru_cache
from typing import Any, Callable, Mapping, TypeVar, get_type_hints

from repro.errors import (
    AccessDeniedError,
    AuditError,
    AuthenticationError,
    BackupError,
    ClusterError,
    ComplianceError,
    ConfigurationError,
    ConsentError,
    CryptoError,
    CuratorError,
    DispositionError,
    IndexError_,
    IntegrityError,
    KeyManagementError,
    MigrationError,
    ProvenanceError,
    RecordError,
    RecordNotFoundError,
    RetentionError,
    ValidationError,
    WormViolationError,
)

WIRE_VERSION = "v1"


class WireError(ValidationError):
    """A wire payload failed schema validation (maps to HTTP 400)."""


# ---------------------------------------------------------------------------
# the error-code table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorCode:
    """One stable wire mapping: HTTP status + machine-readable code."""

    status: int
    code: str


#: Exception -> wire mapping, most specific class first; the dispatcher
#: walks it with ``isinstance`` and the FIRST match wins, so a subclass
#: must appear before every one of its bases.  ``CuratorError`` is the
#: terminal catch-all: every library exception maps somewhere, and no
#: handler ever serializes a traceback.
ERROR_CODES: tuple[tuple[type[CuratorError], ErrorCode], ...] = (
    (RecordNotFoundError, ErrorCode(404, "record_not_found")),
    (ConsentError, ErrorCode(403, "consent_denied")),
    (AccessDeniedError, ErrorCode(403, "access_denied")),
    (WireError, ErrorCode(400, "malformed_request")),
    (ValidationError, ErrorCode(400, "validation_error")),
    (DispositionError, ErrorCode(409, "disposition_conflict")),
    (RetentionError, ErrorCode(409, "retention_conflict")),
    (WormViolationError, ErrorCode(409, "worm_violation")),
    (KeyManagementError, ErrorCode(410, "record_destroyed")),
    (IntegrityError, ErrorCode(500, "tamper_detected")),
    (AuthenticationError, ErrorCode(500, "signature_invalid")),
    (CryptoError, ErrorCode(500, "crypto_failure")),
    (AuditError, ErrorCode(500, "audit_failure")),
    (ProvenanceError, ErrorCode(500, "provenance_failure")),
    (IndexError_, ErrorCode(500, "index_failure")),
    (BackupError, ErrorCode(500, "backup_failure")),
    (ComplianceError, ErrorCode(500, "compliance_failure")),
    (MigrationError, ErrorCode(503, "migration_in_progress")),
    (ClusterError, ErrorCode(503, "cluster_unavailable")),
    (RecordError, ErrorCode(422, "record_conflict")),
    (ConfigurationError, ErrorCode(500, "misconfigured")),
    (CuratorError, ErrorCode(500, "internal_error")),
)

#: Service-boundary conditions that never raise a library exception:
#: admission, authentication transport, and routing outcomes.  Same
#: stability contract as :data:`ERROR_CODES`.
SERVICE_CODES: Mapping[str, ErrorCode] = {
    "unauthorized": ErrorCode(401, "unauthorized"),
    "session_expired": ErrorCode(401, "session_expired"),
    "session_revoked": ErrorCode(401, "session_revoked"),
    "account_locked": ErrorCode(401, "account_locked"),
    "malformed_token": ErrorCode(401, "malformed_token"),
    "rate_limited": ErrorCode(429, "rate_limited"),
    "queue_full": ErrorCode(503, "queue_full"),
    "service_draining": ErrorCode(503, "service_draining"),
    "slow_client": ErrorCode(408, "slow_client"),
    "unknown_endpoint": ErrorCode(404, "unknown_endpoint"),
    "method_not_allowed": ErrorCode(405, "method_not_allowed"),
    "malformed_request": ErrorCode(400, "malformed_request"),
}

#: Session/service policy rule id -> the 401-family code the denial
#: maps to on the wire (anything unlisted is plain ``unauthorized``).
RULE_CODES: Mapping[str, str] = {
    "deny:session:expired": "session_expired",
    "deny:service:revoked-token": "session_revoked",
    "deny:session:locked": "account_locked",
    "deny:service:rate-limited": "rate_limited",
    "deny:service:queue-full": "queue_full",
    "deny:service:draining": "service_draining",
}


def code_for_exception(exc: BaseException) -> ErrorCode:
    """The wire mapping for *exc*: first ``isinstance`` match in
    :data:`ERROR_CODES`; non-library exceptions are an opaque 500."""
    for exc_type, code in ERROR_CODES:
        if isinstance(exc, exc_type):
            return code
    return ErrorCode(500, "internal_error")


# ---------------------------------------------------------------------------
# the one codec
# ---------------------------------------------------------------------------

#: JSON shapes beyond the scalars: field annotation -> (JSON type,
#: element type of a list).
_SHAPES: Mapping[Any, tuple[type, type | None]] = {
    Mapping[str, Any]: (dict, None),
    tuple[str, ...]: (list, str),
    tuple[Mapping[str, Any], ...]: (list, Mapping),
}


@dataclass(frozen=True)
class _Field:
    """How one dataclass field travels: its wire name (``metadata
    ["wire"]`` when it differs from the attribute), the JSON type its
    value must have and a list's element type, its default when absent
    (``MISSING``: required), and an optional ``(predicate, message)``
    value check (``metadata["check"]``)."""

    attr: str
    name: str
    kind: type
    items: type | None
    default: Any
    check: tuple[Callable[[Any], Any], str] | None


@lru_cache(maxsize=None)
def _spec(cls: type) -> tuple[tuple[_Field, ...], tuple[_Field, ...]]:
    """*cls*'s fields in encode order (declaration order) and decode
    order (value-checked fields first, so a request that fails a check
    hears about that before anything else), computed once per class."""
    hints = get_type_hints(cls)
    specs = []
    for f in fields(cls):
        kind, items = _SHAPES.get(hints[f.name], (hints[f.name], None))
        if f.default is not MISSING:
            default = f.default
        elif f.default_factory is not MISSING:
            default = f.default_factory()
        else:  # a list of strings may be left out: it reads as empty
            default = () if items is str else MISSING
        specs.append(
            _Field(
                f.name, f.metadata.get("wire", f.name), kind, items, default,
                f.metadata.get("check"),
            )
        )
    return tuple(specs), tuple(sorted(specs, key=lambda spec: spec.check is None))


def _take(spec: _Field, value: Any) -> Any:
    kind, name = spec.kind, spec.name
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:
            raise WireError(f"field {name!r} is out of range for a float", name) from None
    if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
        raise WireError(
            f"field {name!r} must be {kind.__name__}, got {type(value).__name__}", name
        )
    if spec.items is not None:
        if not all(isinstance(item, spec.items) for item in value):
            items = "strings" if spec.items is str else "objects"
            raise WireError(f"field {name!r} must be a list of {items}", name)
        value = tuple(dict(item) if spec.items is Mapping else item for item in value)
    if spec.check is not None and not spec.check[0](value):
        raise WireError(f"field {name!r} {spec.check[1]}", name)
    return value


def _decode(specs: tuple[_Field, ...], payload: Any) -> dict[str, Any]:
    if not isinstance(payload, Mapping):
        raise WireError(f"expected a JSON object, got {type(payload).__name__}")
    values = {}
    for spec in specs:
        if spec.name in payload:
            values[spec.attr] = _take(spec, payload[spec.name])
        elif spec.default is not MISSING:
            values[spec.attr] = spec.default
        else:
            raise WireError(f"missing required field {spec.name!r}", spec.name)
    return values


def _encode(spec: _Field, value: Any) -> Any:
    if spec.items is Mapping:
        return [dict(item) for item in value]
    if spec.kind is list:
        return list(value)
    if spec.kind is dict:
        return dict(value)
    return value


_W = TypeVar("_W", bound="_Wire")


class _Wire:
    """Every wire type: a frozen dataclass whose fields are its schema."""

    def to_wire(self) -> dict[str, Any]:
        return {
            spec.name: _encode(spec, getattr(self, spec.attr))
            for spec in _spec(type(self))[0]
        }

    @classmethod
    def from_wire(cls: type[_W], payload: Any) -> _W:
        return cls(**_decode(_spec(cls)[1], payload))


# ---------------------------------------------------------------------------
# auth
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChallengeRequest(_Wire):
    """POST /v1/auth/challenge — step 1 of the login protocol."""

    user_id: str


@dataclass(frozen=True)
class ChallengeResponse(_Wire):
    """The nonce the client must HMAC with its enrollment secret."""

    user_id: str
    nonce_hex: str = field(metadata={"wire": "nonce"})
    issued_at: float


@dataclass(frozen=True)
class LoginRequest(_Wire):
    """POST /v1/auth/login — step 2: prove possession of the secret."""

    user_id: str
    response_hex: str = field(metadata={"wire": "response"})


@dataclass(frozen=True)
class SessionEnvelope(_Wire):
    """A live session: the bearer token plus its public fields."""

    token: str
    session_id: str
    user_id: str
    issued_at: float
    expires_at: float


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StoreRecordRequest(_Wire):
    """POST /v1/records — create one record, attributed to the session
    actor (there is no author field on the wire: the author is whoever
    authenticated — that is the point of the front door)."""

    record_id: str
    patient_id: str
    record_type: str
    created_at: float
    body: Mapping[str, Any]


@dataclass(frozen=True)
class StoreRecordResponse(_Wire):
    record_id: str
    patient_id: str
    versions: int


@dataclass(frozen=True)
class RecordEnvelope(_Wire):
    """GET /v1/records/{id} — one decrypted, verified record."""

    record_id: str
    patient_id: str
    record_type: str
    created_at: float
    body: Mapping[str, Any]
    version: int


@dataclass(frozen=True)
class SearchResponse(_Wire):
    term: str
    record_ids: tuple[str, ...]


@dataclass(frozen=True)
class PatientRecordsResponse(_Wire):
    patient_id: str
    record_ids: tuple[str, ...]


# ---------------------------------------------------------------------------
# audit / verification / break-glass
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditQueryRequest(_Wire):
    """GET /v1/audit — filtered slice of the merged audit stream."""

    actor_id: str = ""
    action: str = ""
    subject_id: str = ""
    limit: int = field(
        default=100, metadata={"check": (lambda limit: limit >= 1, "must be >= 1")}
    )


@dataclass(frozen=True)
class AuditEventsResponse(_Wire):
    events: tuple[Mapping[str, Any], ...]
    total: int


@dataclass(frozen=True)
class VerifyResponse(_Wire):
    """POST /v1/verify — merged integrity + audit verification."""

    ok: bool
    integrity_summary: str = field(metadata={"wire": "integrity"})
    audit_summary: str = field(metadata={"wire": "audit"})
    violations: tuple[str, ...] = ()


@dataclass(frozen=True)
class BreakGlassRequest(_Wire):
    patient_id: str
    justification: str = field(metadata={"check": (str.strip, "must not be blank")})


@dataclass(frozen=True)
class BreakGlassResponse(_Wire):
    grant_id: str
    patient_id: str
    user_id: str


@dataclass(frozen=True)
class HealthzResponse(_Wire):
    """GET /v1/healthz — liveness plus shard and queue status."""

    status: str
    shards: tuple[str, ...]
    queue_depth: int
    queue_limit: int
    active_sessions: int
    draining: bool


_ENVELOPE = (_Field("error", "error", dict, None, MISSING, None),)


@dataclass(frozen=True)
class ErrorBody(_Wire):
    """Every non-2xx body: status, stable code, human message, and —
    when the rejection was a policy decision — the deciding rule id and
    full consultation trace (HIPAA audits ask *why*).  Travels inside an
    ``error`` envelope that omits an empty rule id and trace."""

    status: int
    code: str
    message: str
    rule_id: str = ""
    trace: tuple[Mapping[str, Any], ...] = ()

    def to_wire(self) -> dict[str, Any]:
        error = super().to_wire()
        if not self.rule_id:
            del error["rule_id"]
        if not self.trace:
            del error["trace"]
        return {"error": error}

    @classmethod
    def from_wire(cls, payload: Any) -> "ErrorBody":
        error = _decode(_ENVELOPE, payload)["error"]
        trace = error.get("trace", [])
        if not isinstance(trace, list) or any(
            not isinstance(t, Mapping) for t in trace
        ):
            raise WireError("field 'error.trace' must be a list of objects")
        return super().from_wire(error)


#: Every wire type, for the round-trip test to enumerate.
WIRE_TYPES: tuple[type, ...] = (
    ChallengeRequest,
    ChallengeResponse,
    LoginRequest,
    SessionEnvelope,
    StoreRecordRequest,
    StoreRecordResponse,
    RecordEnvelope,
    SearchResponse,
    PatientRecordsResponse,
    AuditQueryRequest,
    AuditEventsResponse,
    VerifyResponse,
    BreakGlassRequest,
    BreakGlassResponse,
    HealthzResponse,
    ErrorBody,
)
