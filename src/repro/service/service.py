"""The transport-independent service core.

:class:`CuratorService` owns everything the HTTP layer should not:
routing, session authentication, admission, authorization, dispatch
into :class:`~repro.cluster.router.CuratorCluster`, exception → wire
mapping, and the service's own hash-chained audit log.  The HTTP
transport in :mod:`repro.service.http` only parses bytes into a
:class:`Request` and writes a :class:`Response` back — which is what
makes the whole pipeline testable without a socket.

Invariants the test suite pins:

* **no unauthenticated paths** — every route except the login protocol
  (``challenge``/``login``) and ``healthz`` demands a valid bearer
  token, and :meth:`CuratorService.routes` exposes the flags so the
  oracle test can enumerate rather than trust;
* **no unaudited paths** — every handled request, including every 4xx
  and 5xx (and healthz), appends exactly one
  ``API_REQUEST``/``API_REJECTED`` event to the service chain;
* **no unexplained denials** — authorization flows through
  ``repro.policy`` decisions whose rule id and trace ride back in the
  structured error body.
"""

from __future__ import annotations

import logging
import threading
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping
from urllib.parse import unquote

from repro.access.principals import User
from repro.access.rbac import Permission, Purpose
from repro.audit.events import AuditAction, AuditEvent
from repro.audit.log import AuditLog
from repro.cluster.router import CuratorCluster
from repro.errors import AccessDeniedError, AuditError, CuratorError
from repro.policy.rules import DEFAULT_RULES, default_purpose_for
from repro.policy.engine import PolicyEngine
from repro.policy.model import PolicyContext
from repro.records.model import HealthRecord
from repro.service import api
from repro.service.admission import AdmissionController
from repro.service.auth import MalformedTokenError, SessionBroker
from repro.util.metrics import METRICS

_LOG = logging.getLogger(__name__)


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for the front door (transport + admission + sessions)."""

    host: str = "127.0.0.1"
    port: int = 8471
    queue_limit: int = 64
    rate_capacity: float = 50.0
    rate_refill_per_second: float = 25.0
    slow_client_timeout: float = 5.0
    drain_timeout: float = 10.0


@dataclass(frozen=True)
class Request:
    """One parsed wire request (transport-agnostic)."""

    method: str
    path: str
    query: Mapping[str, str] = field(default_factory=dict)
    body: Any = None
    bearer: str = ""


@dataclass(frozen=True)
class Response:
    """One wire response: status, JSON-able body, extra headers."""

    status: int
    body: Mapping[str, Any]
    headers: Mapping[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Route:
    """One routing-table entry (introspectable for the oracle test)."""

    method: str
    pattern: str  # "/v1/records/{record_id}"
    auth_required: bool
    handler_name: str


class _Deny(Exception):
    """Internal: a service-boundary rejection with a fixed wire code."""

    def __init__(self, code: api.ErrorCode, message: str, decision=None, retry_after: float = 0.0):
        super().__init__(message)
        self.code = code
        self.decision = decision
        self.retry_after = retry_after

    @classmethod
    def of(cls, decision, fallback: str, retry_after: float = 0.0) -> "_Deny":
        """A policy denial, coded by its rule (else by *fallback*)."""
        code = api.SERVICE_CODES[api.RULE_CODES.get(decision.rule_id, fallback)]
        return cls(code, decision.reason, decision, retry_after)


class CuratorService:
    """The v1 API over one cluster.  Thread-safe: each connection's
    thread runs its own requests; shared state (audit chain, broker,
    admission) is internally locked."""

    def __init__(self, cluster: CuratorCluster, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.cluster = cluster
        self._clock = cluster.config.clock
        self.admission = AdmissionController(
            self._clock,
            queue_limit=self.config.queue_limit,
            rate_capacity=self.config.rate_capacity,
            rate_refill_per_second=self.config.rate_refill_per_second,
        )
        # one service-ruleset engine decides sessions and admission
        self.broker = SessionBroker(self._clock, self.admission.policy)
        self._policy = PolicyEngine(DEFAULT_RULES)
        self._users: dict[str, User] = {}
        self._audit = AuditLog(clock=self._clock)
        self._audit_lock = threading.Lock()
        self._routes: tuple[tuple[Route, Callable[..., Response]], ...] = (
            self._build_routes()
        )

    # ------------------------------------------------------------------
    # enrollment / lifecycle
    # ------------------------------------------------------------------

    def enroll(self, user: User) -> bytes:
        """Register *user* with the cluster and the session broker;
        returns the challenge-response secret for their token."""
        self.cluster.register_user(user)
        self._users[user.user_id] = user
        secret = self.broker.enroll(user.user_id)
        self._append_audit(
            AuditAction.SERVICE_LIFECYCLE,
            "system",
            user.user_id,
            {"event": "enrolled", "roles": sorted(r.value for r in user.roles)},
        )
        return secret

    def start_draining(self) -> None:
        self.admission.start_draining()
        self._append_audit(
            AuditAction.SERVICE_LIFECYCLE, "system", "service", {"event": "draining"}
        )

    def audit_events(self) -> list[AuditEvent]:
        """The service chain (wire-level events, distinct from the
        cluster's per-shard engine chains)."""
        with self._audit_lock:
            return self._audit.events()

    def verify_service_audit(self) -> None:
        """Replay the service chain from its device; raises
        :class:`~repro.errors.AuditError` naming the first bad event if
        it does not verify."""
        with self._audit_lock:
            chain = self._audit.verify_chain()
        if not chain.ok:
            raise AuditError(
                f"service audit chain broken at sequence "
                f"{chain.first_bad_sequence}: {chain.problem}"
            )

    def routes(self) -> tuple[Route, ...]:
        return tuple(route for route, _handler in self._routes)

    # ------------------------------------------------------------------
    # the pipeline
    # ------------------------------------------------------------------

    def handle_request(self, request: Request) -> Response:
        """Route, authenticate, admit, authorize, dispatch, audit."""
        METRICS.incr("service_requests")
        route, handler, params = self._match(request.method, request.path)
        if route is None:
            return self._reject(request, "", _Deny(*self._route_miss(request, handler)))

        actor_id = ""
        admitted = False
        try:
            if route.auth_required:
                actor_id = self._authenticate(request.bearer)
                decision, retry_after = self.admission.admit(actor_id)
                if not decision.allowed:
                    raise _Deny.of(decision, "queue_full", retry_after)
                admitted = True
            elif self.admission.draining and route.handler_name != "healthz":
                raise _Deny(
                    api.SERVICE_CODES["service_draining"],
                    "service is draining for shutdown",
                )
            response = handler(request, params, actor_id)
        except Exception as failure:  # every failure is answered and audited
            return self._reject(request, actor_id, failure, route)
        finally:
            if admitted:
                self.admission.release()

        self._append_audit(
            AuditAction.API_REQUEST,
            actor_id or "anonymous",
            request.path,
            {
                "method": request.method,
                "status": response.status,
                "handler": route.handler_name,
            },
        )
        METRICS.incr_labelled("service_responses", str(response.status))
        return response

    def _reject(
        self,
        request: Request,
        actor_id: str,
        failure: Exception,
        route: Route | None = None,
    ) -> Response:
        """The one way a request fails: map *failure* to its wire code,
        build the :class:`~repro.service.api.ErrorBody`, append the
        single ``API_REJECTED`` event and count it.  A service-boundary
        :class:`_Deny` carries its own code; a library exception maps
        through :data:`~repro.service.api.ERROR_CODES`; a request nested
        past the interpreter's recursion limit is malformed; anything
        else is the opaque 500 ``internal_error``."""
        retry_after = 0.0
        if isinstance(failure, _Deny):
            code, message, retry_after = failure.code, str(failure), failure.retry_after
        elif isinstance(failure, RecursionError):
            code = api.SERVICE_CODES["malformed_request"]
            message = "request is nested too deeply"
        elif isinstance(failure, CuratorError):
            code, message = api.code_for_exception(failure), str(failure)
        else:  # a defect: the operator learns where, not the text (it may hold PHI)
            code, message = api.code_for_exception(failure), "internal error"
            _LOG.error(
                "%s escaped a handler:\n%s", type(failure).__name__,
                "".join(traceback.format_tb(failure.__traceback__)),
            )
        # NB: Decision.__bool__ is .allowed — a denial is falsy, so the
        # presence check must be `is not None`.
        decision = getattr(failure, "decision", None)
        body = api.ErrorBody(
            status=code.status,
            code=code.code,
            message=message,
            rule_id=decision.rule_id if decision is not None else "",
            trace=tuple(decision.trace_dicts()) if decision is not None else (),
        )
        # The audit detail carries no free text: a message may echo input,
        # and PHI written to the append-only chain could never be destroyed.
        detail: dict[str, Any] = {
            "method": request.method, "status": body.status, "code": body.code
        }
        if body.rule_id:
            detail["rule"] = body.rule_id
        if route is not None:
            detail["handler"] = route.handler_name
        if getattr(failure, "field", ""):
            detail["field"] = failure.field
        self._append_audit(
            AuditAction.API_REJECTED, actor_id or "anonymous", request.path or "/", detail
        )
        METRICS.incr_labelled("service_denials", body.code)
        METRICS.incr_labelled("service_responses", str(body.status))
        headers = {}
        if retry_after > 0:
            headers["Retry-After"] = str(max(1, int(retry_after + 0.999)))
        return Response(status=code.status, body=body.to_wire(), headers=headers)

    # -- helpers ------------------------------------------------------------

    def _route_miss(self, request: Request, methods: list[str]):
        if methods:
            return (
                api.SERVICE_CODES["method_not_allowed"],
                f"{request.path} supports {', '.join(sorted(methods))}",
            )
        return (
            api.SERVICE_CODES["unknown_endpoint"],
            f"no such endpoint: {request.method} {request.path}",
        )

    def _match(self, method: str, path: str):
        """Returns (route, handler, params) or (None, allowed_methods, {})."""
        parts = path.strip("/").split("/")
        allowed: list[str] = []
        for route, handler in self._routes:
            pattern = route.pattern.strip("/").split("/")
            if len(pattern) != len(parts):
                continue
            params: dict[str, str] = {}
            for expected, got in zip(pattern, parts):
                if expected.startswith("{") and expected.endswith("}"):
                    # split first, decode second: an id may hold "/"
                    params[expected[1:-1]] = unquote(got)
                elif expected != got:
                    break
            else:
                if route.method == method:
                    return route, handler, params
                allowed.append(route.method)
        return None, allowed, {}

    def _authenticate(self, bearer: str) -> str:
        if not bearer:
            raise _Deny(
                api.SERVICE_CODES["unauthorized"],
                "missing Authorization: Bearer token",
            )
        try:
            return self.broker.validate_bearer(bearer)[0]
        except MalformedTokenError as exc:
            raise _Deny(api.SERVICE_CODES["malformed_token"], str(exc)) from None
        except AccessDeniedError as exc:
            raise _Deny.of(exc.decision, "unauthorized") from None

    def _user(self, actor_id: str) -> User:
        user = self._users.get(actor_id)
        if user is None:
            raise AccessDeniedError(f"unknown principal {actor_id!r}")
        return user

    def _decide_service(
        self, actor_id: str, permission: Permission, resource: str, patient_id: str = ""
    ) -> None:
        """A service-level authorization (for surfaces the cluster does
        not itself gate, e.g. the merged audit stream)."""
        user = self._user(actor_id)
        decision = self._policy.decide(
            user,
            permission,
            resource=resource,
            context=PolicyContext(
                purpose=default_purpose_for(user), patient_id=patient_id
            ),
        )
        decision.require()

    def _append_audit(
        self,
        action: AuditAction,
        actor_id: str,
        subject_id: str,
        detail: dict[str, Any],
    ) -> None:
        with self._audit_lock:
            self._audit.append(action, actor_id, subject_id, detail)

    @staticmethod
    def _payload(request: Request) -> Mapping[str, Any]:
        if not isinstance(request.body, Mapping):
            raise api.WireError("request body must be a JSON object")
        return request.body

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------

    def _build_routes(self):
        def route(method, pattern, handler, *, auth=True):
            return (
                Route(method, pattern, auth, handler.__name__.lstrip("_")),
                handler,
            )

        return (
            route("POST", "/v1/auth/challenge", self._challenge, auth=False),
            route("POST", "/v1/auth/login", self._login, auth=False),
            route("POST", "/v1/auth/refresh", self._refresh),
            route("POST", "/v1/auth/logout", self._logout),
            route("GET", "/v1/healthz", self._healthz, auth=False),
            route("POST", "/v1/records", self._store_record),
            route("GET", "/v1/records/{record_id}", self._read_record),
            route(
                "GET",
                "/v1/records/{record_id}/versions/{version}",
                self._read_version,
            ),
            route("GET", "/v1/patients/{patient_id}/records", self._patient_records),
            route("GET", "/v1/search", self._search),
            route("GET", "/v1/audit", self._audit_query),
            route(
                "GET",
                "/v1/audit/disclosures/{patient_id}",
                self._disclosures,
            ),
            route("POST", "/v1/verify", self._verify),
            route("POST", "/v1/break-glass", self._break_glass),
        )

    # -- auth ---------------------------------------------------------------

    def _challenge(self, request: Request, params, actor_id) -> Response:
        req = api.ChallengeRequest.from_wire(self._payload(request))
        challenge = self.broker.request_challenge(req.user_id)
        return Response(
            200,
            api.ChallengeResponse(
                user_id=challenge.user_id,
                nonce_hex=challenge.nonce.hex(),
                issued_at=challenge.issued_at,
            ).to_wire(),
        )

    def _login(self, request: Request, params, actor_id) -> Response:
        req = api.LoginRequest.from_wire(self._payload(request))
        try:
            proof = bytes.fromhex(req.response_hex)
        except ValueError:
            raise api.WireError("field 'response' must be hex") from None
        return self._session_response(*self.broker.login(req.user_id, proof))

    def _refresh(self, request: Request, params, actor_id) -> Response:
        return self._session_response(*self.broker.refresh(request.bearer))

    @staticmethod
    def _session_response(session, bearer: str) -> Response:
        return Response(
            200,
            api.SessionEnvelope(
                token=bearer,
                session_id=session.session_id,
                user_id=session.user_id,
                issued_at=session.issued_at,
                expires_at=session.expires_at,
            ).to_wire(),
        )

    def _logout(self, request: Request, params, actor_id) -> Response:
        user_id = self.broker.logout(request.bearer)
        return Response(200, {"status": "logged_out", "user_id": user_id})

    def _healthz(self, request: Request, params, actor_id) -> Response:
        return Response(
            200,
            api.HealthzResponse(
                status="draining" if self.admission.draining else "ok",
                shards=tuple(self.cluster.shard_ids),
                queue_depth=self.admission.in_flight,
                queue_limit=self.admission.queue_limit,
                active_sessions=self.broker.active_sessions,
                draining=self.admission.draining,
            ).to_wire(),
        )

    # -- records ------------------------------------------------------------

    def _store_record(self, request: Request, params, actor_id) -> Response:
        req = api.StoreRecordRequest.from_wire(self._payload(request))
        record = HealthRecord.from_dict(req.to_wire())
        self.cluster.store(record, author_id=actor_id)
        return Response(
            201,
            api.StoreRecordResponse(
                record_id=record.record_id,
                patient_id=record.patient_id,
                versions=self.cluster.version_count(record.record_id),
            ).to_wire(),
        )

    def _record_envelope(self, record: HealthRecord, version: int) -> Response:
        return Response(
            200,
            api.RecordEnvelope(
                record_id=record.record_id,
                patient_id=record.patient_id,
                record_type=record.record_type.value,
                created_at=record.created_at,
                body=record.body,
                version=version,
            ).to_wire(),
        )

    def _read_record(self, request: Request, params, actor_id) -> Response:
        purpose = None
        if request.query.get("purpose"):
            try:
                purpose = Purpose(request.query["purpose"])
            except ValueError:
                raise api.WireError(
                    f"unknown purpose {request.query['purpose']!r}"
                ) from None
        record = self.cluster.read(
            params["record_id"], actor_id=actor_id, purpose=purpose
        )
        return self._record_envelope(
            record, self.cluster.version_count(record.record_id)
        )

    def _read_version(self, request: Request, params, actor_id) -> Response:
        try:
            version = int(params["version"])
        except ValueError:
            raise api.WireError("version must be an integer") from None
        record = self.cluster.read_version(
            params["record_id"], version, actor_id=actor_id
        )
        return self._record_envelope(record, version)

    def _patient_records(self, request: Request, params, actor_id) -> Response:
        patient_id = params["patient_id"]
        self._decide_service(
            actor_id,
            Permission.SEARCH_RECORDS,
            resource=f"patient:{patient_id}",
            patient_id=patient_id,
        )
        return Response(
            200,
            api.PatientRecordsResponse(
                patient_id=patient_id,
                record_ids=tuple(self.cluster.records_of_patient(patient_id)),
            ).to_wire(),
        )

    def _search(self, request: Request, params, actor_id) -> Response:
        term = request.query.get("term", "")
        if not term:
            raise api.WireError("query parameter 'term' is required")
        hits = self.cluster.search(term, actor_id=actor_id)
        return Response(
            200, api.SearchResponse(term=term, record_ids=tuple(hits)).to_wire()
        )

    # -- audit / verification / break-glass ---------------------------------

    def _audit_query(self, request: Request, params, actor_id) -> Response:
        raw: dict[str, Any] = dict(request.query)
        if "limit" in raw:  # query params arrive as strings
            try:
                raw["limit"] = int(raw["limit"])
            except ValueError:
                raise api.WireError("query parameter 'limit' must be an integer") from None
        req = api.AuditQueryRequest.from_wire(raw)
        self._decide_service(actor_id, Permission.READ_AUDIT_TRAIL, resource="audit")
        events = self.cluster.audit_events()
        if req.actor_id:
            events = [e for e in events if e["actor_id"] == req.actor_id]
        if req.action:
            events = [e for e in events if e["action"] == req.action]
        if req.subject_id:
            events = [e for e in events if e["subject_id"] == req.subject_id]
        total = len(events)
        return Response(
            200,
            api.AuditEventsResponse(
                events=tuple(events[-req.limit :]), total=total
            ).to_wire(),
        )

    def _disclosures(self, request: Request, params, actor_id) -> Response:
        events = self.cluster.accounting_of_disclosures(
            params["patient_id"], actor_id=actor_id
        )
        dicts = tuple(
            e.to_dict() if hasattr(e, "to_dict") else dict(e) for e in events
        )
        return Response(
            200, api.AuditEventsResponse(events=dicts, total=len(dicts)).to_wire()
        )

    def _verify(self, request: Request, params, actor_id) -> Response:
        self._decide_service(actor_id, Permission.READ_AUDIT_TRAIL, resource="audit")
        payload = request.body if isinstance(request.body, Mapping) else {}
        incremental = bool(payload.get("incremental", False))
        integrity = self.cluster.verify_integrity(incremental)
        audit = self.cluster.verify_audit_trail(incremental)
        violations = tuple(integrity.violations) + tuple(audit.violations)
        return Response(
            200,
            api.VerifyResponse(
                ok=integrity.ok and audit.ok,
                integrity_summary=f"{integrity.mode}: {integrity.coverage or 'ok'}",
                audit_summary=f"{audit.mode}: {audit.coverage or 'ok'}",
                violations=violations,
            ).to_wire(),
        )

    def _break_glass(self, request: Request, params, actor_id) -> Response:
        req = api.BreakGlassRequest.from_wire(self._payload(request))
        grant = self.cluster.break_glass(actor_id, req.patient_id, req.justification)
        return Response(
            200,
            api.BreakGlassResponse(
                grant_id=grant.grant_id,
                patient_id=grant.patient_id,
                user_id=grant.user_id,
            ).to_wire(),
        )
