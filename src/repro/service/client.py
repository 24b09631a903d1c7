"""A blocking v1 API client (stdlib ``http.client``, keep-alive).

This is the only way the CLI, the tests' end-to-end paths, and the E11
load generator talk to the service — everything goes over the wire, so
nothing can accidentally bypass authentication, admission, or audit.

:class:`ServiceClient` is one connection = one session: it keeps a
persistent HTTP connection (reconnecting transparently if the server
closed it) and attaches its bearer token to every call.  Errors come
back as :class:`ServiceClientError` carrying the structured
:class:`~repro.service.api.ErrorBody` — status, stable code, message,
and the policy rule id / trace when the rejection was a decision.
"""

from __future__ import annotations

import http.client
import json
from typing import Any, Mapping
from urllib.parse import quote, urlencode

from repro.service import api
from repro.service.auth import Challenge, respond


class ServiceClientError(Exception):
    """A non-2xx wire response, with the structured error body."""

    def __init__(self, error: api.ErrorBody, retry_after: float = 0.0) -> None:
        super().__init__(f"{error.status} {error.code}: {error.message}")
        self.error = error
        self.status = error.status
        self.code = error.code
        self.rule_id = error.rule_id
        self.trace = error.trace
        self.retry_after = retry_after


def _path(template: str, *params: Any, **query: Any) -> str:
    """A request target: each path parameter percent-encoded whole (an
    id may hold ``/``, ``?``, spaces, non-ASCII), the non-empty query
    parameters form-encoded."""
    path = template.format(*(quote(str(param), safe="") for param in params))
    query = {key: value for key, value in query.items() if value != ""}
    return f"{path}?{urlencode(query)}" if query else path


class ServiceClient:
    """One authenticated client session against a running service."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.bearer = ""
        self.user_id = ""
        self._conn: http.client.HTTPConnection | None = None

    # -- transport ----------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def request(
        self,
        method: str,
        path: str,
        body: Mapping[str, Any] | None = None,
        *,
        bearer: str | None = None,
    ) -> dict[str, Any]:
        """One wire round trip; raises :class:`ServiceClientError` on
        any non-2xx.  Retries exactly once on a dropped keep-alive
        connection (the server may have idle-closed it)."""
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        token = self.bearer if bearer is None else bearer
        if token:
            headers["Authorization"] = f"Bearer {token}"
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
                raw = response.read()
                break
            except (ConnectionError, http.client.HTTPException, OSError):
                self.close()
                if attempt:
                    raise
        data = json.loads(raw.decode("utf-8")) if raw else {}
        if response.status >= 300:
            retry_after = float(response.getheader("Retry-After") or 0)
            raise ServiceClientError(api.ErrorBody.from_wire(data), retry_after)
        return data

    # -- auth ---------------------------------------------------------------

    def login(self, user_id: str, secret: bytes) -> api.SessionEnvelope:
        """Run the full challenge-response protocol over the wire."""
        challenge_wire = self.request(
            "POST", "/v1/auth/challenge", api.ChallengeRequest(user_id).to_wire()
        )
        challenge = api.ChallengeResponse.from_wire(challenge_wire)
        proof = respond(
            secret,
            Challenge(
                user_id=challenge.user_id,
                nonce=bytes.fromhex(challenge.nonce_hex),
                issued_at=challenge.issued_at,
            ),
        )
        session_wire = self.request(
            "POST",
            "/v1/auth/login",
            api.LoginRequest(user_id=user_id, response_hex=proof.hex()).to_wire(),
        )
        envelope = api.SessionEnvelope.from_wire(session_wire)
        self.bearer = envelope.token
        self.user_id = envelope.user_id
        return envelope

    # -- records ------------------------------------------------------------

    def store(self, record: Mapping[str, Any]) -> api.StoreRecordResponse:
        """``record`` is the canonical dict form (``HealthRecord.to_dict``)."""
        return api.StoreRecordResponse.from_wire(
            self.request(
                "POST",
                "/v1/records",
                api.StoreRecordRequest.from_wire(record).to_wire(),
            )
        )

    def read(self, record_id: str, purpose: str = "") -> api.RecordEnvelope:
        return api.RecordEnvelope.from_wire(
            self.request("GET", _path("/v1/records/{}", record_id, purpose=purpose))
        )

    def read_version(self, record_id: str, version: int) -> api.RecordEnvelope:
        return api.RecordEnvelope.from_wire(
            self.request("GET", _path("/v1/records/{}/versions/{}", record_id, version))
        )

    def patient_records(self, patient_id: str) -> api.PatientRecordsResponse:
        return api.PatientRecordsResponse.from_wire(
            self.request("GET", _path("/v1/patients/{}/records", patient_id))
        )

    def search(self, term: str) -> api.SearchResponse:
        return api.SearchResponse.from_wire(
            self.request("GET", _path("/v1/search", term=term))
        )

    # -- audit / verify / break-glass ---------------------------------------

    def audit_query(
        self, actor_id: str = "", action: str = "", subject_id: str = "", limit: int = 100
    ) -> api.AuditEventsResponse:
        return api.AuditEventsResponse.from_wire(
            self.request(
                "GET",
                _path(
                    "/v1/audit", limit=limit, actor_id=actor_id, action=action,
                    subject_id=subject_id,
                ),
            )
        )

    def verify(self, incremental: bool = False) -> api.VerifyResponse:
        return api.VerifyResponse.from_wire(
            self.request("POST", "/v1/verify", {"incremental": incremental})
        )

    def break_glass(self, patient_id: str, justification: str) -> api.BreakGlassResponse:
        return api.BreakGlassResponse.from_wire(
            self.request(
                "POST",
                "/v1/break-glass",
                api.BreakGlassRequest(patient_id, justification).to_wire(),
            )
        )

    def healthz(self) -> api.HealthzResponse:
        return api.HealthzResponse.from_wire(self.request("GET", "/v1/healthz"))
