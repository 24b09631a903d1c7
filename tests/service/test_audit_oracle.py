"""The audit oracle: zero unauthenticated and zero unaudited wire paths.

These tests enumerate the routing table rather than trusting a list in
the test file — a new endpoint added without auth, or without audit,
fails here automatically.
"""

from __future__ import annotations

import pytest

from repro.audit.events import AuditAction
from repro.errors import AuditError
from repro.service.service import Request
from repro.storage.journal import Journal

from tests.service.conftest import note_body, store_note, wire_login

#: The only endpoints that may answer without a session token: the two
#: steps of the login protocol (you cannot have a token yet) and the
#: liveness probe.  Anything else appearing here is a regression.
AUTH_EXEMPT = {
    ("POST", "/v1/auth/challenge"),
    ("POST", "/v1/auth/login"),
    ("GET", "/v1/healthz"),
}

#: Plausible substitutions so templated paths resolve.
PARAMS = {"record_id": "rec-001", "patient_id": "pat-001", "version": "0"}

#: Minimal well-formed bodies per handler (requests may still 4xx —
#: the oracle checks auditing, not success).
BODIES = {
    "challenge": {"user_id": "dr-001"},
    "login": {"user_id": "dr-001", "response": "00"},
    "store_record": note_body("rec-oracle", "pat-001"),
    "verify": {},
    "break_glass": {"patient_id": "pat-001", "justification": "oracle emergency"},
}


def _resolve(pattern: str) -> str:
    path = pattern
    for name, value in PARAMS.items():
        path = path.replace("{" + name + "}", value)
    return path


def test_auth_exempt_set_is_exactly_the_login_protocol(service):
    exempt = {
        (route.method, route.pattern)
        for route in service.routes()
        if not route.auth_required
    }
    assert exempt == AUTH_EXEMPT


def test_every_protected_route_rejects_missing_token(service, actors):
    for route in service.routes():
        if not route.auth_required:
            continue
        response = service.handle_request(
            Request(route.method, _resolve(route.pattern), body=BODIES.get(route.handler_name))
        )
        assert response.status == 401, (route.pattern, response.body)
        assert response.body["error"]["code"] == "unauthorized"


def test_every_request_leaves_exactly_one_audit_event(service, actors):
    """Drive every route four ways — no token, garbage token, valid
    token, wrong method — and require exactly one service audit event
    per request, success or failure."""
    user, secret = actors["physician"]
    bearer = wire_login(service, user.user_id, secret)
    store_note(service, bearer, "rec-001", "pat-001")

    for route in service.routes():
        path = _resolve(route.pattern)
        body = BODIES.get(route.handler_name)
        attempts = [
            Request(route.method, path, body=body),
            Request(route.method, path, body=body, bearer="garbage-token"),
            Request(route.method, path, body=body, bearer=bearer),
            Request("PATCH", path, body=body, bearer=bearer),
        ]
        for request in attempts:
            before = len(service.audit_events())
            response = service.handle_request(request)
            events = service.audit_events()
            assert len(events) == before + 1, (
                route.pattern, request.method, request.bearer, response.status,
            )
            newest = events[-1]
            assert newest.action in (AuditAction.API_REQUEST, AuditAction.API_REJECTED)
            expected_action = (
                AuditAction.API_REQUEST
                if response.status < 400
                else AuditAction.API_REJECTED
            )
            assert newest.action is expected_action, (route.pattern, response.status)
            assert newest.detail["method"] == request.method
            assert newest.detail["status"] == response.status

    service.verify_service_audit()  # the chain itself must verify


def test_denials_record_actor_and_rule(service, actors):
    user, secret = actors["physician"]
    bearer = wire_login(service, user.user_id, secret)
    response = service.handle_request(Request("GET", "/v1/audit", bearer=bearer))
    assert response.status == 403
    newest = service.audit_events()[-1]
    assert newest.action is AuditAction.API_REJECTED
    assert newest.actor_id == user.user_id
    assert newest.detail["code"] in ("access_denied", "consent_denied")
    assert newest.detail["rule"]


def test_rejected_before_auth_is_still_audited(service):
    before = len(service.audit_events())
    response = service.handle_request(Request("GET", "/v1/records/rec-x"))
    assert response.status == 401
    events = service.audit_events()
    assert len(events) == before + 1
    assert events[-1].actor_id == "anonymous"
    assert events[-1].action is AuditAction.API_REJECTED


def test_unknown_endpoint_is_audited(service):
    before = len(service.audit_events())
    response = service.handle_request(Request("GET", "/v1/does-not-exist"))
    assert response.status == 404
    assert len(service.audit_events()) == before + 1


def test_engine_attribution_matches_session_actor(service, actors):
    """End to end: the cluster's own audit chain must attribute the
    write to the authenticated principal, not a claimed author."""
    user, secret = actors["physician"]
    bearer = wire_login(service, user.user_id, secret)
    store_note(service, bearer, "rec-777", "pat-002")
    engine_events = service.cluster.audit_events()
    created = [
        event for event in engine_events
        if event["action"] == "record_created" and event["subject_id"] == "rec-777"
    ]
    assert created and created[0]["actor_id"] == user.user_id


def test_service_chain_survives_verification_after_traffic(service, actors):
    user, secret = actors["officer"]
    bearer = wire_login(service, user.user_id, secret)
    for _ in range(5):
        service.handle_request(Request("GET", "/v1/healthz"))
        service.handle_request(Request("GET", "/v1/audit", bearer=bearer))
    service.verify_service_audit()


def test_tampered_service_chain_fails_verification(service, actors):
    """A frame of the service chain rewritten on its device (checksum
    recomputed, as a raw-media insider would) must make
    ``verify_service_audit`` raise, naming where the chain broke."""
    user, secret = actors["physician"]
    wire_login(service, user.user_id, secret)
    service.handle_request(Request("GET", "/v1/healthz"))
    service.verify_service_audit()
    device = service._audit.device  # noqa: SLF001 — the adversary's reach
    victim = user.user_id.encode()
    offset, payload = next(
        (offset, payload)
        for offset, payload, _ok in Journal.walk_frames(device)
        if victim in payload
    )
    Journal.forge_frame(device, offset, payload.replace(victim, b"dr-999"))
    with pytest.raises(AuditError, match=r"sequence \d+"):
        service.verify_service_audit()
