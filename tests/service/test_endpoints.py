"""Endpoint behavior: happy paths, denials with traces, error mapping."""

from __future__ import annotations

import pytest

from repro.service.service import Request

from tests.service.conftest import note_body, store_note, wire_login


@pytest.fixture()
def physician_bearer(service, actors):
    user, secret = actors["physician"]
    return wire_login(service, user.user_id, secret)


@pytest.fixture()
def officer_bearer(service, actors):
    user, secret = actors["officer"]
    return wire_login(service, user.user_id, secret)


def _get(service, path, bearer, query=None):
    return service.handle_request(Request("GET", path, query=query or {}, bearer=bearer))


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


def test_store_then_read_round_trip(service, actors, physician_bearer):
    stored = store_note(service, physician_bearer, "rec-001", "pat-001", "bp stable")
    assert stored.status == 201
    assert stored.body == {"record_id": "rec-001", "patient_id": "pat-001", "versions": 1}

    read = _get(service, "/v1/records/rec-001", physician_bearer)
    assert read.status == 200
    assert read.body["body"]["text"] == "bp stable"
    assert read.body["version"] == 1


def test_store_attribution_is_the_session_actor(service, actors, physician_bearer):
    """The wire API has no author field: whoever authenticated is the
    author the engine records (the old demo path let callers claim any
    author id)."""
    store_note(service, physician_bearer, "rec-001", "pat-001")
    created = [
        event
        for event in service.cluster.audit_events()
        if event["action"] == "record_created" and event["subject_id"] == "rec-001"
    ]
    assert created and created[0]["actor_id"] == "dr-001"


def test_read_version(service, physician_bearer):
    store_note(service, physician_bearer, "rec-001", "pat-001", "v1 text")
    response = _get(service, "/v1/records/rec-001/versions/0", physician_bearer)
    assert response.status == 200
    assert response.body["version"] == 0
    assert response.body["body"]["text"] == "v1 text"
    bad = _get(service, "/v1/records/rec-001/versions/notanint", physician_bearer)
    assert bad.status == 400


def test_search_and_patient_records(service, physician_bearer):
    store_note(service, physician_bearer, "rec-001", "pat-001", "echocardiogram clean")
    store_note(service, physician_bearer, "rec-002", "pat-002", "routine followup")
    hits = _get(service, "/v1/search", physician_bearer, query={"term": "echocardiogram"})
    assert hits.status == 200
    assert hits.body["record_ids"] == ["rec-001"]
    empty_term = _get(service, "/v1/search", physician_bearer)
    assert empty_term.status == 400

    listing = _get(service, "/v1/patients/pat-001/records", physician_bearer)
    assert listing.status == 200
    assert listing.body["record_ids"] == ["rec-001"]


def test_record_not_found_is_404(service, physician_bearer):
    response = _get(service, "/v1/records/rec-zzz", physician_bearer)
    assert response.status == 404
    assert response.body["error"]["code"] == "record_not_found"


def test_malformed_store_body_is_400(service, physician_bearer):
    bad_type = note_body("rec-001", "pat-001")
    bad_type["record_type"] = "not_a_type"
    response = service.handle_request(
        Request("POST", "/v1/records", body=bad_type, bearer=physician_bearer)
    )
    assert response.status == 400
    missing = service.handle_request(
        Request("POST", "/v1/records", body={"record_id": "x"}, bearer=physician_bearer)
    )
    assert missing.status == 400
    assert missing.body["error"]["code"] == "malformed_request"
    not_object = service.handle_request(
        Request("POST", "/v1/records", body=None, bearer=physician_bearer)
    )
    assert not_object.status == 400


def test_unknown_purpose_is_400(service, physician_bearer):
    store_note(service, physician_bearer, "rec-001", "pat-001")
    response = _get(
        service, "/v1/records/rec-001", physician_bearer, query={"purpose": "mischief"}
    )
    assert response.status == 400


# ---------------------------------------------------------------------------
# authorization denials carry the decision
# ---------------------------------------------------------------------------


def test_untreated_patient_read_denied_with_rule_and_trace(service, actors, physician_bearer):
    nurse, nurse_secret = actors["nurse"]
    store_note(service, physician_bearer, "rec-001", "pat-001")
    nurse_bearer = wire_login(service, nurse.user_id, nurse_secret)
    response = _get(service, "/v1/records/rec-001", nurse_bearer)
    assert response.status == 403
    error = response.body["error"]
    assert error["code"] in ("access_denied", "consent_denied")
    assert error["rule_id"]  # the deciding rule is named
    assert error["trace"], "the consultation trace must ride along"
    assert "Traceback" not in str(response.body)


def test_audit_trail_is_privacy_officer_territory(service, actors, physician_bearer, officer_bearer):
    store_note(service, physician_bearer, "rec-001", "pat-001")
    denied = _get(service, "/v1/audit", physician_bearer)
    assert denied.status == 403

    allowed = _get(service, "/v1/audit", officer_bearer, query={"limit": "5"})
    assert allowed.status == 200
    assert allowed.body["total"] >= 1
    assert len(allowed.body["events"]) <= 5

    filtered = _get(
        service, "/v1/audit", officer_bearer,
        query={"actor_id": "dr-001", "action": "record_created"},
    )
    assert filtered.status == 200
    assert all(e["actor_id"] == "dr-001" for e in filtered.body["events"])
    assert filtered.body["total"] >= 1


def test_disclosures_endpoint(service, actors, physician_bearer, officer_bearer):
    store_note(service, physician_bearer, "rec-001", "pat-001")
    _get(service, "/v1/records/rec-001", physician_bearer)
    response = _get(service, "/v1/audit/disclosures/pat-001", officer_bearer)
    assert response.status == 200
    assert response.body["total"] >= 1


def test_break_glass_grants_emergency_access(service, actors):
    nurse, nurse_secret = actors["nurse"]
    nurse_bearer = wire_login(service, nurse.user_id, nurse_secret)
    response = service.handle_request(
        Request(
            "POST",
            "/v1/break-glass",
            body={"patient_id": "pat-009", "justification": "unconscious, no consent possible"},
            bearer=nurse_bearer,
        )
    )
    assert response.status == 200
    assert response.body["user_id"] == nurse.user_id
    assert response.body["grant_id"]
    blank = service.handle_request(
        Request(
            "POST",
            "/v1/break-glass",
            body={"patient_id": "pat-009", "justification": "  "},
            bearer=nurse_bearer,
        )
    )
    assert blank.status == 400


# ---------------------------------------------------------------------------
# verification / tamper / transport errors
# ---------------------------------------------------------------------------


def test_verify_endpoint_clean(service, physician_bearer, officer_bearer):
    store_note(service, physician_bearer, "rec-001", "pat-001")
    response = service.handle_request(
        Request("POST", "/v1/verify", body={}, bearer=officer_bearer)
    )
    assert response.status == 200
    assert response.body["ok"] is True
    assert response.body["violations"] == []


def test_verify_endpoint_reports_tamper(service, physician_bearer, officer_bearer):
    """Rot a sealed record on the raw WORM device; the wire answer must
    say so (ok=false + violations) without leaking a traceback."""
    store_note(service, physician_bearer, "rec-001", "pat-001")
    from repro.storage.journal import Journal

    marker = b"rec-001@v0"
    tampered = False
    for engine in service.cluster.shards:
        device = engine.worm.device
        for offset, payload, _ok in Journal.walk_frames(device):
            if marker in payload:
                Journal.forge_frame(
                    device, offset, payload[:-1] + bytes([payload[-1] ^ 0x5A])
                )
                tampered = True
                break
        if tampered:
            break
    assert tampered, "seeded record not found on any shard device"
    response = service.handle_request(
        Request("POST", "/v1/verify", body={}, bearer=officer_bearer)
    )
    assert response.status == 200
    assert response.body["ok"] is False
    assert response.body["violations"]


def test_unknown_endpoint_and_method(service, physician_bearer):
    missing = _get(service, "/v1/nope", physician_bearer)
    assert missing.status == 404
    assert missing.body["error"]["code"] == "unknown_endpoint"
    wrong_method = service.handle_request(
        Request("DELETE", "/v1/records", bearer=physician_bearer)
    )
    assert wrong_method.status == 405
    assert wrong_method.body["error"]["code"] == "method_not_allowed"


def test_healthz_reports_shards_and_queue(service, actors):
    response = service.handle_request(Request("GET", "/v1/healthz"))
    assert response.status == 200
    assert response.body["shards"] == ["shard-00", "shard-01"]
    assert response.body["queue_limit"] == service.admission.queue_limit
    assert response.body["status"] == "ok"
