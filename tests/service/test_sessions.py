"""Session lifecycle over the wire: expiry, refresh rotation, revocation."""

from __future__ import annotations

from repro.service.auth import DEFAULT_SESSION_SECONDS
from repro.service.service import Request

from tests.service.conftest import store_note, wire_login


def _read(service, bearer, record_id="rec-001"):
    return service.handle_request(
        Request("GET", f"/v1/records/{record_id}", bearer=bearer)
    )


def test_login_issues_usable_bearer(service, actors, clock):
    user, secret = actors["physician"]
    bearer = wire_login(service, user.user_id, secret)
    assert store_note(service, bearer, "rec-001", "pat-001").status == 201
    assert _read(service, bearer).status == 200


def test_missing_token_is_401(service, actors):
    response = _read(service, bearer="")
    assert response.status == 401
    assert response.body["error"]["code"] == "unauthorized"


def test_garbage_token_is_401_malformed(service):
    response = _read(service, bearer="!!!not-base64!!!")
    assert response.status == 401
    assert response.body["error"]["code"] == "malformed_token"


def test_forged_token_is_401(service, actors):
    user, secret = actors["physician"]
    bearer = wire_login(service, user.user_id, secret)
    # re-encode with a widened validity window: the HMAC no longer matches
    from repro.service.auth import decode_token, encode_token
    from dataclasses import replace

    session = decode_token(bearer)
    forged = encode_token(replace(session, expires_at=session.expires_at + 1e6))
    response = _read(service, bearer=forged)
    assert response.status == 401
    assert response.body["error"]["rule_id"] == "deny:session:forged-token"


def test_expiry_is_denied_with_its_own_code(service, actors, clock):
    user, secret = actors["physician"]
    bearer = wire_login(service, user.user_id, secret)
    store_note(service, bearer, "rec-001", "pat-001")
    clock.advance(DEFAULT_SESSION_SECONDS + 1)
    response = _read(service, bearer)
    assert response.status == 401
    assert response.body["error"]["code"] == "session_expired"
    assert response.body["error"]["rule_id"] == "deny:session:expired"
    assert response.body["error"]["trace"]  # the consultation trace rides along


def test_refresh_rotates_and_revokes_the_old_token(service, actors, clock):
    user, secret = actors["physician"]
    old = wire_login(service, user.user_id, secret)
    store_note(service, old, "rec-001", "pat-001")

    refreshed = service.handle_request(Request("POST", "/v1/auth/refresh", bearer=old))
    assert refreshed.status == 200
    fresh = refreshed.body["token"]
    assert fresh != old
    assert refreshed.body["expires_at"] > clock.now()

    # the new token works; the replayed old token is its own denial
    assert _read(service, fresh).status == 200
    replayed = _read(service, old)
    assert replayed.status == 401
    assert replayed.body["error"]["code"] == "session_revoked"
    assert replayed.body["error"]["rule_id"] == "deny:service:revoked-token"


def test_refresh_extends_the_validity_window(service, actors, clock):
    user, secret = actors["physician"]
    bearer = wire_login(service, user.user_id, secret)
    clock.advance(DEFAULT_SESSION_SECONDS - 10)  # nearly expired
    refreshed = service.handle_request(
        Request("POST", "/v1/auth/refresh", bearer=bearer)
    )
    assert refreshed.status == 200
    clock.advance(DEFAULT_SESSION_SECONDS / 2)  # old token would be long dead
    assert _read(service, refreshed.body["token"], "rec-x").status == 404


def test_logout_revokes(service, actors):
    user, secret = actors["physician"]
    bearer = wire_login(service, user.user_id, secret)
    assert service.broker.active_sessions == 1
    out = service.handle_request(Request("POST", "/v1/auth/logout", bearer=bearer))
    assert out.status == 200
    assert service.broker.active_sessions == 0
    replayed = _read(service, bearer)
    assert replayed.status == 401
    assert replayed.body["error"]["code"] == "session_revoked"


def test_expired_token_cannot_refresh(service, actors, clock):
    user, secret = actors["physician"]
    bearer = wire_login(service, user.user_id, secret)
    clock.advance(DEFAULT_SESSION_SECONDS + 1)
    refreshed = service.handle_request(
        Request("POST", "/v1/auth/refresh", bearer=bearer)
    )
    assert refreshed.status == 401
    assert refreshed.body["error"]["code"] == "session_expired"


def test_unknown_user_challenge_is_denied(service):
    response = service.handle_request(
        Request("POST", "/v1/auth/challenge", body={"user_id": "nobody"})
    )
    assert response.status == 403
    assert response.body["error"]["rule_id"] == "deny:session:unknown-user"


def test_wrong_secret_login_fails(service, actors):
    user, _secret = actors["physician"]
    challenged = service.handle_request(
        Request("POST", "/v1/auth/challenge", body={"user_id": user.user_id})
    )
    assert challenged.status == 200
    response = service.handle_request(
        Request(
            "POST",
            "/v1/auth/login",
            body={"user_id": user.user_id, "response": "00" * 32},
        )
    )
    assert response.status == 403
    assert response.body["error"]["rule_id"] == "deny:session:bad-response"
