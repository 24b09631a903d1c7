"""Session broker: challenge-response, lockout, session tokens."""

import dataclasses

import pytest

from repro.errors import AccessDeniedError
from repro.policy.engine import PolicyEngine
from repro.policy.rules import SERVICE_RULES
from repro.service.auth import (
    CHALLENGE_TTL_SECONDS,
    DEFAULT_SESSION_SECONDS,
    LOCKOUT_THRESHOLD,
    Session,
    SessionBroker,
    decode_token,
    encode_token,
    respond,
)
from repro.util.clock import SimulatedClock


def make_broker():
    clock = SimulatedClock(start=0.0)
    return SessionBroker(clock, PolicyEngine(SERVICE_RULES)), clock


def login(broker, user_id, secret) -> str:
    """The whole protocol; returns the bearer token."""
    challenge = broker.request_challenge(user_id)
    return broker.login(user_id, respond(secret, challenge))[1]


def fail_login(broker, user_id):
    broker.request_challenge(user_id)
    with pytest.raises(AccessDeniedError, match="authentication failed"):
        broker.login(user_id, b"wrong" * 8)


def forge(bearer, **changes) -> str:
    return encode_token(dataclasses.replace(decode_token(bearer), **changes))


def test_happy_path_login_and_validate():
    broker, _ = make_broker()
    secret = broker.enroll("dr-a")
    user_id, decision = broker.validate_bearer(login(broker, "dr-a", secret))
    assert user_id == "dr-a"
    assert decision.rule_id == "allow:session:clean"


def test_duplicate_enrollment_rejected():
    broker, _ = make_broker()
    broker.enroll("dr-a")
    with pytest.raises(AccessDeniedError):
        broker.enroll("dr-a")
    with pytest.raises(AccessDeniedError):
        broker.enroll("")


def test_unknown_user_cannot_request_challenge():
    broker, _ = make_broker()
    with pytest.raises(AccessDeniedError, match="unknown user"):
        broker.request_challenge("ghost")


def test_wrong_secret_fails():
    broker, _ = make_broker()
    broker.enroll("dr-a")
    challenge = broker.request_challenge("dr-a")
    with pytest.raises(AccessDeniedError, match="authentication failed"):
        broker.login("dr-a", respond(bytes(32), challenge))


def test_login_without_challenge_fails():
    broker, _ = make_broker()
    broker.enroll("dr-a")
    with pytest.raises(AccessDeniedError, match="no pending challenge"):
        broker.login("dr-a", b"x" * 32)


def test_challenge_expires():
    broker, clock = make_broker()
    secret = broker.enroll("dr-a")
    challenge = broker.request_challenge("dr-a")
    clock.advance(CHALLENGE_TTL_SECONDS + 1)
    with pytest.raises(AccessDeniedError, match="expired"):
        broker.login("dr-a", respond(secret, challenge))
    # the stale challenge was consumed: the same proof cannot retry
    with pytest.raises(AccessDeniedError, match="no pending challenge"):
        broker.login("dr-a", respond(secret, challenge))


def test_challenge_is_single_use():
    broker, _ = make_broker()
    secret = broker.enroll("dr-a")
    challenge = broker.request_challenge("dr-a")
    response = respond(secret, challenge)
    broker.login("dr-a", response)
    with pytest.raises(AccessDeniedError, match="no pending challenge"):
        broker.login("dr-a", response)  # replay


def test_lockout_after_repeated_failures():
    broker, _ = make_broker()
    secret = broker.enroll("dr-a")
    for _ in range(LOCKOUT_THRESHOLD - 1):
        fail_login(broker, "dr-a")
    challenge = broker.request_challenge("dr-a")  # still allowed
    with pytest.raises(AccessDeniedError, match="authentication failed"):
        broker.login("dr-a", b"wrong" * 8)
    with pytest.raises(AccessDeniedError, match="locked"):
        broker.request_challenge("dr-a")
    # even the right secret is refused while locked
    with pytest.raises(AccessDeniedError, match="locked"):
        broker.login("dr-a", respond(secret, challenge))


def test_successful_login_resets_failure_count():
    broker, _ = make_broker()
    secret = broker.enroll("dr-a")
    for _ in range(LOCKOUT_THRESHOLD - 1):
        fail_login(broker, "dr-a")
    login(broker, "dr-a", secret)
    # a fresh budget: as many failures again still do not lock
    for _ in range(LOCKOUT_THRESHOLD - 1):
        fail_login(broker, "dr-a")
    assert broker.validate_bearer(login(broker, "dr-a", secret))[0] == "dr-a"


def test_session_expires():
    broker, clock = make_broker()
    bearer = login(broker, "dr-a", broker.enroll("dr-a"))
    clock.advance(DEFAULT_SESSION_SECONDS + 1)
    with pytest.raises(AccessDeniedError, match="session expired"):
        broker.validate_bearer(bearer)


def test_forged_token_rejected():
    broker, _ = make_broker()
    bearer = login(broker, "dr-a", broker.enroll("dr-a"))
    with pytest.raises(AccessDeniedError, match="token invalid"):
        broker.validate_bearer(forge(bearer, user_id="dr-evil"))


def test_extended_expiry_rejected():
    broker, _ = make_broker()
    bearer = login(broker, "dr-a", broker.enroll("dr-a"))
    session = decode_token(bearer)
    with pytest.raises(AccessDeniedError, match="token invalid"):
        broker.validate_bearer(forge(bearer, expires_at=session.expires_at + 1e6))


def test_fabricated_session_rejected():
    broker, _ = make_broker()
    broker.enroll("dr-a")
    fake = Session(
        session_id="sess-00000001",
        user_id="dr-a",
        issued_at=0.0,
        expires_at=1e9,
        token=bytes(32),
    )
    with pytest.raises(AccessDeniedError, match="token invalid"):
        broker.validate_bearer(encode_token(fake))


def test_locked_account_invalidates_live_sessions():
    broker, _ = make_broker()
    bearer = login(broker, "dr-a", broker.enroll("dr-a"))
    for _ in range(LOCKOUT_THRESHOLD):
        fail_login(broker, "dr-a")
    with pytest.raises(AccessDeniedError, match="locked"):
        broker.validate_bearer(bearer)
    with pytest.raises(AccessDeniedError, match="locked"):
        broker.refresh(bearer)
