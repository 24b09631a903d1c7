"""Person-and-entity authentication (HIPAA §164.312(d)) for the wire.

The access-control engine decides what an *authenticated* principal may
do; this module is where principals become authenticated.  It models
the smart-card / token deployments HIPAA-era guidance recommended
(cf. the Smart Card Alliance reference in the paper) with a
challenge-response protocol:

1. enrollment binds a user id to a secret (the card key);
2. login requests a random challenge;
3. the client proves possession with ``HMAC(secret, challenge ||
   user_id)`` (:func:`respond`);
4. a time-boxed :class:`Session` is issued, HMAC'd under the broker's
   key and folded into one opaque base64url bearer string, so it cannot
   be forged or extended client-side and is re-verified per request.

Failed attempts are counted; reaching the lockout threshold disables
the account and every session it holds.  Logout and refresh rotation
revoke the old session id, so a replayed token fails with its own rule
(``deny:service:revoked-token``), not a generic 401.

Allow-or-deny is not decided here: the broker *measures* (token HMAC,
expiry, lockout, revocation, challenge freshness, response validity)
and the service ruleset decides in one ``decide()``; the broker applies
the side effects the deciding rule implies (failure counting, lockout,
challenge consumption), and the decision rides into the error body.
"""

from __future__ import annotations

import base64
import binascii
import secrets
import threading
from dataclasses import dataclass, replace

from repro.crypto.hmac_utils import constant_time_equal, hmac_sha256
from repro.errors import AccessDeniedError
from repro.policy.engine import PolicyEngine
from repro.policy.model import Decision, PolicyContext
from repro.records.ids import SESSION
from repro.util.clock import Clock

DEFAULT_SESSION_SECONDS = 8 * 3600.0
LOCKOUT_THRESHOLD = 5
CHALLENGE_TTL_SECONDS = 300.0


@dataclass(frozen=True)
class Challenge:
    """A one-time login challenge."""

    user_id: str
    nonce: bytes
    issued_at: float


@dataclass(frozen=True)
class Session:
    """An authenticated session."""

    session_id: str
    user_id: str
    issued_at: float
    expires_at: float
    token: bytes


class MalformedTokenError(AccessDeniedError):
    """The bearer string does not decode to a session at all."""


def respond(secret: bytes, challenge: Challenge) -> bytes:
    """Client-side: compute the proof of possession."""
    return hmac_sha256(secret, challenge.nonce + challenge.user_id.encode("utf-8"))


def encode_token(session: Session) -> str:
    """Fold a session into one opaque bearer string."""
    material = "|".join(
        (session.session_id, session.user_id, repr(session.issued_at),
         repr(session.expires_at), session.token.hex())
    )
    return base64.urlsafe_b64encode(material.encode("utf-8")).decode("ascii")


def decode_token(token: str) -> Session:
    """Unfold a bearer string; raises :class:`MalformedTokenError` on
    anything that is not five well-typed pipe-joined fields.  No
    authenticity judgement here — that is the broker's policy pass."""
    try:
        material = base64.urlsafe_b64decode(token.encode("ascii")).decode("utf-8")
        session_id, user_id, issued_at, expires_at, mac_hex = material.split("|")
        return Session(
            session_id=session_id,
            user_id=user_id,
            issued_at=float(issued_at),
            expires_at=float(expires_at),
            token=bytes.fromhex(mac_hex),
        )
    except (ValueError, binascii.Error, UnicodeDecodeError) as exc:
        raise MalformedTokenError(f"bearer token is malformed: {exc}") from None


class SessionBroker:
    """Enrollment, challenge-response login, lockout, and the bearer
    sessions' validation, refresh and logout.

    Thread-safe: every piece of session state is guarded by one lock.
    *policy* is the service ruleset's engine, shared with admission
    control — decisions over measured facts never touch its cache.
    """

    def __init__(self, clock: Clock, policy: PolicyEngine) -> None:
        self._clock = clock
        self._policy = policy
        self._key = secrets.token_bytes(32)
        self._lock = threading.Lock()
        self._secrets: dict[str, bytes] = {}
        self._failures: dict[str, int] = {}
        self._locked: set[str] = set()
        self._pending: dict[str, Challenge] = {}
        self._counter = 0
        self._revoked: set[str] = set()
        self._active: set[str] = set()

    def enroll(self, user_id: str) -> bytes:
        """Enroll a user; returns the secret to place on their token."""
        if not user_id:
            raise AccessDeniedError("user id must not be empty")
        with self._lock:
            if user_id in self._secrets:
                raise AccessDeniedError(f"user {user_id} already enrolled")
            secret = self._secrets[user_id] = secrets.token_bytes(32)
        return secret

    # -- login protocol -----------------------------------------------------

    def request_challenge(self, user_id: str) -> Challenge:
        """Step 1: the client asks to log in."""
        with self._lock:
            self._enforce(
                user_id,
                "request_challenge",
                enrolled=user_id in self._secrets,
                account_locked=user_id in self._locked,
            )
            challenge = self._pending[user_id] = Challenge(
                user_id=user_id,
                nonce=secrets.token_bytes(16),
                issued_at=self._clock.now(),
            )
        return challenge

    def login(self, user_id: str, response: bytes) -> tuple[Session, str]:
        """Step 2: verify the challenge response; returns (session, bearer)."""
        with self._lock:
            challenge = self._pending.get(user_id)
            secret = self._secrets.get(user_id)
            pending = challenge is not None and secret is not None
            fresh = (
                pending
                and self._clock.now() - challenge.issued_at <= CHALLENGE_TTL_SECONDS
            )
            valid = fresh and constant_time_equal(respond(secret, challenge), response)
            self._enforce(
                user_id,
                "login",
                account_locked=user_id in self._locked,
                challenge_pending=pending,
                challenge_fresh=not pending or fresh,
                response_valid=not fresh or valid,
            )
            del self._pending[user_id]
            self._failures.pop(user_id, None)
            return self._mint(user_id)

    # -- per-request validation ---------------------------------------------

    def validate_bearer(self, bearer: str) -> tuple[str, Decision]:
        """Authenticate one presented bearer token.

        Returns ``(user_id, decision)`` on allow; raises the decision's
        typed exception (with ``.decision`` attached) on deny, and
        :class:`MalformedTokenError` when the string is not a token.
        One ``decide()`` over all measured facts — the deciding rule id
        tells the wire layer which 401 code to return.
        """
        session = decode_token(bearer)
        with self._lock:
            return session.user_id, self._validate(session)

    # -- rotation / revocation ----------------------------------------------

    def refresh(self, bearer: str) -> tuple[Session, str]:
        """Rotate a still-valid session: mint a fresh one, revoke the
        old id.  A replay of the pre-refresh token is now a
        ``deny:service:revoked-token`` denial."""
        session = decode_token(bearer)
        with self._lock:
            self._validate(session)
            self._revoke(session)
            return self._mint(session.user_id)

    def logout(self, bearer: str) -> str:
        """Revoke the presented session; returns the user id for the
        audit event."""
        session = decode_token(bearer)
        with self._lock:
            self._validate(session)
            self._revoke(session)
        return session.user_id

    @property
    def active_sessions(self) -> int:
        with self._lock:
            return len(self._active)

    # -- mechanism (lock held by every caller) ------------------------------

    def _enforce(self, user_id: str, action: str, resource: str = "", **facts) -> Decision:
        """One policy decision over measured facts; applies the side
        effects the deciding rule implies, then raises the typed denial."""
        decision = self._policy.decide(
            user_id, action, resource, PolicyContext(facts=facts)
        )
        if decision.allowed:
            return decision
        if decision.rule_id == "deny:session:stale-challenge":
            self._pending.pop(user_id, None)
        elif decision.rule_id == "deny:session:bad-response":
            self._failures[user_id] = self._failures.get(user_id, 0) + 1
            if self._failures[user_id] >= LOCKOUT_THRESHOLD:
                self._locked.add(user_id)
        raise decision.exception()

    def _validate(self, session: Session) -> Decision:
        return self._enforce(
            session.user_id,
            "use_session",
            session.session_id,
            token_valid=constant_time_equal(self._mac(session), session.token),
            session_expired=self._clock.now() >= session.expires_at,
            account_locked=session.user_id in self._locked,
            session_revoked=session.session_id in self._revoked,
        )

    def _mac(self, session: Session) -> bytes:
        material = (
            f"{session.session_id}|{session.user_id}|"
            f"{session.issued_at}|{session.expires_at}"
        )
        return hmac_sha256(self._key, material.encode("utf-8"))

    def _mint(self, user_id: str) -> tuple[Session, str]:
        self._counter += 1
        now = self._clock.now()
        unsigned = Session(
            session_id=f"{SESSION}{self._counter:08d}",
            user_id=user_id,
            issued_at=now,
            expires_at=now + DEFAULT_SESSION_SECONDS,
            token=b"",
        )
        session = replace(unsigned, token=self._mac(unsigned))
        self._active.add(session.session_id)
        return session, encode_token(session)

    def _revoke(self, session: Session) -> None:
        self._revoked.add(session.session_id)
        self._active.discard(session.session_id)
