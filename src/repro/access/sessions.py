"""Person-and-entity authentication (HIPAA §164.312(d)).

The access-control engine decides what an *authenticated* principal may
do; this module is where principals become authenticated.  It models
the smart-card / token deployments HIPAA-era guidance recommended
(cf. the Smart Card Alliance reference in the paper) with a
challenge-response protocol:

1. enrollment binds a user id to a secret (the card key);
2. login requests a random challenge;
3. the client proves possession by returning
   ``HMAC(secret, challenge || user_id)``;
4. a time-boxed :class:`Session` is issued; its token is an HMAC over
   the session fields under the broker's key, so tokens cannot be
   forged or extended client-side.

Failed attempts are counted; exceeding the lockout threshold disables
the account until an administrator resets it (brute-force containment).
Every transition is returned to the caller for audit logging — the
engine owns the audit trail, this module owns the crypto.

Allow-or-deny is not decided here: the broker *measures* (token
signature, expiry clock, lockout set, challenge freshness, response
validity) and hands the measurements as facts to the session ruleset
(:func:`repro.policy.compiler.session_ruleset`); the policy engine
decides, and the broker applies the side effects (failure counting,
lockout, challenge consumption) keyed on the deciding rule.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass

from repro.crypto.hmac_utils import constant_time_equal, hmac_sha256
from repro.errors import AccessDeniedError
from repro.policy.model import PolicyContext
from repro.records.ids import SESSION
from repro.util.clock import Clock, WallClock

DEFAULT_SESSION_SECONDS = 8 * 3600.0
DEFAULT_LOCKOUT_THRESHOLD = 5


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


class Authenticator:
    """Challenge-response authentication broker."""

    def __init__(
        self,
        clock: Clock | None = None,
        session_seconds: float = DEFAULT_SESSION_SECONDS,
        lockout_threshold: int = DEFAULT_LOCKOUT_THRESHOLD,
        challenge_ttl_seconds: float = 300.0,
    ) -> None:
        self._clock = clock or WallClock()
        self._session_seconds = session_seconds
        self._lockout_threshold = lockout_threshold
        self._challenge_ttl = challenge_ttl_seconds
        self._broker_key = secrets.token_bytes(32)
        self._secrets: dict[str, bytes] = {}
        self._failures: dict[str, int] = {}
        self._locked: set[str] = set()
        self._pending: dict[str, Challenge] = {}
        self._counter = 0
        # Imported lazily to keep this module importable below the
        # policy compiler in the import graph.
        from repro.policy.compiler import session_ruleset
        from repro.policy.engine import PolicyEngine

        self._policy = PolicyEngine(session_ruleset())

    @property
    def clock(self) -> Clock:
        """The clock session validity is measured against (boundary
        layers measure expiry with the same clock the broker uses)."""
        return self._clock

    def _enforce(self, user_id: str, action: str, **facts) -> None:
        """One policy decision over measured facts; applies the broker
        side effects the deciding rule implies, then raises the typed
        denial."""
        decision = self._policy.decide(
            user_id, action, context=PolicyContext(facts=facts)
        )
        if decision.allowed:
            return
        if decision.rule_id == "deny:session:stale-challenge":
            self._pending.pop(user_id, None)
        elif decision.rule_id == "deny:session:bad-response":
            self._failures[user_id] = self._failures.get(user_id, 0) + 1
            if self._failures[user_id] >= self._lockout_threshold:
                self._locked.add(user_id)
        raise decision.exception()

    # -- enrollment ---------------------------------------------------------

    def enroll(self, user_id: str) -> bytes:
        """Enroll a user; returns the secret to place on their token."""
        if not user_id:
            raise AccessDeniedError("user id must not be empty")
        if user_id in self._secrets:
            raise AccessDeniedError(f"user {user_id} already enrolled")
        secret = secrets.token_bytes(32)
        self._secrets[user_id] = secret
        return secret

    def is_locked(self, user_id: str) -> bool:
        return user_id in self._locked

    def unlock(self, user_id: str) -> None:
        """Administrative reset after lockout."""
        self._locked.discard(user_id)
        self._failures.pop(user_id, None)

    # -- the protocol -----------------------------------------------------------

    def request_challenge(self, user_id: str) -> Challenge:
        """Step 1: the client asks to log in."""
        self._enforce(
            user_id,
            "request_challenge",
            enrolled=user_id in self._secrets,
            account_locked=user_id in self._locked,
        )
        challenge = Challenge(
            user_id=user_id,
            nonce=secrets.token_bytes(16),
            issued_at=self._clock.now(),
        )
        self._pending[user_id] = challenge
        return challenge

    @staticmethod
    def respond(secret: bytes, challenge: Challenge) -> bytes:
        """Client-side: compute the proof of possession."""
        return hmac_sha256(secret, challenge.nonce + challenge.user_id.encode("utf-8"))

    def login(self, user_id: str, response: bytes) -> Session:
        """Step 2: verify the response and issue a session."""
        challenge = self._pending.get(user_id)
        secret = self._secrets.get(user_id)
        pending = challenge is not None and secret is not None
        fresh = (
            pending
            and self._clock.now() - challenge.issued_at <= self._challenge_ttl
        )
        valid = fresh and constant_time_equal(
            self.respond(secret, challenge), response
        )
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
        self._counter += 1
        now = self._clock.now()
        session_id = f"{SESSION}{self._counter:08d}"
        expires_at = now + self._session_seconds
        token = self._token_for(session_id, user_id, now, expires_at)
        return Session(
            session_id=session_id,
            user_id=user_id,
            issued_at=now,
            expires_at=expires_at,
            token=token,
        )

    def _token_for(
        self, session_id: str, user_id: str, issued_at: float, expires_at: float
    ) -> bytes:
        material = f"{session_id}|{user_id}|{issued_at}|{expires_at}".encode("utf-8")
        return hmac_sha256(self._broker_key, material)

    def token_matches(self, session: Session) -> bool:
        """Measure (don't decide): does the presented token HMAC-verify
        against the session's fields under the broker key?  Boundary
        layers that fold extra facts into one policy decision (the wire
        service adds revocation) use this instead of :meth:`validate`.
        """
        expected = self._token_for(
            session.session_id, session.user_id, session.issued_at, session.expires_at
        )
        return constant_time_equal(expected, session.token)

    def reissue(self, session: Session) -> Session:
        """Mint a fresh session for the same principal (token refresh).

        The caller must have *already validated* the presented session —
        this is the mechanism half of refresh; the deciding half lives
        in the caller's policy pass (see
        :class:`repro.service.auth.SessionBroker`).
        """
        self._counter += 1
        now = self._clock.now()
        session_id = f"{SESSION}{self._counter:08d}"
        expires_at = now + self._session_seconds
        token = self._token_for(session_id, session.user_id, now, expires_at)
        return Session(
            session_id=session_id,
            user_id=session.user_id,
            issued_at=now,
            expires_at=expires_at,
            token=token,
        )

    def validate(self, session: Session) -> str:
        """Validate a presented session; returns the authenticated user id.

        Rejects forged tokens, altered fields, and expired sessions.
        """
        expected = self._token_for(
            session.session_id, session.user_id, session.issued_at, session.expires_at
        )
        self._enforce(
            session.user_id,
            "use_session",
            token_valid=constant_time_equal(expected, session.token),
            session_expired=self._clock.now() >= session.expires_at,
            account_locked=session.user_id in self._locked,
        )
        return session.user_id

    def failed_attempts(self, user_id: str) -> int:
        return self._failures.get(user_id, 0)
