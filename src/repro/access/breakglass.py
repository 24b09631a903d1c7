"""Break-glass emergency access.

An unconscious patient arrives; the on-call physician has no treating
relationship on file.  Denying access would be clinically dangerous, so
compliance systems provide an *emergency override*: access succeeds,
but the override itself is loud — it creates a time-boxed grant, a
mandatory after-the-fact review obligation, and (at the engine layer)
an EMERGENCY_ACCESS audit event the privacy officer must disposition.

:class:`BreakGlassController` manages the grants and the review queue.
Unreviewed grants past their review deadline are a compliance finding,
which the compliance checker (:mod:`repro.compliance`) reports.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

from repro.access.principals import User
from repro.crypto.hashing import sha256
from repro.errors import AccessDeniedError
from repro.policy.model import BREAK_GLASS_ACTION, PolicyContext
from repro.util.clock import Clock, WallClock
from repro.util.validation import require_non_empty


@dataclass(frozen=True)
class BreakGlassGrant:
    """One emergency access grant."""

    grant_id: str
    user_id: str
    patient_id: str
    justification: str
    granted_at: float
    expires_at: float
    review_deadline: float


class BreakGlassController:
    """Issues, checks, and reviews emergency grants."""

    def __init__(self, clock: Clock | None = None) -> None:
        self._clock = clock or WallClock()
        self._grants: dict[str, BreakGlassGrant] = {}
        self._reviewed: dict[str, str] = {}  # grant_id -> reviewer
        self._counter = 0
        from repro.policy.engine import PolicyEngine
        from repro.policy.rules import BREAKGLASS_RULES

        self._policy = PolicyEngine(BREAKGLASS_RULES)

    def invoke(self, user: User, patient_id: str, justification: str) -> BreakGlassGrant:
        """Break the glass: grant emergency access to one patient.

        Whether the override is granted is a policy decision over the
        measured justification fact; issuing the grant (and the review
        obligation it creates) is this controller's bookkeeping."""
        require_non_empty(patient_id, "patient_id")
        self._policy.decide(
            user,
            BREAK_GLASS_ACTION,
            patient_id,
            PolicyContext(
                facts={
                    "substantive_justification": bool(
                        justification and len(justification.strip()) >= 10
                    )
                }
            ),
        ).require()
        self._counter += 1
        now = self._clock.now()
        # The counter orders the review queue; the digest keeps ids from
        # two controllers apart, so a grant can follow its patient to
        # another engine (:meth:`adopt`) without shadowing one issued there.
        tag = sha256(f"{user.user_id}\x00{patient_id}\x00{now!r}".encode()).hex()[:8]
        grant = BreakGlassGrant(
            grant_id=f"bg-{self._counter:06d}-{tag}",
            user_id=user.user_id,
            patient_id=patient_id,
            justification=justification.strip(),
            granted_at=now,
            expires_at=now + 4 * 3600.0,  # a grant lasts four hours
            review_deadline=now + 72 * 3600.0,  # and is reviewed within three days
        )
        self._grants[grant.grant_id] = grant
        return grant

    def has_active_grant(self, user_id: str, patient_id: str) -> bool:
        """Whether an unexpired grant covers (user, patient) right now."""
        now = self._clock.now()
        return any(
            grant.user_id == user_id
            and grant.patient_id == patient_id
            and grant.expires_at > now
            for grant in self._grants.values()
        )

    def active_grants(self, patient_id: str) -> tuple[BreakGlassGrant, ...]:
        """The unexpired grants on *patient_id*, for hand-off when the
        patient's custody moves to another engine."""
        now = self._clock.now()
        return tuple(
            grant
            for grant in self.grants()
            if grant.patient_id == patient_id and grant.expires_at > now
        )

    def adopt(self, grants: Iterable[BreakGlassGrant]) -> None:
        """Take over grants issued elsewhere, unchanged: the same id,
        expiry and review deadline keep authorizing, and owing a review,
        here."""
        for grant in grants:
            self._grants.setdefault(grant.grant_id, grant)

    def release(self, patient_id: str) -> None:
        """Forget the unexpired grants on *patient_id*: custody moved
        away and the new home adopted them, so a copy kept here could
        only resurrect a grant revoked there if the patient ever
        returns.  Expired grants stay, for the review queue."""
        for grant in self.active_grants(patient_id):
            del self._grants[grant.grant_id]

    def revoke(self, grant_id: str) -> BreakGlassGrant:
        """Cut a grant short (e.g. the review found it unjustified).

        The grant stays on the books — its issuance is history the
        review queue must still disposition — but it stops authorizing
        access immediately.  Returns the revoked grant.
        """
        grant = self._grants.get(grant_id)
        if grant is None:
            raise AccessDeniedError(f"unknown break-glass grant {grant_id}")
        revoked = replace(grant, expires_at=self._clock.now())
        self._grants[grant_id] = revoked
        return revoked

    def review(self, grant_id: str, reviewer_id: str) -> None:
        """The privacy officer dispositions a grant."""
        if grant_id not in self._grants:
            raise AccessDeniedError(f"unknown break-glass grant {grant_id}")
        self._reviewed[grant_id] = reviewer_id

    def pending_review(self) -> list[BreakGlassGrant]:
        """Grants not yet reviewed."""
        return [
            grant
            for grant_id, grant in sorted(self._grants.items())
            if grant_id not in self._reviewed
        ]

    def overdue_reviews(self) -> list[BreakGlassGrant]:
        """Unreviewed grants past the review deadline — a compliance
        finding when non-empty."""
        now = self._clock.now()
        return [g for g in self.pending_review() if g.review_deadline < now]

    def grants(self) -> list[BreakGlassGrant]:
        return [self._grants[k] for k in sorted(self._grants)]
