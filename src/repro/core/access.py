"""Access: the engine's one decision path — every allow-or-deny is one
``PolicyEngine.decide`` call (made nowhere else under
:mod:`repro.core`), audited before the caller sees the outcome — and
break-glass grants and revocations."""

from __future__ import annotations

from dataclasses import dataclass

from repro.access.breakglass import BreakGlassController
from repro.access.principals import User, Workforce
from repro.access.rbac import Permission, Purpose
from repro.audit.anchors import AnchorSchedule
from repro.audit.events import AuditAction
from repro.core.directory import RecordDirectory
from repro.errors import AccessDeniedError
from repro.policy import PolicyContext, PolicyEngine
from repro.policy.rules import default_purpose_for
from repro.records.versioning import VersionChain


@dataclass(eq=False, repr=False, kw_only=True)
class Access:
    """Decide + audit, and break-glass, over one engine's records."""

    workforce: Workforce
    breakglass: BreakGlassController
    policy: PolicyEngine
    anchors: AnchorSchedule
    directory: RecordDirectory

    def authorize(
        self, actor_id: str, permission: Permission, patient_id: str,
        purpose: Purpose | None, subject_id: str,
    ) -> User:
        """Decide + audit.  One call into the declarative policy engine
        decides the whole composite (system override, RBAC, consent
        binding, break-glass fallback) for the stated purpose, or the
        one the actor's primary role implies (the table lives beside the
        declared rules in :mod:`repro.policy.rules`); the decision trace
        — every rule consulted and the deciding rule — lands in the
        audit chain on every outcome.  Denials are breach signals: they
        are logged as structured ``ACCESS_DENIED`` events *before* the
        typed exception is raised."""
        user = self.workforce.resolve(actor_id)
        if user is None:
            self.anchors.append(
                AuditAction.ACCESS_DENIED, actor_id, subject_id,
                {"reason": "unknown principal", "permission": permission.value},
            )
            raise AccessDeniedError(f"unknown principal {actor_id!r}")
        context = PolicyContext(
            purpose=purpose or default_purpose_for(user),
            patient_id=patient_id,
            own_record=(user.user_id == patient_id),
        )
        decision = self.policy.decide(user, permission, subject_id, context)
        if not decision.allowed:
            action = AuditAction.ACCESS_DENIED
        elif decision.emergency:
            action = AuditAction.EMERGENCY_ACCESS
        else:
            action = AuditAction.ACCESS_GRANTED
        self.anchors.append(
            action, actor_id, subject_id,
            {"permission": permission.value, **decision.to_audit_detail()},
        )
        if not decision.allowed:
            raise decision.exception()
        return user

    def authorize_record(
        self, record_id: str, actor_id: str, permission: Permission,
        purpose: Purpose | None = None, subject_id: str | None = None,
    ) -> VersionChain:
        """The prelude of every per-record operation: the live chain,
        its patient, and one audited decision (the record as subject
        unless an attachment is)."""
        chain = self.directory.chain_for(record_id)
        patient_id = chain.latest().record.patient_id
        self.authorize(actor_id, permission, patient_id, purpose, subject_id or record_id)
        return chain

    def break_glass(self, actor_id: str, patient_id: str, justification: str):
        """Emergency access: grant + mandatory audit event."""
        user = self.workforce.resolve(actor_id)
        if user is None:
            raise AccessDeniedError(f"unknown principal {actor_id!r}")
        grant = self.breakglass.invoke(user, patient_id, justification)
        self.anchors.append(
            AuditAction.EMERGENCY_ACCESS, actor_id, patient_id,
            {"grant_id": grant.grant_id, "justification": justification},
        )
        return grant

    def revoke_break_glass(self, grant_id: str):
        """Revoke an emergency grant and drop any cached plaintext the
        grantee's reads pinned in memory — after revocation, reaching a
        record again must run the full decrypt-under-authorization path.
        """
        grant = self.breakglass.revoke(grant_id)
        for record_id in self.directory.records_of_patient(grant.patient_id):
            self.directory.purge(record_id)
        self.anchors.append(
            AuditAction.EMERGENCY_ACCESS, grant.user_id, grant.patient_id,
            {"grant_id": grant.grant_id, "revoked": True},
        )
        return grant
