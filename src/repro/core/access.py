"""Access: the engine's one decision path — every allow-or-deny is one
``PolicyEngine.decide`` call (made nowhere else under
:mod:`repro.core`) that lands in the audit chain exactly once: a denial
or an emergency allow on its own event, a plain allow on the event of
the operation it authorized — and break-glass grants and revocations."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.access.breakglass import BreakGlassController
from repro.access.principals import Workforce
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

    @contextmanager
    def audited(
        self, action: AuditAction, actor_id: str, permission: Permission,
        patient_id: str, purpose: Purpose | None, subject_id: str,
    ) -> Iterator[dict]:
        """Decide, let the operation run, then append its one *action*
        event: the detail the operation fills in, plus a plain allow's
        deciding rule and trace (and the permission, where the action
        does not name it: ``ACCESS_GRANTED``).  One call into the
        declarative policy engine decides the whole composite (system
        override, RBAC, consent binding, break-glass fallback) for the
        stated purpose, or the one the actor's primary role implies
        (:mod:`repro.policy.rules`).  A denial is a breach signal, logged
        as ``ACCESS_DENIED`` *before* the typed exception is raised; an
        emergency allow is logged as ``EMERGENCY_ACCESS``, the event
        break-glass review reads, before the operation runs.  An
        operation that raises after the allow still gets its event,
        marked ``failed`` with the exception's class name and nothing
        else (a message may carry PHI)."""
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
        decided = {"permission": permission.value, **decision.to_audit_detail()}
        if not decision.allowed or decision.emergency:
            own = AuditAction.EMERGENCY_ACCESS if decision.allowed else AuditAction.ACCESS_DENIED
            self.anchors.append(own, actor_id, subject_id, decided)
            if not decision.allowed:
                raise decision.exception()
            decided = {}
        elif action is not AuditAction.ACCESS_GRANTED:
            del decided["permission"]  # the operation's own action names it
        detail: dict = {}
        try:
            yield detail
        except BaseException as exc:
            detail = {"failed": type(exc).__name__}
            raise
        finally:
            self.anchors.append(action, actor_id, subject_id, {**detail, **decided})

    @contextmanager
    def audited_record(
        self, action: AuditAction, record_id: str, actor_id: str,
        permission: Permission, purpose: Purpose | None = None,
        subject_id: str | None = None,
    ) -> Iterator[tuple[VersionChain, dict]]:
        """:meth:`audited` for a per-record operation: the live chain and
        its patient (the record as subject unless an attachment is)."""
        chain = self.directory.chain_for(record_id)
        patient_id = chain.latest().record.patient_id
        with self.audited(
            action, actor_id, permission, patient_id, purpose, subject_id or record_id
        ) as detail:
            yield chain, detail

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
