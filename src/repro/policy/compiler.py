"""Compile the legacy access tables into declarative rulesets.

The point of the compiler is *provable equivalence*: the default
ruleset is generated from the very same ``_ROLE_PERMISSIONS`` /
``_PURPOSE_RULES`` tables of :mod:`repro.access.rbac` that a table
interpreter used to read, plus one rule each for the composite
behaviors the old engine special-cased inline (the ``system``
principal, consent binding, break-glass fallback).  The hypothesis suite in
``tests/policy/test_equivalence.py`` drives randomized tuples through
both the compiled ruleset and a verbatim copy of the legacy logic and
asserts identical decisions, reasons included.

Also here: the fact-based rulesets for the domains where the mechanism
layer measures and policy decides — sessions, disposition, break-glass
invocation — and :func:`default_purpose_for`, the purpose-inference
table that used to live inline in the core engine.
"""

from __future__ import annotations

from repro.access.principals import Role, User
from repro.access.rbac import (
    _CLINICAL_ROLES,
    _PURPOSE_RULES,
    _ROLE_PERMISSIONS,
    _TREATING_REQUIRED,
    Permission,
    Purpose,
)
from repro.policy import conditions as cond
from repro.policy.model import (
    DESTRUCTION_ACTION,
    Effect,
    PolicyRule,
    Tier,
)

#: Actions in the default ruleset beyond the RBAC permission vocabulary.
COMPOSITE_ACTIONS = frozenset({DESTRUCTION_ACTION, "invoke_break_glass"})


def compile_rbac_rules() -> tuple[PolicyRule, ...]:
    """One ROLE-tier ALLOW rule per (role, permission) capability, with
    the purpose / own-record / treating restrictions attached as
    conditions in the order the legacy engine checked them.  A role
    without a capability simply has no rule for that action — the
    capability layer is the rule index itself."""
    rules: list[PolicyRule] = []
    for role in sorted(_ROLE_PERMISSIONS, key=lambda r: r.value):
        for permission in sorted(_ROLE_PERMISSIONS[role], key=lambda p: p.value):
            rule_conditions = []
            allowed_purposes = _PURPOSE_RULES.get((role, permission))
            if allowed_purposes is not None:
                rule_conditions.append(cond.purpose_in(allowed_purposes))
            if role is Role.PATIENT and permission is Permission.READ_RECORD:
                rule_conditions.append(cond.own_record_only())
            if role in _CLINICAL_ROLES and permission in _TREATING_REQUIRED:
                rule_conditions.append(cond.treating_relationship())
            rules.append(
                PolicyRule(
                    rule_id=f"allow:{role.value}:{permission.value}",
                    effect=Effect.ALLOW,
                    roles=frozenset({role.value}),
                    actions=frozenset({permission.value}),
                    conditions=tuple(rule_conditions),
                    tier=Tier.ROLE,
                    reason="role {role} grants {action} for purpose {purpose}",
                )
            )
    return tuple(rules)


def compile_default_ruleset() -> tuple[PolicyRule, ...]:
    """The full engine ruleset: system override, the compiled RBAC
    rules, the consent binding deny, and the break-glass fallback."""
    return (
        PolicyRule(
            rule_id="allow:system",
            effect=Effect.ALLOW,
            conditions=(cond.actor_is_system(),),
            tier=Tier.OVERRIDE,
            reason="system principal",
        ),
        *compile_rbac_rules(),
        PolicyRule(
            rule_id="deny:consent",
            effect=Effect.DENY,
            conditions=(cond.consent_blocks(),),
            tier=Tier.BINDING,
            error="consent",
            reason="patient directive blocks disclosure",
        ),
        PolicyRule(
            rule_id="allow:break-glass",
            effect=Effect.ALLOW,
            conditions=(cond.break_glass_active(),),
            tier=Tier.FALLBACK,
            emergency=True,
            reason="active break-glass grant for {actor}",
        ),
    )


def session_ruleset() -> tuple[PolicyRule, ...]:
    """Session lifecycle policy over broker-measured facts.

    The session broker measures (token signature, expiry clock, lockout
    counter, challenge freshness) and hands the measurements in as
    context facts; these GLOBAL denies decide, in the exact order the
    legacy guard clauses checked them.  The trailing fallback allow is
    what a fully-clean request earns.
    """
    return (
        PolicyRule(
            rule_id="deny:session:unknown-user",
            effect=Effect.DENY,
            actions=frozenset({"request_challenge"}),
            conditions=(cond.fact_false("enrolled", "unknown user {actor!r}"),),
            tier=Tier.GLOBAL,
        ),
        PolicyRule(
            rule_id="deny:session:forged-token",
            effect=Effect.DENY,
            actions=frozenset({"use_session"}),
            conditions=(cond.fact_false("token_valid", "session token invalid"),),
            tier=Tier.GLOBAL,
        ),
        PolicyRule(
            rule_id="deny:session:expired",
            effect=Effect.DENY,
            actions=frozenset({"use_session"}),
            conditions=(cond.fact_true("session_expired", "session expired"),),
            tier=Tier.GLOBAL,
        ),
        PolicyRule(
            rule_id="deny:session:locked",
            effect=Effect.DENY,
            actions=frozenset({"use_session", "request_challenge", "login"}),
            conditions=(cond.fact_true("account_locked", "account {actor} is locked"),),
            tier=Tier.GLOBAL,
        ),
        PolicyRule(
            rule_id="deny:session:no-challenge",
            effect=Effect.DENY,
            actions=frozenset({"login"}),
            conditions=(
                cond.fact_false("challenge_pending", "no pending challenge for {actor!r}"),
            ),
            tier=Tier.GLOBAL,
        ),
        PolicyRule(
            rule_id="deny:session:stale-challenge",
            effect=Effect.DENY,
            actions=frozenset({"login"}),
            conditions=(cond.fact_false("challenge_fresh", "challenge expired"),),
            tier=Tier.GLOBAL,
        ),
        PolicyRule(
            rule_id="deny:session:bad-response",
            effect=Effect.DENY,
            actions=frozenset({"login"}),
            conditions=(cond.fact_false("response_valid", "authentication failed"),),
            tier=Tier.GLOBAL,
        ),
        PolicyRule(
            rule_id="allow:session:clean",
            effect=Effect.ALLOW,
            actions=frozenset({"use_session", "request_challenge", "login"}),
            tier=Tier.FALLBACK,
            reason="session checks passed for {actor}",
        ),
    )


def service_ruleset() -> tuple[PolicyRule, ...]:
    """The wire-service rulesets layered over :func:`session_ruleset`.

    The asyncio frontend (:mod:`repro.service`) measures transport
    facts — is the presented token revoked, is the actor over its
    token-bucket budget, is the admission queue full — and hands them
    here so every wire-level rejection is a policy :class:`Decision`
    with a trace the error body can return.  Session-token validity
    stays with the session rules; this set adds only what exists at
    the service boundary.
    """
    return session_ruleset() + (
        PolicyRule(
            rule_id="deny:service:revoked-token",
            effect=Effect.DENY,
            actions=frozenset({"use_session"}),
            conditions=(
                cond.fact_true(
                    "session_revoked",
                    "session token was revoked (logout or refresh rotation)",
                ),
            ),
            tier=Tier.GLOBAL,
        ),
        PolicyRule(
            rule_id="deny:service:rate-limited",
            effect=Effect.DENY,
            actions=frozenset({"admit_request"}),
            conditions=(
                cond.fact_true(
                    "rate_exceeded",
                    "actor {actor} exhausted its request-rate budget",
                ),
            ),
            tier=Tier.GLOBAL,
        ),
        PolicyRule(
            rule_id="deny:service:queue-full",
            effect=Effect.DENY,
            actions=frozenset({"admit_request"}),
            conditions=(
                cond.fact_true(
                    "queue_full",
                    "admission queue is at capacity; retry with backoff",
                ),
            ),
            tier=Tier.GLOBAL,
        ),
        PolicyRule(
            rule_id="deny:service:draining",
            effect=Effect.DENY,
            actions=frozenset({"admit_request"}),
            conditions=(
                cond.fact_true(
                    "draining",
                    "service is draining for shutdown; no new work admitted",
                ),
            ),
            tier=Tier.GLOBAL,
        ),
        PolicyRule(
            rule_id="allow:service:admit",
            effect=Effect.ALLOW,
            actions=frozenset({"admit_request"}),
            tier=Tier.FALLBACK,
            reason="request admitted for {actor}",
        ),
    )


def disposition_ruleset() -> tuple[PolicyRule, ...]:
    """Disposition lifecycle policy over workflow-measured ticket facts
    plus the live retention re-check at execution time."""
    return (
        PolicyRule(
            rule_id="deny:disposition:unidentified",
            effect=Effect.DENY,
            actions=frozenset({"approve_disposition", DESTRUCTION_ACTION}),
            conditions=(
                cond.fact_true(
                    "ticket_missing",
                    "record {resource} was never identified for disposition",
                ),
            ),
            tier=Tier.GLOBAL,
            error="disposition",
        ),
        PolicyRule(
            rule_id="deny:disposition:not-awaiting",
            effect=Effect.DENY,
            actions=frozenset({"approve_disposition"}),
            conditions=(
                cond.fact_true(
                    "ticket_not_awaiting",
                    "record {resource} is {ticket_state}, not awaiting approval",
                ),
            ),
            tier=Tier.GLOBAL,
            error="disposition",
        ),
        PolicyRule(
            rule_id="deny:disposition:anonymous-approver",
            effect=Effect.DENY,
            actions=frozenset({"approve_disposition"}),
            conditions=(
                cond.fact_false("approver_named", "approval requires a named approver"),
            ),
            tier=Tier.GLOBAL,
            error="disposition",
        ),
        PolicyRule(
            rule_id="deny:disposition:unapproved",
            effect=Effect.DENY,
            actions=frozenset({DESTRUCTION_ACTION}),
            conditions=(
                cond.fact_true(
                    "ticket_not_approved",
                    "record {resource} must be approved before destruction "
                    "(state: {ticket_state})",
                ),
            ),
            tier=Tier.GLOBAL,
            error="disposition",
        ),
        PolicyRule(
            rule_id="deny:disposition:retention",
            effect=Effect.DENY,
            actions=frozenset({DESTRUCTION_ACTION}),
            conditions=(cond.retention_blocked(),),
            tier=Tier.GLOBAL,
            error="retention",
        ),
        PolicyRule(
            rule_id="allow:disposition:clean",
            effect=Effect.ALLOW,
            actions=frozenset({"approve_disposition", DESTRUCTION_ACTION}),
            tier=Tier.FALLBACK,
            reason="disposition lifecycle checks passed for {resource}",
        ),
    )


def breakglass_ruleset() -> tuple[PolicyRule, ...]:
    """Break-glass invocation policy: the justification gate, then the
    emergency allow.  Grant bookkeeping stays in the controller."""
    return (
        PolicyRule(
            rule_id="deny:break-glass:thin-justification",
            effect=Effect.DENY,
            actions=frozenset({"invoke_break_glass"}),
            conditions=(
                cond.fact_false(
                    "substantive_justification",
                    "break-glass requires a substantive justification (>= 10 chars)",
                ),
            ),
            tier=Tier.GLOBAL,
        ),
        PolicyRule(
            rule_id="allow:break-glass:invoke",
            effect=Effect.ALLOW,
            actions=frozenset({"invoke_break_glass"}),
            tier=Tier.FALLBACK,
            emergency=True,
            reason="break-glass invocation by {actor} with documented justification",
        ),
    )


def default_purpose_for(user: User) -> Purpose:
    """Infer the purpose of use a caller most plausibly means when they
    did not state one — the role-keyed table that used to live inline
    in the core engine's ``_default_purpose``."""
    if user.has_role(Role.BILLING):
        return Purpose.PAYMENT
    if user.has_role(Role.RESEARCHER):
        return Purpose.RESEARCH
    if user.has_role(Role.PRIVACY_OFFICER):
        return Purpose.OPERATIONS
    if user.roles == frozenset({Role.PATIENT}):
        return Purpose.PATIENT_REQUEST
    return Purpose.TREATMENT
