"""The shipped rulesets, declared.

Every rule an engine decides with is a row of one of the module
constants below, in the ``PolicyRule`` idiom of pytaskforce and the
policy tuples of casbin: ``allow(role, permission, *conditions)`` is one
capability of one role.  Nothing compiles or generates them, so every
shard, worker process and front door shares the same rules by
construction.  ``tests/policy/decision_table.json`` pins the decision of
every tuple of their decision space, and ``repro policy lint``
(:mod:`repro.policy.lint`) checks that space for dead rules and broken
invariants.

* :data:`DEFAULT_RULES` — record access: the system principal, the role
  capabilities with their purpose / own-record / treating restrictions,
  the consent binding deny and the break-glass fallback;
* :data:`SESSION_RULES` and :data:`SERVICE_RULES` — the session
  lifecycle and wire admission, over broker- and frontend-measured facts;
* :data:`DISPOSITION_RULES` — the disposition lifecycle over ticket
  facts, plus the live retention re-check;
* :data:`BREAKGLASS_RULES` — break-glass invocation.
"""

from __future__ import annotations

from typing import Iterable

from repro.access.principals import Role, User
from repro.access.rbac import Permission, Purpose
from repro.policy.conditions import (
    actor_is_system,
    break_glass_active,
    consent_blocks,
    fact_false,
    fact_true,
    own_record_only,
    purpose_in,
    retention_blocked,
    treating_relationship,
)
from repro.policy.model import (
    BREAK_GLASS_ACTION,
    DESTRUCTION_ACTION,
    WILDCARD,
    Condition,
    Effect,
    PolicyRule,
    Tier,
)

ANY = {WILDCARD}
SESSION_ACTIONS = {"use_session", "request_challenge", "login"}
DISPOSITION_ACTIONS = {"approve_disposition", DESTRUCTION_ACTION}


def allow(role: Role, permission: Permission, *conditions: Condition) -> PolicyRule:
    """A capability: *role* may take *permission* when every condition
    holds (checked in order)."""
    return PolicyRule(f"allow:{role.value}:{permission.value}", Effect.ALLOW,
                      roles={role.value}, actions={permission.value}, conditions=conditions,
                      reason="role {role} grants {action} for purpose {purpose}")


def deny(rule_id: str, actions: Iterable[str], condition: Condition,
         tier: Tier = Tier.GLOBAL, error: str = "access") -> PolicyRule:
    """A deny that decides whenever *condition* holds; the condition's
    detail is the reason."""
    return PolicyRule(rule_id, Effect.DENY, actions=actions, conditions=(condition,),
                      tier=tier, error=error)


def permit(rule_id: str, actions: Iterable[str], *conditions: Condition,
           tier: Tier = Tier.FALLBACK, reason: str = "", emergency: bool = False) -> PolicyRule:
    """An allow outside the role pass: the system override, or the
    fallback a request earns when no deny fired."""
    return PolicyRule(rule_id, Effect.ALLOW, actions=actions, conditions=conditions,
                      tier=tier, reason=reason, emergency=emergency)


DEFAULT_RULES = (
    permit("allow:system", ANY, actor_is_system(), tier=Tier.OVERRIDE),
    allow(Role.BILLING, Permission.READ_RECORD, purpose_in({Purpose.PAYMENT})),
    allow(Role.BILLING, Permission.SEARCH_RECORDS, purpose_in({Purpose.PAYMENT})),
    allow(Role.MEDIA_TECHNICIAN, Permission.MANAGE_MEDIA),
    allow(Role.NURSE, Permission.CREATE_RECORD),
    allow(Role.NURSE, Permission.READ_RECORD, treating_relationship()),
    allow(Role.NURSE, Permission.SEARCH_RECORDS),
    allow(Role.PATIENT, Permission.READ_RECORD, purpose_in({Purpose.PATIENT_REQUEST}), own_record_only()),
    allow(Role.PHYSICIAN, Permission.CORRECT_RECORD, treating_relationship()),
    allow(Role.PHYSICIAN, Permission.CREATE_RECORD),
    allow(Role.PHYSICIAN, Permission.READ_RECORD, treating_relationship()),
    allow(Role.PHYSICIAN, Permission.SEARCH_RECORDS),
    allow(Role.PRIVACY_OFFICER, Permission.MANAGE_CONSENT),
    allow(Role.PRIVACY_OFFICER, Permission.READ_AUDIT_TRAIL),
    allow(Role.PRIVACY_OFFICER, Permission.READ_RECORD),
    allow(Role.PRIVACY_OFFICER, Permission.SEARCH_RECORDS),
    allow(Role.RESEARCHER, Permission.EXPORT_DEIDENTIFIED, purpose_in({Purpose.RESEARCH})),
    allow(Role.RESEARCHER, Permission.SEARCH_RECORDS, purpose_in({Purpose.RESEARCH})),
    allow(Role.SYSTEM_ADMIN, Permission.MANAGE_BACKUP),
    allow(Role.SYSTEM_ADMIN, Permission.MANAGE_MEDIA),
    allow(Role.SYSTEM_ADMIN, Permission.MANAGE_RETENTION),
    allow(Role.SYSTEM_ADMIN, Permission.RUN_MIGRATION),
    deny("deny:consent", ANY, consent_blocks(), Tier.BINDING, error="consent"),
    permit("allow:break-glass", ANY, break_glass_active(), emergency=True),
)

# The broker measures (token signature, expiry clock, lockout counter,
# challenge freshness); these denies decide, in the order the session
# guard clauses always checked them.
SESSION_RULES = (
    deny("deny:session:unknown-user", {"request_challenge"},
         fact_false("enrolled", "unknown user {actor!r}")),
    deny("deny:session:forged-token", {"use_session"},
         fact_false("token_valid", "session token invalid")),
    deny("deny:session:expired", {"use_session"},
         fact_true("session_expired", "session expired")),
    deny("deny:session:locked", SESSION_ACTIONS,
         fact_true("account_locked", "account {actor} is locked")),
    deny("deny:session:no-challenge", {"login"},
         fact_false("challenge_pending", "no pending challenge for {actor!r}")),
    deny("deny:session:stale-challenge", {"login"},
         fact_false("challenge_fresh", "challenge expired")),
    deny("deny:session:bad-response", {"login"},
         fact_false("response_valid", "authentication failed")),
    permit("allow:session:clean", SESSION_ACTIONS, reason="session checks passed for {actor}"),
)

# What exists only at the wire boundary: a revoked token, an actor over
# its rate budget, a full admission queue, a draining server.
SERVICE_RULES = SESSION_RULES + (
    deny("deny:service:revoked-token", {"use_session"},
         fact_true("session_revoked", "session token was revoked (logout or refresh rotation)")),
    deny("deny:service:rate-limited", {"admit_request"},
         fact_true("rate_exceeded", "actor {actor} exhausted its request-rate budget")),
    deny("deny:service:queue-full", {"admit_request"},
         fact_true("queue_full", "admission queue is at capacity; retry with backoff")),
    deny("deny:service:draining", {"admit_request"},
         fact_true("draining", "service is draining for shutdown; no new work admitted")),
    permit("allow:service:admit", {"admit_request"}, reason="request admitted for {actor}"),
)

DISPOSITION_RULES = (
    deny("deny:disposition:unidentified", DISPOSITION_ACTIONS,
         fact_true("ticket_missing", "record {resource} was never identified for disposition"),
         error="disposition"),
    deny("deny:disposition:not-awaiting", {"approve_disposition"},
         fact_true("ticket_not_awaiting",
                   "record {resource} is {ticket_state}, not awaiting approval"),
         error="disposition"),
    deny("deny:disposition:anonymous-approver", {"approve_disposition"},
         fact_false("approver_named", "approval requires a named approver"),
         error="disposition"),
    deny("deny:disposition:unapproved", {DESTRUCTION_ACTION},
         fact_true("ticket_not_approved", "record {resource} must be approved before "
                   "destruction (state: {ticket_state})"),
         error="disposition"),
    deny("deny:disposition:retention", {DESTRUCTION_ACTION}, retention_blocked(),
         error="retention"),
    permit("allow:disposition:clean", DISPOSITION_ACTIONS,
           reason="disposition lifecycle checks passed for {resource}"),
)

# The justification gate, then the emergency allow; grant bookkeeping
# stays in the controller.
BREAKGLASS_RULES = (
    deny("deny:break-glass:thin-justification", {BREAK_GLASS_ACTION},
         fact_false("substantive_justification",
                    "break-glass requires a substantive justification (>= 10 chars)")),
    permit("allow:break-glass:invoke", {BREAK_GLASS_ACTION}, emergency=True,
           reason="break-glass invocation by {actor} with documented justification"),
)

#: Every shipped ruleset by name: what ``repro policy lint`` checks and
#: the golden decision table pins.
RULESETS = {
    "default": DEFAULT_RULES,
    "session": SESSION_RULES,
    "service": SERVICE_RULES,
    "disposition": DISPOSITION_RULES,
    "break-glass": BREAKGLASS_RULES,
}


def default_purpose_for(user: User) -> Purpose:
    """The purpose of use a caller most plausibly means when they state
    none, from their roles."""
    if user.has_role(Role.BILLING):
        return Purpose.PAYMENT
    if user.has_role(Role.RESEARCHER):
        return Purpose.RESEARCH
    if user.has_role(Role.PRIVACY_OFFICER):
        return Purpose.OPERATIONS
    if user.roles == frozenset({Role.PATIENT}):
        return Purpose.PATIENT_REQUEST
    return Purpose.TREATMENT
