"""Built-in condition predicates.

Each factory returns a :class:`~repro.policy.model.Condition` whose
``check`` inspects the actor, the bound role, the request context, and
the engine environment, and answers two things: does the condition
hold, and why (the detail becomes the denial reason when an ALLOW rule
fails it, or the deny reason when a DENY rule matches on it).  Every
check reads the live registries on every call; nothing is remembered.

The predicates deliberately avoid importing the RBAC vocabulary:
purposes are compared by their ``.value`` strings so this module stays
below :mod:`repro.access` in the import graph.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ConsentError, RetentionError
from repro.policy.model import CheckResult, Condition, PolicyContext

_EMERGENCY = "emergency"


def _purpose_value(context: PolicyContext) -> str:
    purpose = context.purpose
    if purpose is None:
        return ""
    return getattr(purpose, "value", str(purpose))


def actor_is_system() -> Condition:
    """The unconditional-trust override: the ``system`` principal."""

    def check(actor, role, action, resource, context, env) -> CheckResult:
        actor_id = getattr(actor, "user_id", None) or str(actor)
        return CheckResult(actor_id == "system", "system principal")

    return Condition("actor_is_system", check)


def purpose_in(allowed: frozenset) -> Condition:
    """Purpose-of-use restriction for a (role, action) pair."""

    allowed = frozenset(allowed)
    sorted_values = sorted(getattr(p, "value", str(p)) for p in allowed)

    def check(actor, role, action, resource, context, env) -> CheckResult:
        if context.purpose in allowed:
            return CheckResult(True, "")
        role_value = getattr(role, "value", str(role))
        return CheckResult(
            False,
            f"role {role_value} may use {action} only for "
            f"{sorted_values}, not {_purpose_value(context)}",
        )

    return Condition("purpose_in", check)


def own_record_only() -> Condition:
    """Patients reach only their own chart."""

    def check(actor, role, action, resource, context, env) -> CheckResult:
        if context.own_record:
            return CheckResult(True, "")
        return CheckResult(False, "patients may only read their own records")

    return Condition("own_record_only", check)


def treating_relationship() -> Condition:
    """Clinical access to an identified record requires an active
    treating relationship — unless the stated purpose is emergency
    (the in-band emergency path; break-glass is the out-of-band one)."""

    def check(actor, role, action, resource, context, env) -> CheckResult:
        is_treating = getattr(actor, "is_treating", None)
        if (
            not context.patient_id
            or _purpose_value(context) == _EMERGENCY
            or (is_treating is not None and is_treating(context.patient_id))
        ):
            return CheckResult(True, "")
        actor_id = getattr(actor, "user_id", None) or str(actor)
        return CheckResult(
            False,
            f"{actor_id} has no treating relationship with "
            f"patient {context.patient_id}",
        )

    return Condition("treating_relationship", check)


def consent_blocks() -> Condition:
    """Matches when a patient directive blocks disclosure to the bound
    role for the stated purpose.  Binding-tier: evaluated against the
    role that won the role pass, exactly as the legacy engine checked
    consent only against the deciding role."""

    def check(actor, role, action, resource, context, env) -> CheckResult:
        consent = getattr(env, "consent", None)
        if (
            consent is None
            or not context.patient_id
            or role is None
            or context.purpose is None
        ):
            return CheckResult(False, "")
        try:
            consent.check_disclosure(context.patient_id, role, context.purpose)
        except ConsentError as exc:
            return CheckResult(True, str(exc))
        return CheckResult(False, "")

    return Condition("consent_blocks", check)


def break_glass_active() -> Condition:
    """Matches when an unexpired break-glass grant covers (actor,
    patient) right now.  Fallback-tier: rescues a role-pass denial —
    even one a consent directive covers, as consent binds only a role
    that won — but never a global deny."""

    def check(actor, role, action, resource, context, env) -> CheckResult:
        controller = getattr(env, "breakglass", None)
        if controller is None or not context.patient_id:
            return CheckResult(False, "")
        actor_id = getattr(actor, "user_id", None) or str(actor)
        if controller.has_active_grant(actor_id, context.patient_id):
            return CheckResult(
                True,
                f"active break-glass grant for {actor_id} "
                f"on patient {context.patient_id}",
            )
        return CheckResult(False, "")

    return Condition("break_glass_active", check)


def retention_blocked() -> Condition:
    """Matches when the environment's retention lock forbids deleting
    the resource right now; the detail is the lock's own message (term
    unexpired, litigation hold)."""

    def check(actor, role, action, resource, context, env) -> CheckResult:
        retention = getattr(env, "retention", None)
        clock = getattr(env, "clock", None)
        if retention is None or clock is None:
            return CheckResult(False, "")
        try:
            retention.check_deletable(resource, clock.now())
        except RetentionError as exc:
            return CheckResult(True, str(exc))
        return CheckResult(False, "")

    return Condition("retention_blocked", check)


def _render_fact_detail(
    template: str, actor: Any, resource: str, context: PolicyContext
) -> str:
    actor_id = getattr(actor, "user_id", None) or str(actor)
    try:
        return template.format(actor=actor_id, resource=resource, **dict(context.facts))
    except (KeyError, IndexError):
        return template


def fact_true(name: str, detail: str = "") -> Condition:
    """Matches when the named context fact is truthy.  ``detail`` is a
    format template over ``actor``, ``resource``, and every fact."""

    def check(actor, role, action, resource, context, env) -> CheckResult:
        ok = bool(context.fact(name))
        return CheckResult(ok, _render_fact_detail(detail, actor, resource, context))

    return Condition(f"fact_true:{name}", check)


def fact_false(name: str, detail: str = "") -> Condition:
    """Matches when the named context fact is falsy."""

    def check(actor, role, action, resource, context, env) -> CheckResult:
        ok = not context.fact(name)
        return CheckResult(ok, _render_fact_detail(detail, actor, resource, context))

    return Condition(f"fact_false:{name}", check)
