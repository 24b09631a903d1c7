"""The declarative policy model: rules, conditions, and decisions.

Access control in this codebase used to be four ad-hoc layers (RBAC
capability tables, consent registry lookups, treating-relationship
checks inlined in the engine, break-glass special-casing) scattered
across a dozen modules.  This package replaces the *decision logic* of
all of them with one declarative vocabulary:

* a :class:`PolicyRule` names an effect (allow/deny), the roles,
  actions, and resources it covers (``*`` wildcards supported), the
  :class:`Condition` predicates that must hold for it to match, and the
  :class:`Tier` it evaluates in;
* the :class:`~repro.policy.engine.PolicyEngine` evaluates a request
  against an indexed ruleset with **deny-overrides** combining and
  returns a :class:`Decision` carrying a :class:`RuleTrace` for every
  rule consulted — HIPAA audits ask *why*, not just *whether*;
* the registries that hold mutable state (consent directives,
  break-glass grants, retention terms) stay where they are; conditions
  consult them through the engine's environment.  Policy is the single
  place an allow-or-deny happens; the registries only answer facts.

Tiers encode the precedence the legacy layers implemented implicitly:

``OVERRIDE``
    unconditional-trust allows (the ``system`` principal) — checked
    first, short-circuits everything;
``GLOBAL``
    actor-independent denies (e.g. session facts) — deny-overrides at
    its strongest;
``ROLE``
    the per-role capability/purpose/relationship rules.  Roles are
    visited in sorted order; within a role, DENY rules evaluate before
    ALLOW rules (deny-overrides), and the first role to earn an ALLOW
    wins (a multi-role user holds the union of their roles' grants);
``BINDING``
    denies evaluated *against the role that just won* — consent
    directives block disclosure to the deciding role, so they can only
    be checked after role selection;
``FALLBACK``
    allows consulted only when no role earned access and no global deny
    fired — break-glass: the emergency override rescues a role-pass
    denial and never overrides a global deny.  Consent binds only a role
    that won the role pass, so a live grant *does* rescue a request a
    directive blocks whenever no role of the actor passed on its own.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Any, Callable, Mapping, NamedTuple

from repro.errors import (
    AccessDeniedError,
    ConfigurationError,
    ConsentError,
    CuratorError,
    DispositionError,
    RetentionError,
)
from repro.records.ids import policy_class

WILDCARD = "*"

#: The action name under which destruction is authorized; the shredder
#: and the WORM store accept only decisions made for it (see
#: :func:`ensure_destruction_authorized`).
DESTRUCTION_ACTION = "execute_disposition"

#: The action under which an emergency (break-glass) grant is invoked.
BREAK_GLASS_ACTION = "invoke_break_glass"


class Effect(enum.Enum):
    """What a matching rule does to the request."""

    ALLOW = "allow"
    DENY = "deny"


class Tier(enum.IntEnum):
    """Evaluation phases, in precedence order (see module docstring)."""

    OVERRIDE = 0
    GLOBAL = 1
    ROLE = 2
    BINDING = 3
    FALLBACK = 4


# Deny rules tag which error class their denial raises; ``require()``
# maps the tag back so call sites keep their exception contracts
# (consent denials are ConsentError, disposition shortcuts are
# DispositionError, retention blocks are RetentionError).
_ERROR_CLASSES: dict[str, type[CuratorError]] = {
    "access": AccessDeniedError,
    "consent": ConsentError,
    "disposition": DispositionError,
    "retention": RetentionError,
}


@dataclass(frozen=True)
class PolicyContext:
    """The circumstances of one request, as facts.

    ``purpose``/``patient_id``/``own_record`` are what the role-tier
    rules read; ``facts`` carries caller-computed booleans/values for
    domains where the mechanism layer measures and the policy layer
    decides (session token validity, disposition ticket state, ...).
    """

    purpose: Any = None
    patient_id: str = ""
    own_record: bool = False
    facts: Mapping[str, Any] = field(default_factory=dict)

    def fact(self, name: str, default: Any = None) -> Any:
        return self.facts.get(name, default)


class CheckResult(NamedTuple):
    """One condition evaluation: did it hold, and why."""

    ok: bool
    detail: str


@dataclass(frozen=True)
class Condition:
    """A named predicate over (actor, role, action, resource, context,
    environment).  ``check`` returns a :class:`CheckResult`; its
    ``detail`` becomes the denial reason when an ALLOW rule fails the
    condition, or the deny reason when a DENY rule matches on it."""

    name: str
    check: Callable[..., CheckResult]

    def __call__(
        self, actor: Any, role: Any, action: str, resource: str, context: PolicyContext, env: Any
    ) -> CheckResult:
        return self.check(actor, role, action, resource, context, env)


@dataclass(frozen=True)
class PolicyRule:
    """One declarative rule (see module docstring for tier semantics).

    ``roles``/``actions`` are sets of value strings (``Role.value`` /
    ``Permission.value`` or domain actions like ``use_session``);
    ``resources`` are ``fnmatch`` patterns matched against both the
    full resource id and its resource class.  ``reason`` is a
    ``str.format`` template rendered with ``role``, ``action``,
    ``purpose``, ``actor``, and ``resource`` when the rule decides and
    no condition supplied a more specific detail.
    """

    rule_id: str
    effect: Effect
    roles: frozenset[str] = frozenset({WILDCARD})
    actions: frozenset[str] = frozenset({WILDCARD})
    resources: tuple[str, ...] = (WILDCARD,)
    conditions: tuple[Condition, ...] = ()
    tier: Tier = Tier.ROLE
    reason: str = ""
    error: str = "access"
    emergency: bool = False

    def __post_init__(self) -> None:
        if not self.rule_id:
            raise ConfigurationError("policy rules require a rule_id")
        if self.error not in _ERROR_CLASSES:
            raise ConfigurationError(
                f"rule {self.rule_id}: unknown error class {self.error!r} "
                f"(known: {sorted(_ERROR_CLASSES)})"
            )
        object.__setattr__(self, "roles", frozenset(self.roles))
        object.__setattr__(self, "actions", frozenset(self.actions))
        object.__setattr__(self, "resources", tuple(self.resources))
        object.__setattr__(self, "conditions", tuple(self.conditions))

    # -- matching ----------------------------------------------------------

    def matches_role(self, role_value: str) -> bool:
        return WILDCARD in self.roles or role_value in self.roles

    def matches_action(self, action_value: str) -> bool:
        return WILDCARD in self.actions or action_value in self.actions

    def matches_resource(self, resource_cls: str, resource: str) -> bool:
        for pattern in self.resources:
            if pattern == WILDCARD:
                return True
            if fnmatchcase(resource, pattern) or fnmatchcase(resource_cls, pattern):
                return True
        return False

    def render_reason(
        self,
        *,
        role: str = "",
        action: str = "",
        purpose: str = "",
        actor: str = "",
        resource: str = "",
    ) -> str:
        if not self.reason:
            return f"rule {self.rule_id} ({self.effect.value})"
        return self.reason.format(
            role=role, action=action, purpose=purpose, actor=actor, resource=resource
        )


@dataclass(frozen=True)
class RuleTrace:
    """One consulted rule: did it match, and what did it say."""

    rule_id: str
    effect: str
    matched: bool
    detail: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule_id,
            "effect": self.effect,
            "matched": self.matched,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class Decision:
    """An explainable allow/deny, with the full consultation trace.

    ``rule_id`` names the deciding rule (``default:deny`` when nothing
    matched), ``reason`` is the human sentence the audit trail records,
    ``role_used`` is the role the decision bound to (the role consent
    was checked against, on the allow path), and ``trace`` lists every
    rule consulted in evaluation order.
    """

    allowed: bool
    rule_id: str
    reason: str
    role_used: Any = None
    trace: tuple[RuleTrace, ...] = ()
    emergency: bool = False
    error: str = "access"
    action: str = ""
    resource: str = ""

    def __bool__(self) -> bool:
        return self.allowed

    def exception(self) -> CuratorError:
        """The exception a denial raises (typed by the deciding rule).

        The decision rides along as ``exc.decision`` so boundary layers
        (the wire API) can return the rule id and consultation trace in
        structured error bodies without re-deciding the request.
        """
        exc = _ERROR_CLASSES[self.error](self.reason)
        exc.decision = self  # type: ignore[attr-defined]
        return exc

    def require(self) -> "Decision":
        """Raise the typed denial unless allowed; returns self."""
        if not self.allowed:
            raise self.exception()
        return self

    def trace_dicts(self) -> list[dict[str, Any]]:
        return [entry.to_dict() for entry in self.trace]

    def to_audit_detail(self) -> dict[str, Any]:
        """The decision as the audit chain records it: the deciding rule
        id, the full trace, and the reason sentence, under ``rule`` on a
        grant and ``reason`` on a denial (a break-glass grant has none)."""
        detail: dict[str, Any] = {"rule_id": self.rule_id, "trace": self.trace_dicts()}
        if not (self.allowed and self.emergency):
            detail["rule" if self.allowed else "reason"] = self.reason
        return detail

    def explain(self) -> str:
        """A human-readable rendering of the decision path."""
        verdict = "ALLOW" if self.allowed else "DENY"
        if self.emergency:
            verdict += " (emergency)"
        lines = [
            f"{verdict}: {self.reason}",
            f"  deciding rule: {self.rule_id}",
        ]
        if self.role_used is not None:
            role = getattr(self.role_used, "value", str(self.role_used))
            lines.append(f"  role bound:    {role}")
        lines.append("  rules consulted:")
        for entry in self.trace:
            mark = "✓" if entry.matched else "·"
            suffix = f" — {entry.detail}" if entry.detail else ""
            lines.append(f"    {mark} [{entry.effect}] {entry.rule_id}{suffix}")
        if not self.trace:
            lines.append("    (none matched the request shape)")
        return "\n".join(lines)


def resource_class(resource: str) -> str:
    """The coarse class of a resource id (``record``, ``session``, ...),
    which rule resource patterns match besides the full id."""
    return policy_class(resource) if resource else WILDCARD


def ensure_destruction_authorized(authorization: Any, object_id: str) -> Decision:
    """The destruction choke point: the shredder and the WORM store
    refuse to act unless handed an *allow* :class:`Decision` made for
    :data:`DESTRUCTION_ACTION` covering this object — the policy-traced
    replacement for the old ``authorized=True`` boolean, which any call
    site could forge without leaving a decision trail."""
    if (
        not isinstance(authorization, Decision)
        or not authorization.allowed
        or authorization.action != DESTRUCTION_ACTION
        or authorization.resource not in (object_id, WILDCARD, "")
    ):
        raise DispositionError(
            f"shredding {object_id} requires disposition authorization"
        )
    return authorization
