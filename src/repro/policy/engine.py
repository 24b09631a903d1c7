"""The indexed policy engine: one entry point for every allow-or-deny.

``decide(actor, action, resource, context)`` evaluates the ruleset in
tier order (see :mod:`repro.policy.model`) and returns an explainable
:class:`~repro.policy.model.Decision`, evaluating in the order below
(the golden ``tests/policy/decision_table.json`` pins the result for
every tuple of the shipped rulesets' decision space):

1. **OVERRIDE allows** — the ``system`` principal short-circuits;
2. **GLOBAL denies** — actor-independent denies fire before any role
   is consulted;
3. **ROLE pass** — the actor's roles in sorted order; within a role,
   DENY rules before ALLOW rules (deny-overrides), first role to earn
   an ALLOW wins (union-of-roles semantics).  A role whose ALLOW rule
   fails a condition contributes a *bound denial*; the last bound
   denial becomes the default-deny reason, mirroring the legacy
   "most specific denial" selection;
4. **BINDING denies** — evaluated with the winning role bound (consent
   directives block the deciding role);
5. **FALLBACK allows** — break-glass: consulted only when no role won
   and no global/binding deny fired.

Nothing is cached: every request is decided from the rules and the
live registries its conditions consult, so a decision can never
outlive the state it was made from and there is nothing to purge.  The
only memo is the (role, action) -> rules index, which depends on the
rules alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.errors import ConfigurationError
from repro.policy.model import (
    Decision,
    Effect,
    PolicyContext,
    PolicyRule,
    RuleTrace,
    Tier,
    resource_class,
)


@dataclass
class PolicyEnv:
    """The mutable registries conditions may consult.  All optional:
    an engine with no environment simply never matches the conditions
    that need one (a pure-RBAC engine, the session engine, ...)."""

    consent: Any = None
    breakglass: Any = None
    retention: Any = None
    clock: Any = None


class PolicyEngine:
    """Evaluates a fixed ruleset against requests (see module docstring).

    The ruleset is immutable after construction — mutation happens in
    the registries the environment points at, never in the rules — so
    every engine shares one declared ruleset (:mod:`repro.policy.rules`)
    while binding its own environment.
    """

    def __init__(self, rules: Sequence[PolicyRule], env: PolicyEnv | None = None) -> None:
        self._rules = tuple(rules)
        seen: set[str] = set()
        for rule in self._rules:
            if rule.rule_id in seen:
                raise ConfigurationError(f"duplicate policy rule id {rule.rule_id!r}")
            seen.add(rule.rule_id)
        self._env = env or PolicyEnv()
        self._overrides = self._tier(Tier.OVERRIDE, Effect.ALLOW)
        self._global_denies = self._tier(Tier.GLOBAL, Effect.DENY)
        self._role_rules = self._tier(Tier.ROLE)
        self._binding_denies = self._tier(Tier.BINDING, Effect.DENY)
        self._fallback_allows = self._tier(Tier.FALLBACK, Effect.ALLOW)
        # (role value, action value) -> matching role-tier rules, DENY
        # first (deny-overrides within a role), memoized on first use —
        # the vocabulary of (role, action) pairs is small and fixed.
        self._role_index: dict[tuple[str, str], tuple[PolicyRule, ...]] = {}

    # -- introspection -----------------------------------------------------

    @property
    def env(self) -> PolicyEnv:
        return self._env

    # -- evaluation --------------------------------------------------------

    def decide(
        self,
        actor: Any,
        action: Any,
        resource: str = "",
        context: PolicyContext | None = None,
    ) -> Decision:
        """Evaluate one request; never raises on denial — callers that
        want the exception use ``decide(...).require()``."""
        action_value = getattr(action, "value", None) or str(action)
        ctx = context if context is not None else PolicyContext()
        actor_id = getattr(actor, "user_id", None) or str(actor)
        roles = sorted(
            getattr(actor, "roles", ()) or (), key=lambda r: getattr(r, "value", str(r))
        )
        rcls = resource_class(resource)
        purpose_value = (
            getattr(ctx.purpose, "value", str(ctx.purpose)) if ctx.purpose else ""
        )
        trace: list[RuleTrace] = []

        def consult(rule: PolicyRule, role: Any) -> tuple[bool, str]:
            ok, detail = True, ""
            for condition in rule.conditions:
                ok, detail = condition(actor, role, action_value, resource, ctx, self._env)
                if not ok:
                    break
            trace.append(RuleTrace(rule.rule_id, rule.effect.value, ok, detail))
            return ok, detail

        def reason(rule: PolicyRule, detail: str, role: Any) -> str:
            return detail or rule.render_reason(
                role=getattr(role, "value", str(role)) if role is not None else "",
                action=action_value,
                purpose=purpose_value,
                actor=actor_id,
            )

        def decided(rule: PolicyRule, detail: str, role: Any = None) -> Decision:
            """The decision *rule* makes, bound to *role* if one won."""
            return Decision(
                allowed=rule.effect is Effect.ALLOW,
                rule_id=rule.rule_id,
                reason=reason(rule, detail, role),
                role_used=role,
                trace=tuple(trace),
                emergency=rule.emergency,
                error=rule.error,
                action=action_value,
                resource=resource,
            )

        # 1. override allows (the system principal), 2. global denies
        for rule in (
            *self._applicable(self._overrides, action_value, rcls, resource),
            *self._applicable(self._global_denies, action_value, rcls, resource),
        ):
            ok, detail = consult(rule, None)
            if ok:
                return decided(rule, detail)

        # 3. the role pass
        winner: tuple[Any, PolicyRule, str] | None = None
        bound_denials: list[tuple[Any, str]] = []
        for role in roles:
            denial_detail = ""
            for rule in self._rules_for(getattr(role, "value", str(role)), action_value):
                if not rule.matches_resource(rcls, resource):
                    continue
                ok, detail = consult(rule, role)
                if rule.effect is Effect.DENY:
                    if ok:
                        denial_detail = reason(rule, detail, role)
                        break
                elif ok:
                    winner = (role, rule, detail)
                    break
                elif detail:
                    denial_detail = detail
            if winner is not None:
                break
            if denial_detail:
                bound_denials.append((role, denial_detail))

        if winner is not None:
            role, rule, detail = winner
            # 4. binding denies, evaluated against the winning role
            for brule in self._applicable(self._binding_denies, action_value, rcls, resource):
                ok, bdetail = consult(brule, role)
                if ok:
                    return decided(brule, bdetail, role)
            return decided(rule, detail, role)

        # 5. fallback allows (break-glass)
        for rule in self._applicable(self._fallback_allows, action_value, rcls, resource):
            ok, detail = consult(rule, None)
            if ok:
                return decided(rule, detail)

        # default deny: the last *bound* denial is the most specific
        # reason (mirrors the legacy best-denial selection)
        role, denial = bound_denials[-1] if bound_denials else (
            None, f"no role of {actor_id} grants {action_value}"
        )
        return Decision(
            allowed=False,
            rule_id="default:deny",
            reason=denial,
            role_used=role,
            trace=tuple(trace),
            action=action_value,
            resource=resource,
        )

    # -- indexing ----------------------------------------------------------

    def _tier(self, tier: Tier, effect: Effect | None = None) -> tuple[PolicyRule, ...]:
        return tuple(
            rule
            for rule in self._rules
            if rule.tier is tier and (effect is None or rule.effect is effect)
        )

    @staticmethod
    def _applicable(
        rules: Iterable[PolicyRule], action_value: str, rcls: str, resource: str
    ) -> Iterable[PolicyRule]:
        for rule in rules:
            if rule.matches_action(action_value) and rule.matches_resource(
                rcls, resource
            ):
                yield rule

    def _rules_for(self, role_value: str, action_value: str) -> tuple[PolicyRule, ...]:
        key = (role_value, action_value)
        cached = self._role_index.get(key)
        if cached is None:
            matching = [
                rule
                for rule in self._role_rules
                if rule.matches_role(role_value) and rule.matches_action(action_value)
            ]
            cached = tuple(
                sorted(matching, key=lambda rule: rule.effect is not Effect.DENY)
            )
            self._role_index[key] = cached
        return cached
