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

Decisions are cached per (system-flag, role set, action, resource
class, purpose, patient-present, own-record) — but only when every
condition consulted reported itself cacheable, so anything touching
mutable registries (treating sets, consent, break-glass grants) or
call-scoped facts is always re-evaluated.  :meth:`PolicyEngine.
purge_decisions` drops the cache; the secure shredder calls it after
every destruction (a purged record must not keep answering from
memory), and it is safe to call on any registry mutation.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
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
from repro.util.metrics import METRICS

#: Cached decisions per engine; the least recently used is evicted first.
CACHE_SIZE = 1024


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
        self._cache_size = CACHE_SIZE
        self._cache: OrderedDict[tuple, Decision] = OrderedDict()

    # -- introspection -----------------------------------------------------

    @property
    def env(self) -> PolicyEnv:
        return self._env

    def cache_info(self) -> dict[str, int]:
        return {"entries": len(self._cache), "capacity": self._cache_size}

    def purge_decisions(self) -> int:
        """Drop every cached decision; returns how many were dropped.
        Wired to the secure shredder (decisions about purged state must
        not outlive it) and safe to call on any registry mutation."""
        dropped = len(self._cache)
        self._cache.clear()
        if dropped:
            METRICS.incr("policy_cache_purged", dropped)
        return dropped

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

        cache_key = None
        if self._cache_size and not ctx.facts:
            cache_key = (
                actor_id == "system",
                frozenset(getattr(r, "value", str(r)) for r in roles),
                action_value,
                rcls,
                ctx.purpose,
                bool(ctx.patient_id),
                ctx.own_record,
            )
            hit = self._cache.get(cache_key)
            if hit is not None:
                self._cache.move_to_end(cache_key)
                METRICS.incr("policy_cache_hits")
                return replace(hit, resource=resource)
        METRICS.incr("policy_cache_misses")

        trace: list[RuleTrace] = []
        cacheable = True

        def consult(rule: PolicyRule, role: Any) -> tuple[bool, str]:
            nonlocal cacheable
            ok, detail = True, ""
            for condition in rule.conditions:
                result = condition(actor, role, action_value, resource, ctx, self._env)
                cacheable = cacheable and result.cacheable
                detail = result.detail
                if not result.ok:
                    ok = False
                    break
            trace.append(RuleTrace(rule.rule_id, rule.effect.value, ok, detail))
            return ok, detail

        def finish(decision: Decision) -> Decision:
            decision = replace(
                decision,
                trace=tuple(trace),
                action=action_value,
                resource=resource,
            )
            if cache_key is not None and cacheable:
                self._cache[cache_key] = decision
                if len(self._cache) > self._cache_size:
                    self._cache.popitem(last=False)
            return decision

        purpose_value = (
            getattr(ctx.purpose, "value", str(ctx.purpose)) if ctx.purpose else ""
        )

        # 1. override allows (the system principal)
        for rule in self._applicable(self._overrides, action_value, rcls, resource):
            ok, detail = consult(rule, None)
            if ok:
                return finish(
                    Decision(
                        allowed=True,
                        rule_id=rule.rule_id,
                        reason=detail
                        or rule.render_reason(
                            action=action_value, purpose=purpose_value, actor=actor_id
                        ),
                        emergency=rule.emergency,
                    )
                )

        # 2. global denies
        for rule in self._applicable(self._global_denies, action_value, rcls, resource):
            ok, detail = consult(rule, None)
            if ok:
                return finish(
                    Decision(
                        allowed=False,
                        rule_id=rule.rule_id,
                        reason=detail
                        or rule.render_reason(
                            action=action_value, purpose=purpose_value, actor=actor_id
                        ),
                        error=rule.error,
                    )
                )

        # 3. the role pass
        winner: tuple[Any, PolicyRule, str] | None = None
        bound_denials: list[tuple[Any, str]] = []
        for role in roles:
            role_value = getattr(role, "value", str(role))
            denial_detail = ""
            for rule in self._rules_for(role_value, action_value):
                if not rule.matches_resource(rcls, resource):
                    continue
                ok, detail = consult(rule, role)
                if rule.effect is Effect.DENY:
                    if ok:
                        denial_detail = detail or rule.render_reason(
                            role=role_value,
                            action=action_value,
                            purpose=purpose_value,
                            actor=actor_id,
                        )
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
            role_value = getattr(role, "value", str(role))
            # 4. binding denies, evaluated against the winning role
            for brule in self._applicable(
                self._binding_denies, action_value, rcls, resource
            ):
                ok, bdetail = consult(brule, role)
                if ok:
                    return finish(
                        Decision(
                            allowed=False,
                            rule_id=brule.rule_id,
                            reason=bdetail
                            or brule.render_reason(
                                role=role_value,
                                action=action_value,
                                purpose=purpose_value,
                                actor=actor_id,
                            ),
                            role_used=role,
                            error=brule.error,
                        )
                    )
            return finish(
                Decision(
                    allowed=True,
                    rule_id=rule.rule_id,
                    reason=detail
                    or rule.render_reason(
                        role=role_value,
                        action=action_value,
                        purpose=purpose_value,
                        actor=actor_id,
                    ),
                    role_used=role,
                    emergency=rule.emergency,
                )
            )

        # 5. fallback allows (break-glass)
        for rule in self._applicable(self._fallback_allows, action_value, rcls, resource):
            ok, detail = consult(rule, None)
            if ok:
                return finish(
                    Decision(
                        allowed=True,
                        rule_id=rule.rule_id,
                        reason=detail
                        or rule.render_reason(
                            action=action_value, purpose=purpose_value, actor=actor_id
                        ),
                        emergency=rule.emergency,
                    )
                )

        # default deny: the last *bound* denial is the most specific
        # reason (mirrors the legacy best-denial selection); the generic
        # fallback names the actor, so it is never cached.
        if bound_denials:
            role, reason = bound_denials[-1]
            return finish(
                Decision(
                    allowed=False,
                    rule_id="default:deny",
                    reason=reason,
                    role_used=role,
                )
            )
        cacheable = False
        return finish(
            Decision(
                allowed=False,
                rule_id="default:deny",
                reason=f"no role of {actor_id} grants {action_value}",
            )
        )

    def explain(
        self,
        actor: Any,
        action: Any,
        resource: str = "",
        context: PolicyContext | None = None,
    ) -> str:
        """Human-readable decision path for one request."""
        return self.decide(actor, action, resource, context).explain()

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
