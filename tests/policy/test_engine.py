"""The policy engine: tier ordering, deny-overrides, the decision
cache, and purge-on-shred invalidation."""

import pytest

from repro.access.principals import Role, User
from repro.errors import ConfigurationError
from repro.policy.engine import CACHE_SIZE, PolicyEngine, PolicyEnv
from repro.policy.model import (
    CheckResult,
    Condition,
    Effect,
    PolicyContext,
    PolicyRule,
    Tier,
)
from repro.util.metrics import METRICS


def always(ok=True, detail="", cacheable=True):
    return Condition(
        name="always",
        check=lambda actor, role, action, resource, ctx, env: CheckResult(
            ok, detail, cacheable
        ),
    )


def allow(rule_id, **kw):
    return PolicyRule(rule_id=rule_id, effect=Effect.ALLOW, **kw)


def deny(rule_id, **kw):
    return PolicyRule(rule_id=rule_id, effect=Effect.DENY, **kw)


def physician(user_id="dr-a", treating=()):
    return User.make(user_id, user_id, [Role.PHYSICIAN], treating=treating)


def test_duplicate_rule_ids_rejected():
    with pytest.raises(ConfigurationError, match="duplicate"):
        PolicyEngine([allow("r"), deny("r")])


def test_override_tier_short_circuits_global_denies():
    engine = PolicyEngine(
        [
            deny("deny:all", tier=Tier.GLOBAL),
            allow("allow:override", tier=Tier.OVERRIDE),
        ]
    )
    decision = engine.decide("anyone", "anything")
    assert decision.allowed
    assert decision.rule_id == "allow:override"


def test_global_deny_beats_role_allow():
    engine = PolicyEngine(
        [
            deny("deny:lockdown", tier=Tier.GLOBAL, reason="locked down"),
            allow("allow:role", roles=frozenset({"physician"})),
        ]
    )
    decision = engine.decide(physician(), "read_record")
    assert not decision.allowed
    assert decision.rule_id == "deny:lockdown"
    assert decision.reason == "locked down"


def test_deny_overrides_within_a_role():
    engine = PolicyEngine(
        [
            allow("allow:read", roles=frozenset({"physician"})),
            deny("deny:read", roles=frozenset({"physician"}), reason="blocked"),
        ]
    )
    decision = engine.decide(physician(), "read_record")
    assert not decision.allowed
    assert decision.rule_id == "default:deny"
    assert decision.reason == "blocked"


def test_first_role_to_allow_wins_union_semantics():
    user = User.make("u", "u", [Role.NURSE, Role.PHYSICIAN])
    engine = PolicyEngine(
        [
            allow(
                "allow:physician-only",
                roles=frozenset({"physician"}),
                reason="role {role} grants {action}",
            )
        ]
    )
    decision = engine.decide(user, "correct_record")
    assert decision.allowed
    assert decision.role_used is Role.PHYSICIAN


def test_failed_allow_condition_becomes_the_bound_denial():
    engine = PolicyEngine(
        [
            allow(
                "allow:guarded",
                roles=frozenset({"physician"}),
                conditions=(always(ok=False, detail="condition failed"),),
            )
        ]
    )
    decision = engine.decide(physician(), "read_record")
    assert not decision.allowed
    assert decision.rule_id == "default:deny"
    assert decision.reason == "condition failed"
    assert decision.role_used is Role.PHYSICIAN


def test_binding_deny_fires_only_after_a_role_wins():
    rules = [
        allow("allow:read", roles=frozenset({"physician"})),
        deny(
            "deny:binding",
            tier=Tier.BINDING,
            conditions=(always(ok=True, detail="binding blocked"),),
            error="consent",
        ),
    ]
    engine = PolicyEngine(rules)
    decision = engine.decide(physician(), "read_record")
    assert not decision.allowed
    assert decision.rule_id == "deny:binding"
    assert decision.role_used is Role.PHYSICIAN
    # Without a winning role the binding deny is never consulted.
    stranger = User.make("amy", "amy", [Role.NURSE])
    decision = engine.decide(stranger, "read_record")
    assert decision.rule_id == "default:deny"
    assert all(t.rule_id != "deny:binding" for t in decision.trace)


def test_fallback_allow_rescues_only_role_denials():
    engine = PolicyEngine(
        [
            allow("allow:fallback", tier=Tier.FALLBACK, emergency=True),
            deny("deny:global", tier=Tier.GLOBAL, actions=frozenset({"login"})),
        ]
    )
    rescued = engine.decide(physician(), "read_record")
    assert rescued.allowed and rescued.emergency
    blocked = engine.decide(physician(), "login")
    assert not blocked.allowed
    assert blocked.rule_id == "deny:global"


def test_trace_records_every_rule_consulted():
    engine = PolicyEngine(
        [
            allow("allow:a", roles=frozenset({"physician"})),
            deny("deny:b", roles=frozenset({"physician"}), conditions=(always(False),)),
        ]
    )
    decision = engine.decide(physician(), "read_record")
    consulted = [t.rule_id for t in decision.trace]
    assert consulted == ["deny:b", "allow:a"]  # deny-first within the role


def test_decisions_are_cached_and_metered():
    engine = PolicyEngine([allow("allow:read", roles=frozenset({"physician"}))])
    before_miss = METRICS.get("policy_cache_misses")
    before_hit = METRICS.get("policy_cache_hits")
    ctx = PolicyContext(purpose="treatment")
    first = engine.decide(physician(), "read_record", "rec-1", ctx)
    second = engine.decide(physician(), "read_record", "rec-2", ctx)
    assert METRICS.get("policy_cache_misses") == before_miss + 1
    assert METRICS.get("policy_cache_hits") == before_hit + 1
    assert first.allowed and second.allowed
    # The cached decision is re-bound to the caller's resource.
    assert second.resource == "rec-2"
    assert engine.cache_info()["entries"] == 1


def test_facts_are_never_cached():
    engine = PolicyEngine([allow("allow:anything")])
    ctx = PolicyContext(facts={"measured": True})
    assert engine.decide(physician(), "act", context=ctx).allowed
    engine.decide(physician(), "act", context=ctx)
    assert engine.cache_info()["entries"] == 0


def test_non_cacheable_conditions_disable_caching():
    engine = PolicyEngine(
        [allow("allow:guarded", conditions=(always(ok=True, cacheable=False),))]
    )
    engine.decide(physician(), "read_record")
    assert engine.cache_info()["entries"] == 0


def test_generic_default_deny_is_not_cached():
    engine = PolicyEngine([allow("allow:read", roles=frozenset({"physician"}))])
    stranger = User.make("amy", "amy", [Role.NURSE])
    decision = engine.decide(stranger, "read_record")
    assert "no role of amy" in decision.reason
    assert engine.cache_info()["entries"] == 0


def test_purge_decisions_empties_the_cache():
    engine = PolicyEngine([allow("allow:read", roles=frozenset({"physician"}))])
    engine.decide(physician(), "read_record")
    assert engine.cache_info()["entries"] == 1
    before = METRICS.get("policy_cache_purged")
    assert engine.purge_decisions() == 1
    assert engine.cache_info()["entries"] == 0
    assert METRICS.get("policy_cache_purged") == before + 1


def test_cache_evicts_least_recently_used():
    engine = PolicyEngine([allow("allow:anything")])
    for n in range(CACHE_SIZE):  # fill the cache: action-0 is the oldest
        engine.decide(physician("dr-a"), f"action-{n}")
    engine.decide(physician("dr-a"), "action-0")  # refresh action-0
    engine.decide(physician("dr-a"), "one-more")  # evicts action-1
    assert engine.cache_info() == {"entries": CACHE_SIZE, "capacity": CACHE_SIZE}
    before = METRICS.get("policy_cache_misses")
    engine.decide(physician("dr-a"), "action-0")
    assert METRICS.get("policy_cache_misses") == before
    engine.decide(physician("dr-a"), "action-1")
    assert METRICS.get("policy_cache_misses") == before + 1


def test_env_is_exposed_to_conditions():
    seen = {}

    def check(actor, role, action, resource, ctx, env):
        seen["env"] = env
        return CheckResult(True, "", True)

    env = PolicyEnv(consent="the-registry")
    engine = PolicyEngine(
        [allow("allow:probe", conditions=(Condition("probe", check),))], env=env
    )
    assert engine.decide(physician(), "act").allowed
    assert seen["env"] is env
    assert engine.env is env


def test_explain_is_decide_plus_rendering():
    engine = PolicyEngine([allow("allow:read", roles=frozenset({"physician"}))])
    text = engine.explain(physician(), "read_record")
    assert text.startswith("ALLOW")
    assert "allow:read" in text
