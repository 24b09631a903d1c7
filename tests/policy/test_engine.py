"""The policy engine: tier ordering, deny-overrides, and decisions made
afresh from the rules on every request."""

import pytest

from repro.access.principals import Role, User
from repro.errors import ConfigurationError
from repro.policy.engine import PolicyEngine, PolicyEnv
from repro.policy.model import (
    CheckResult,
    Condition,
    Effect,
    PolicyContext,
    PolicyRule,
    Tier,
)


def always(ok=True, detail=""):
    return Condition(
        name="always",
        check=lambda actor, role, action, resource, ctx, env: CheckResult(ok, detail),
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


@pytest.mark.parametrize(
    "rule, requests",
    [
        (
            allow("allow:read", roles={"physician"}, reason="{role} {actor} may {action}"),
            [(physician("dr-a"), "rec-1"), (physician("dr-b"), "rec-1")],
        ),
        (
            allow("allow:rec-1", roles={"physician"}, resources=("rec-1",)),
            [(physician("dr-a"), "rec-1"), (physician("dr-a"), "rec-2")],
        ),
    ],
    ids=["reason-names-the-actor", "rule-names-the-resource"],
)
def test_a_long_lived_engine_decides_each_request_like_a_fresh_one(rule, requests):
    """No answer carries over from an earlier request: the second
    request gets its own actor in the reason, and a rule scoped to
    ``rec-1`` does not let ``rec-2`` through."""
    engine = PolicyEngine([rule])
    ctx = PolicyContext(purpose="treatment")
    for actor, resource in requests:
        decided = engine.decide(actor, "read_record", resource, ctx)
        assert decided == PolicyEngine([rule]).decide(actor, "read_record", resource, ctx)


def test_env_is_exposed_to_conditions():
    seen = {}

    def check(actor, role, action, resource, ctx, env):
        seen["env"] = env
        return CheckResult(True, "")

    env = PolicyEnv(consent="the-registry")
    engine = PolicyEngine(
        [allow("allow:probe", conditions=(Condition("probe", check),))], env=env
    )
    assert engine.decide(physician(), "act").allowed
    assert seen["env"] is env
    assert engine.env is env


def test_explain_is_decide_plus_rendering():
    engine = PolicyEngine([allow("allow:read", roles=frozenset({"physician"}))])
    text = engine.decide(physician(), "read_record").explain()
    assert text.startswith("ALLOW")
    assert "allow:read" in text
