"""The declarative policy vocabulary: rules, decisions, destruction
authorization."""

import dataclasses

import pytest

from repro.errors import (
    AccessDeniedError,
    ConfigurationError,
    ConsentError,
    DispositionError,
    RetentionError,
)
from repro.policy.model import (
    DESTRUCTION_ACTION,
    Decision,
    Effect,
    PolicyRule,
    RuleTrace,
    Tier,
    ensure_destruction_authorized,
    resource_class,
)


def test_rule_requires_an_id():
    with pytest.raises(ConfigurationError, match="rule_id"):
        PolicyRule(rule_id="", effect=Effect.ALLOW)


def test_rule_rejects_unknown_error_class():
    with pytest.raises(ConfigurationError, match="error class"):
        PolicyRule(rule_id="r", effect=Effect.DENY, error="oops")


def test_rule_matching_wildcards_and_values():
    rule = PolicyRule(
        rule_id="r",
        effect=Effect.ALLOW,
        roles=frozenset({"physician"}),
        actions=frozenset({"read_record"}),
        resources=("rec-*",),
    )
    assert rule.matches_role("physician")
    assert not rule.matches_role("nurse")
    assert rule.matches_action("read_record")
    assert not rule.matches_action("correct_record")
    assert rule.matches_resource("record", "rec-17")
    assert not rule.matches_resource("session", "sess-1")
    anything = PolicyRule(rule_id="w", effect=Effect.ALLOW)
    assert anything.matches_role("anyone")
    assert anything.matches_action("anything")
    assert anything.matches_resource("record", "rec-1")


def test_rule_matches_resource_class_patterns():
    rule = PolicyRule(
        rule_id="r", effect=Effect.DENY, resources=("attachment",)
    )
    assert rule.matches_resource("attachment", "rec-1#att/scan")
    assert not rule.matches_resource("record", "rec-1")


def test_render_reason_formats_and_falls_back():
    rule = PolicyRule(
        rule_id="r",
        effect=Effect.ALLOW,
        reason="role {role} grants {action} for purpose {purpose}",
    )
    assert (
        rule.render_reason(role="nurse", action="read_record", purpose="treatment")
        == "role nurse grants read_record for purpose treatment"
    )
    bare = PolicyRule(rule_id="bare", effect=Effect.DENY)
    assert bare.render_reason() == "rule bare (deny)"


def test_decision_truthiness_and_typed_exceptions():
    assert Decision(allowed=True, rule_id="r", reason="ok")
    denial = Decision(allowed=False, rule_id="r", reason="no", error="consent")
    assert not denial
    assert isinstance(denial.exception(), ConsentError)
    for tag, exc_type in [
        ("access", AccessDeniedError),
        ("disposition", DispositionError),
        ("retention", RetentionError),
    ]:
        d = Decision(allowed=False, rule_id="r", reason="no", error=tag)
        with pytest.raises(exc_type, match="no"):
            d.require()
    allowed = Decision(allowed=True, rule_id="r", reason="ok")
    assert allowed.require() is allowed


def test_decision_audit_detail_carries_the_trace():
    decision = Decision(
        allowed=False,
        rule_id="deny:consent",
        reason="blocked",
        trace=(
            RuleTrace("allow:x", "allow", False, "nope"),
            RuleTrace("deny:consent", "deny", True, "blocked"),
        ),
    )
    detail = decision.to_audit_detail()
    assert detail["rule_id"] == "deny:consent"
    assert detail["reason"] == "blocked" and "rule" not in detail
    assert detail["trace"] == [
        {"rule": "allow:x", "effect": "allow", "matched": False, "detail": "nope"},
        {"rule": "deny:consent", "effect": "deny", "matched": True, "detail": "blocked"},
    ]
    # a grant records its reason as the rule sentence, break-glass none
    granted = dataclasses.replace(decision, allowed=True, reason="ok")
    assert granted.to_audit_detail()["rule"] == "ok"
    emergency = dataclasses.replace(granted, emergency=True)
    assert set(emergency.to_audit_detail()) == {"rule_id", "trace"}


def test_explain_renders_verdict_and_consulted_rules():
    decision = Decision(
        allowed=True,
        rule_id="allow:r",
        reason="fine",
        trace=(RuleTrace("allow:r", "allow", True, ""),),
    )
    text = decision.explain()
    assert text.startswith("ALLOW: fine")
    assert "allow:r" in text
    empty = Decision(allowed=False, rule_id="default:deny", reason="no")
    assert "none matched" in empty.explain()


def test_resource_class_buckets():
    assert resource_class("") == "*"
    assert resource_class("search:tumor") == "search"
    assert resource_class("disclosures:pat-1") == "disclosures"
    assert resource_class("sess-00000001") == "session"
    assert resource_class("rec-1#att/scan") == "attachment"
    assert resource_class("rec-1") == "record"


def grant(action=DESTRUCTION_ACTION, resource="rec-1", allowed=True):
    return Decision(
        allowed=allowed, rule_id="r", reason="", action=action, resource=resource
    )


def test_destruction_requires_an_allow_decision_for_the_action():
    assert ensure_destruction_authorized(grant(), "rec-1")
    with pytest.raises(DispositionError, match="authorization"):
        ensure_destruction_authorized(None, "rec-1")
    with pytest.raises(DispositionError, match="authorization"):
        ensure_destruction_authorized(True, "rec-1")  # the old boolean
    with pytest.raises(DispositionError, match="authorization"):
        ensure_destruction_authorized(grant(allowed=False), "rec-1")
    with pytest.raises(DispositionError, match="authorization"):
        ensure_destruction_authorized(grant(action="read_record"), "rec-1")
    with pytest.raises(DispositionError, match="authorization"):
        ensure_destruction_authorized(grant(resource="rec-9"), "rec-1")


def test_destruction_accepts_wildcard_scoped_decisions():
    assert ensure_destruction_authorized(grant(resource="*"), "rec-1")
    assert ensure_destruction_authorized(grant(resource=""), "rec-1")


def test_tier_precedence_ordering():
    assert Tier.OVERRIDE < Tier.GLOBAL < Tier.ROLE < Tier.BINDING < Tier.FALLBACK
