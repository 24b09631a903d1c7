"""The declared rulesets: the default ruleset's role capabilities and
composite rules, and the fact-based rulesets' guard order."""

import pytest

from repro.access.principals import Role, User
from repro.access.rbac import Permission, Purpose
from repro.errors import DispositionError
from repro.policy.engine import PolicyEngine
from repro.policy.model import Effect, PolicyContext, Tier
from repro.policy.rules import (
    BREAKGLASS_RULES,
    DEFAULT_RULES,
    DISPOSITION_RULES,
    SESSION_RULES,
    default_purpose_for,
)


def test_default_ruleset_wraps_rbac_with_composite_rules():
    by_id = {r.rule_id: r for r in DEFAULT_RULES}
    assert by_id["allow:system"].tier is Tier.OVERRIDE
    assert by_id["deny:consent"].tier is Tier.BINDING
    assert by_id["deny:consent"].error == "consent"
    assert by_id["allow:break-glass"].tier is Tier.FALLBACK
    assert by_id["allow:break-glass"].emergency
    capabilities = [r for r in DEFAULT_RULES if r.tier is Tier.ROLE]
    assert all(r.effect is Effect.ALLOW for r in capabilities)
    assert len(capabilities) == len(DEFAULT_RULES) - 3 == len(by_id) - 3


def test_compiled_ruleset_grants_the_capability_table():
    engine = PolicyEngine(DEFAULT_RULES)
    nurse = User.make("amy", "amy", [Role.NURSE], treating=["pat-1"])
    ctx = PolicyContext(purpose=Purpose.TREATMENT, patient_id="pat-1")
    assert engine.decide(nurse, Permission.READ_RECORD, "rec-1", ctx).allowed
    denied = engine.decide(nurse, Permission.CORRECT_RECORD, "rec-1", ctx)
    assert not denied.allowed
    assert "no role of amy grants correct_record" in denied.reason


def test_compiled_purpose_restrictions():
    engine = PolicyEngine(DEFAULT_RULES)
    billing = User.make("bob", "bob", [Role.BILLING])
    payment = engine.decide(
        billing, Permission.READ_RECORD, "rec-1", PolicyContext(purpose=Purpose.PAYMENT)
    )
    assert payment.allowed
    research = engine.decide(
        billing,
        Permission.READ_RECORD,
        "rec-1",
        PolicyContext(purpose=Purpose.RESEARCH),
    )
    assert not research.allowed
    assert "only for" in research.reason and "payment" in research.reason


def test_session_ruleset_orders_denies_like_the_legacy_guards():
    engine = PolicyEngine(SESSION_RULES)
    # Locked accounts fail even with a forged token reported first for
    # use_session — the forged-token deny is consulted before locked.
    decision = engine.decide(
        "mallory",
        "use_session",
        context=PolicyContext(
            facts={
                "token_valid": False,
                "session_expired": True,
                "account_locked": True,
            }
        ),
    )
    assert decision.rule_id == "deny:session:forged-token"
    assert decision.reason == "session token invalid"
    clean = engine.decide(
        "alice",
        "login",
        context=PolicyContext(
            facts={
                "account_locked": False,
                "challenge_pending": True,
                "challenge_fresh": True,
                "response_valid": True,
            }
        ),
    )
    assert clean.allowed
    assert clean.rule_id == "allow:session:clean"


def test_disposition_ruleset_blocks_shortcuts():
    engine = PolicyEngine(DISPOSITION_RULES)
    decision = engine.decide(
        "manager",
        "execute_disposition",
        "rec-1",
        PolicyContext(
            facts={
                "ticket_missing": False,
                "ticket_not_approved": True,
                "ticket_state": "identified",
            }
        ),
    )
    assert not decision.allowed
    assert decision.error == "disposition"
    assert "must be approved before destruction" in decision.reason
    with pytest.raises(DispositionError):
        decision.require()


def test_breakglass_ruleset_gates_on_justification():
    engine = PolicyEngine(BREAKGLASS_RULES)
    thin = engine.decide(
        "dr-a",
        "invoke_break_glass",
        "pat-1",
        PolicyContext(facts={"substantive_justification": False}),
    )
    assert not thin.allowed
    assert "substantive justification" in thin.reason
    ok = engine.decide(
        "dr-a",
        "invoke_break_glass",
        "pat-1",
        PolicyContext(facts={"substantive_justification": True}),
    )
    assert ok.allowed and ok.emergency


def test_default_purpose_table():
    assert default_purpose_for(User.make("b", "b", [Role.BILLING])) is Purpose.PAYMENT
    assert (
        default_purpose_for(User.make("r", "r", [Role.RESEARCHER])) is Purpose.RESEARCH
    )
    assert (
        default_purpose_for(User.make("p", "p", [Role.PRIVACY_OFFICER]))
        is Purpose.OPERATIONS
    )
    assert (
        default_purpose_for(User.make("pt", "pt", [Role.PATIENT]))
        is Purpose.PATIENT_REQUEST
    )
    assert (
        default_purpose_for(User.make("pt", "pt", [Role.PATIENT, Role.PHYSICIAN]))
        is Purpose.TREATMENT
    )
