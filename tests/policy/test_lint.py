"""Ruleset lint by enumeration: a rule that matches on no tuple of its
ruleset's decision space is dead, whatever stranded it."""

from repro.policy.conditions import fact_true
from repro.policy.lint import (
    LintFinding,
    Probe,
    decision_table,
    domain,
    engine_for,
    lint_default_rulesets,
    lint_ruleset,
)
from repro.policy.model import CheckResult, Condition, Effect, PolicyRule, Tier


def guard():
    """A condition that holds on half the tuples: the enumerator probes
    both values of the fact it names."""
    return fact_true("guarded")


def allow(rule_id, **kw):
    return PolicyRule(rule_id=rule_id, effect=Effect.ALLOW, **kw)


def deny(rule_id, **kw):
    return PolicyRule(rule_id=rule_id, effect=Effect.DENY, **kw)


def checks(findings):
    return [(f.check, f.rule_id) for f in findings]


def deciders(rules):
    return {row.rule_id for row in decision_table(tuple(rules))}


def matched(rules):
    return {
        rule_id
        for row in decision_table(tuple(rules))
        for rule_id, _, hit, _ in row.trace
        if hit
    }


def test_clean_ruleset_has_no_findings():
    rules = [
        allow("allow:a", roles=frozenset({"physician"}), actions=frozenset({"read"})),
        deny(
            "deny:b",
            roles=frozenset({"physician"}),
            actions=frozenset({"write"}),
            conditions=(guard(),),
        ),
    ]
    assert lint_ruleset(rules) == []


def test_duplicate_ids_reported():
    rules = [allow("r", actions=frozenset({"a"})), deny("r", actions=frozenset({"a"}))]
    assert checks(lint_ruleset(rules)) == [("dead", "r")]
    assert "earlier rule has its id" in lint_ruleset(rules)[0].message


def test_shadowed_rule_reported():
    rules = [
        allow("allow:broad", actions=frozenset({"read"})),
        allow(
            "allow:narrow",
            roles=frozenset({"nurse"}),
            actions=frozenset({"read"}),
        ),
    ]
    assert checks(lint_ruleset(rules)) == [("dead", "allow:narrow")]


def test_conditioned_rules_do_not_shadow():
    rules = [
        allow("allow:broad", actions=frozenset({"read"}), conditions=(guard(),)),
        allow(
            "allow:narrow", roles=frozenset({"nurse"}), actions=frozenset({"read"})
        ),
    ]
    assert checks(lint_ruleset(rules)) == []


def test_deny_shadowing_an_allow_reported():
    rules = [
        allow("allow:read", roles=frozenset({"nurse"}), actions=frozenset({"read"})),
        deny("deny:read", actions=frozenset({"read"})),
    ]
    assert checks(lint_ruleset(rules)) == [("dead", "allow:read")]


def test_conditioned_wildcard_rule_does_not_count_as_coverage():
    rules = [allow("allow:override", conditions=(guard(),), tier=Tier.OVERRIDE)]
    assert lint_ruleset(rules) == []
    # Where its condition fails, requests fall to the default deny.
    assert deciders(rules) == {"allow:override", "default:deny"}


def test_unconditioned_wildcard_rule_covers_everything():
    rules = [allow("allow:everything")]
    assert lint_ruleset(rules) == []
    assert deciders(rules) == {"allow:everything"}


def test_uncovered_action_reported():
    """An action no rule names is not a finding: it falls to the default
    deny, which the decision table reports for it."""
    rules = [allow("allow:read", actions=frozenset({"read"}))]
    assert lint_ruleset(rules) == []
    write = Probe("write")
    assert engine_for(rules, write, {}).decide(*write.request()).rule_id == "default:deny"


def test_wildcard_deny_is_a_warning():
    """A deny over everything is not a finding: it decides every tuple,
    which the decision table reports."""
    rules = [deny("deny:everything")]
    assert lint_ruleset(rules) == []
    assert matched(rules) == {"deny:everything"}
    assert not any(row.allowed for row in decision_table(tuple(rules)))


def test_errors_sort_before_warnings():
    """Lint has one severity, so an allow behind a deny over everything is
    reported as what it is: dead."""
    rules = [deny("deny:everything"), allow("allow:read", actions=frozenset({"read"}))]
    assert checks(lint_ruleset(rules)) == [("dead", "allow:read")]
    assert matched(rules) == {"deny:everything"}


def test_an_unlisted_condition_is_probed_along_every_dimension():
    custom = Condition("custom", lambda *args: CheckResult(True, ""))
    rules = [allow("allow:custom", actions=frozenset({"read"}), conditions=(custom,))]
    # 36 role sets x 1 action x 7 purposes x 3 patients x own x 3
    # consents x grant x hold, plus the system principal's one tuple.
    assert len(list(domain(rules))) == 36 * 7 * 3 * 2 * 3 * 2 * 2 + 1


def test_finding_renders_as_one_line():
    finding = LintFinding("dead", "allow:x", "matches on none of the 2 tuples")
    assert str(finding) == "dead: allow:x: matches on none of the 2 tuples"


def test_shipped_rulesets_are_clean():
    assert lint_default_rulesets() == []
