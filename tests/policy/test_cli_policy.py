"""The ``repro policy`` CLI surface."""

from repro.cli import main
from repro.policy.model import BREAK_GLASS_ACTION
from repro.policy.rules import BREAKGLASS_RULES, RULESETS, permit


def test_policy_lint_is_clean(capsys):
    assert main(["policy", "lint"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "policy lint: 0 finding(s), 0 error(s) "
        "across default/session/disposition/break-glass rulesets\n"
    )


def test_policy_lint_names_a_seeded_dead_rule(capsys, monkeypatch):
    # A second fallback allow for the same action is never consulted.
    dead = permit("allow:break-glass:again", {BREAK_GLASS_ACTION}, reason="again")
    monkeypatch.setitem(RULESETS, "break-glass", BREAKGLASS_RULES + (dead,))
    assert main(["policy", "lint"]) == 1
    out = capsys.readouterr().out
    assert "dead: allow:break-glass:again: matches on none of the 2 tuples" in out
    assert "1 finding(s), 1 error(s)" in out


def test_policy_explain_allow_exits_zero(capsys):
    code = main(
        [
            "policy",
            "explain",
            "dr-a",
            "read_record",
            "rec-1",
            "--patient",
            "pat-1",
            "--treating",
            "pat-1",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "ALLOW" in out
    assert "allow:physician:read_record" in out


def test_policy_explain_deny_exits_one(capsys):
    code = main(["policy", "explain", "amy", "manage_backup", "--roles", "nurse"])
    out = capsys.readouterr().out
    assert code == 1
    assert "DENY" in out
    assert "no role of amy grants manage_backup" in out


def test_policy_explain_purpose_violation_shows_the_restriction(capsys):
    code = main(
        [
            "policy",
            "explain",
            "bob",
            "read_record",
            "rec-1",
            "--roles",
            "billing",
            "--purpose",
            "research",
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "only for" in out and "payment" in out


def test_policy_explain_rejects_unknown_role(capsys):
    code = main(["policy", "explain", "x", "read_record", "--roles", "wizard"])
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown role" in err
