"""The golden decision table: every tuple of every shipped ruleset's
decision space (:func:`repro.policy.lint.domain`) decides exactly as
``decision_table.json`` pins it — allowed, deciding rule, reason, bound
role, error class, emergency flag and the full trace — and every
declared invariant holds on every tuple.

One engine per registry state decides every tuple of that state in
turn, so an answer that carried over from an earlier request would
fail on the first tuple it reaches.
"""

import collections
import itertools
import json

import pytest

from repro.policy.lint import EXEMPTIONS, decision_table, domain, invariant_breaks
from repro.policy.rules import RULESETS
from tests.policy.write_decision_table import GOLDEN, decode

EXPECTED = json.loads(GOLDEN.read_text())


def test_the_golden_covers_every_shipped_ruleset_and_stays_small():
    assert sorted(EXPECTED) == sorted(RULESETS)
    assert GOLDEN.stat().st_size <= 512 * 1024


@pytest.mark.parametrize("name", sorted(RULESETS))
def test_warm_engines_decide_every_tuple_as_the_cold_golden_pins(name):
    rules = RULESETS[name]
    actual = zip(domain(rules), decision_table(rules))
    for found, pinned in itertools.zip_longest(actual, decode(EXPECTED[name])):
        assert found is not None, f"the domain lost the tuples from {pinned[0]!r} on"
        probe, row = found
        assert pinned is not None, f"the domain grew: {probe.label()} is not pinned"
        block, expected = pinned
        assert (probe.block, row) == (block, expected), (
            f"first differing tuple: {probe.label()}\n"
            f"  expected: {expected}\n"
            f"  actual:   {row}"
        )


def test_every_exemption_covers_tuples_and_nothing_else_breaks():
    covered = collections.Counter()
    for rules in RULESETS.values():
        for name, probe, row, exemption in invariant_breaks(rules):
            assert exemption is not None, f"{name}: broken by {probe.label()}"
            covered[exemption.reason] += 1
    assert all(covered[exemption.reason] for exemption in EXEMPTIONS), covered
