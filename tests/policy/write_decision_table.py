"""Write ``tests/policy/decision_table.json``, the golden decision table.

For every tuple of each shipped ruleset's decision space
(:func:`repro.policy.lint.domain`) the golden pins the whole decision:
allowed, deciding rule, reason, bound role, error class, emergency flag
and the full trace.  Each distinct decision is written once; a block
line (one role set and action, or one fact-ruleset action) holds a
two-character code per tuple.

The decisions are :func:`repro.policy.lint.decision_table`'s.
Regenerate the golden only when a ruleset change is meant to move
decisions, then read the diff: each changed line names the block whose
decisions moved.  From the repo root::

    PYTHONPATH=src python tests/policy/write_decision_table.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator

from repro.policy.lint import Row, decision_table, domain
from repro.policy.rules import RULESETS

GOLDEN = Path(__file__).with_name("decision_table.json")
DIGITS = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def encode(rules: tuple) -> dict:
    decided = list(zip(domain(rules), decision_table(rules)))
    rows = list(dict.fromkeys(row for _, row in decided))
    assert len(rows) <= len(DIGITS) ** 2, "two-character codes no longer suffice"
    codes = {row: DIGITS[n // len(DIGITS)] + DIGITS[n % len(DIGITS)] for n, row in enumerate(rows)}
    entries = list(dict.fromkeys(entry for row in rows for entry in row.trace))
    entry_ids = {entry: n for n, entry in enumerate(entries)}
    blocks: dict[str, str] = {}
    for probe, row in decided:
        blocks[probe.block] = blocks.get(probe.block, "") + codes[row]
    return {
        "tuples": len(decided),
        "trace": [list(entry) for entry in entries],
        "decisions": [
            {**row._asdict(), "trace": [entry_ids[entry] for entry in row.trace]}
            for row in rows
        ],
        "blocks": blocks,
    }


def decode(part: dict) -> Iterator[tuple[str, Row]]:
    """``(block, decision)`` for every tuple the golden pins, in order."""
    decisions = [
        Row(**{**decision, "trace": tuple(tuple(part["trace"][n]) for n in decision["trace"])})
        for decision in part["decisions"]
    ]
    for block, codes in part["blocks"].items():
        for at in range(0, len(codes), 2):
            n = DIGITS.index(codes[at]) * len(DIGITS) + DIGITS.index(codes[at + 1])
            yield block, decisions[n]


def render(value, depth: int = 0) -> str:
    """JSON with one line per trace entry, decision and block."""
    if depth == 3 or not isinstance(value, (dict, list)):
        return json.dumps(value)
    pad = " " * (depth + 1)
    if isinstance(value, dict):
        items = [f"{pad}{json.dumps(k)}: {render(v, depth + 1)}" for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + " " * depth + "}"
    items = [f"{pad}{render(v, depth + 1)}" for v in value]
    return "[\n" + ",\n".join(items) + "\n" + " " * depth + "]"


if __name__ == "__main__":
    golden = {name: encode(rules) for name, rules in RULESETS.items()}
    GOLDEN.write_text(render(golden) + "\n")
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)")
