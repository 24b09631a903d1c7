"""Merging what a fan-out returns: one function per shape of answer.

The fan-out itself yields ``{shard_id: result}`` in slot order; a report
that must keep per-shard blame is merged from that dict directly by
:meth:`~repro.baselines.interface.VerificationReport.merge`.
"""

from __future__ import annotations

from typing import Any, Iterable


def union(parts: Iterable[Iterable[str]]) -> list[str]:
    """Ids from every shard, de-duplicated and sorted."""
    return sorted({item for part in parts for item in part})


def concat(parts: Iterable[Iterable[Any]]) -> list[Any]:
    """Every shard's items, in slot order."""
    return [item for part in parts for item in part]


def total(parts: Iterable[dict[str, int]]) -> dict[str, int]:
    """Per-shard counters, summed key by key."""
    totals: dict[str, int] = {}
    for part in parts:
        for key, value in part.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def audit_stream(streams: Iterable[list[dict[str, Any]]]) -> list[dict[str, Any]]:
    """Every shard's audit stream in timestamp order (ties broken by
    slot order, then per-shard sequence)."""
    keyed = [
        (event["timestamp"], slot, event["sequence"], event)
        for slot, stream in enumerate(streams)
        for event in stream
    ]
    return [event for *_key, event in sorted(keyed, key=lambda e: e[:3])]
