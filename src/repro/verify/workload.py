"""The seeded workload the crash sweep drives.

Small and fully deterministic: short texts (few index terms) keep the
total device-write count bounded so the sweep can afford to crash at
*every* write boundary, while still exercising every durability-
relevant path — single store, atomic ``store_many`` batch, a reads/
search stretch (audit + anchor traffic), a correction (re-index +
version chain), a certified disposal (escrow tombstone, extent
zeroing), and a post-disposal store.

:func:`run_seeded_workload` records which operations were
*acknowledged* (the call returned) and the expected observable state
they imply; when a :class:`~repro.errors.CrashError` lands, it also
records exactly which operation was in flight.  The oracle
(:mod:`repro.verify.oracle`) holds recovery to that ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import CrashError
from repro.records.model import HealthRecord
from repro.util.clock import SimulatedClock
from repro.verify.substrate import note


@dataclass(frozen=True)
class ExpectedRecord:
    """Observable state one record must show after recovery."""

    text: str
    versions: int
    term: str  # a search term unique to this record's current text
    disposed: bool = False


@dataclass(frozen=True)
class InFlight:
    """The operation the crash interrupted: its effects may be fully
    present or fully absent after recovery — never partial."""

    kind: str  # store | store_many | correct | dispose | read | search
    record_ids: tuple[str, ...]
    committed: dict[str, ExpectedRecord] = field(default_factory=dict)


@dataclass
class WorkloadRun:
    """Acknowledged-state ledger of one workload execution."""

    expected: dict[str, ExpectedRecord]
    acked: tuple[str, ...]
    in_flight: InFlight | None
    crashed: bool


_PATIENTS = {"rec-0": "pat-1", "rec-1": "pat-2", "rec-2": "pat-1",
             "rec-3": "pat-3", "rec-4": "pat-2"}

_TEXTS = {
    "rec-0": "alpha palpitations at baseline",
    "rec-1": "bravo fracture of the wrist",
    "rec-2": "charlie lesion biopsied",
    "rec-3": "delta rash persistent",
    "rec-4": "echo followup unremarkable",
}

_CORRECTED_TEXT = "alpha palpitations resolved amended"


def _note(record_id: str, clock: SimulatedClock, text: str = "") -> HealthRecord:
    text = text or _TEXTS[record_id]
    return note(record_id, _PATIENTS[record_id], clock.now(), text, "dr-sweep")


def run_seeded_workload(store, clock: SimulatedClock) -> WorkloadRun:
    """Drive the workload, stopping at the first simulated crash."""
    expected: dict[str, ExpectedRecord] = {}
    acked: list[str] = []
    outcome = WorkloadRun(expected=expected, acked=(), in_flight=None, crashed=False)

    def run(name, kind, ids, committed, op):
        """Run one op; on a crash, freeze the ledger and report False."""
        try:
            op()
        except CrashError:
            outcome.in_flight = InFlight(
                kind=kind, record_ids=tuple(ids), committed=committed
            )
            outcome.crashed = True
            outcome.acked = tuple(acked)
            return False
        expected.update(committed)
        acked.append(name)
        return True

    def exp(record_id, **overrides):
        base = ExpectedRecord(
            text=_TEXTS[record_id], versions=1, term=_TEXTS[record_id].split()[0]
        )
        return replace(base, **overrides)

    steps = [
        (
            "store:rec-0", "store", ["rec-0"], {"rec-0": exp("rec-0")},
            lambda: store.store(_note("rec-0", clock), "dr-sweep"),
        ),
        (
            "store_many:rec-1..3", "store_many", ["rec-1", "rec-2", "rec-3"],
            {rid: exp(rid) for rid in ("rec-1", "rec-2", "rec-3")},
            lambda: store.store_many(
                [_note(rid, clock) for rid in ("rec-1", "rec-2", "rec-3")],
                "dr-sweep",
            ),
        ),
        ("read:rec-2", "read", [], {}, lambda: store.read("rec-2", actor_id="system")),
        (
            "search:bravo", "search", [], {},
            lambda: store.search("bravo", actor_id="system"),
        ),
        (
            "correct:rec-0", "correct", ["rec-0"],
            {"rec-0": ExpectedRecord(text=_CORRECTED_TEXT, versions=2, term="amended")},
            lambda: store.correct(
                _note("rec-0", clock, _CORRECTED_TEXT), "dr-sweep", "symptom resolved"
            ),
        ),
        (
            "dispose:rec-1", "dispose", ["rec-1"],
            {"rec-1": exp("rec-1", disposed=True)},
            lambda: (
                clock.advance_years(8.0),
                store.dispose("rec-1", actor_id="records-manager"),
            ),
        ),
        (
            "store:rec-4", "store", ["rec-4"], {"rec-4": exp("rec-4")},
            lambda: store.store(_note("rec-4", clock), "dr-sweep"),
        ),
        ("read:rec-0", "read", [], {}, lambda: store.read("rec-0", actor_id="system")),
    ]
    for name, kind, ids, committed, op in steps:
        if not run(name, kind, ids, committed, op):
            return outcome
    outcome.acked = tuple(acked)
    return outcome
