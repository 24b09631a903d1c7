"""Differential conformance: one scripted workload, six storage models,
one feature-aware reference.

The runner replays a fixed script — stores, an atomic batch, reads
(authorized and not), search, a correction, premature and lawful
disposal, a historical-version read, break-glass, audit and integrity
checks — through each model behind the common
:class:`~repro.baselines.interface.StorageModel` facade, and records
every operation as an :class:`~repro.verify.reference.Observation`.
The expected observation comes from the pure-python
:class:`~repro.verify.reference.ReferenceModel`, parameterized by the
model's declared features: a declared-unsupported operation *refusing*
is conformant, silently succeeding is a divergence, and so is any
drift in served text, search hits, or error class.

A model is conformant when its observation stream matches the
reference's exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.baselines.interface import StorageModel, UnsupportedOperation
from repro.errors import (
    AccessDeniedError,
    RecordNotFoundError,
    RetentionError,
)
from repro.records.model import HealthRecord
from repro.util.clock import SimulatedClock
from repro.verify.reference import Observation, ReferenceModel
from repro.verify.substrate import deploy, note

_EPOCH = 1.17e9

# record_id -> (patient_id, text); one unique leading term per record
_RECORDS: dict[str, tuple[str, str]] = {
    "rec-A": ("pat-1", "amber gradient noted on scan"),
    "rec-B": ("pat-2", "basil allergy documented today"),
    "rec-C": ("pat-1", "cobalt bruise on left arm"),
    "rec-D": ("pat-3", "dahlia rash persistent"),
}
_REVISED_B = "basil allergy documented today revised entry"


@dataclass(frozen=True)
class ScriptedOp:
    """One step of the conformance script."""

    kind: str
    args: dict = field(default_factory=dict)


def conformance_script() -> list[ScriptedOp]:
    """The fixed differential workload (order matters)."""
    return [
        ScriptedOp("store", {"record_id": "rec-A"}),
        ScriptedOp("store", {"record_id": "rec-B"}),
        ScriptedOp("store_many", {"record_ids": ("rec-C", "rec-D")}),
        ScriptedOp("read", {"record_id": "rec-A"}),
        ScriptedOp("read_probe", {"record_id": "rec-A"}),
        ScriptedOp("search", {"term": "cobalt"}),
        ScriptedOp("correct", {"record_id": "rec-B", "text": _REVISED_B}),
        ScriptedOp("read", {"record_id": "rec-B"}),
        ScriptedOp("read_version", {"record_id": "rec-B", "version": 0}),
        ScriptedOp("search", {"term": "revised"}),
        ScriptedOp("dispose", {"record_id": "rec-C"}),  # inside retention
        ScriptedOp("advance_years", {"years": 8.0}),
        ScriptedOp("dispose", {"record_id": "rec-C"}),  # past retention
        ScriptedOp("read", {"record_id": "rec-C"}),
        ScriptedOp("search", {"term": "cobalt"}),
        ScriptedOp("break_glass_read", {"record_id": "rec-D"}),
        ScriptedOp("audit_check", {}),
        ScriptedOp("integrity_check", {}),
    ]


@dataclass(frozen=True)
class Divergence:
    """One behaviour mismatch between a model and its reference."""

    op: str
    expected: str
    actual: str


@dataclass
class ConformanceReport:
    """Differential verdict for one model."""

    model_name: str
    ops_run: int
    divergences: tuple[Divergence, ...]

    @property
    def conformant(self) -> bool:
        return not self.divergences


# ---------------------------------------------------------------------------
# executing the script against a real model
# ---------------------------------------------------------------------------


def _note(record_id: str, clock: SimulatedClock | None, text: str = "") -> HealthRecord:
    patient_id, original = _RECORDS[record_id]
    now = clock.now() if clock is not None else _EPOCH
    return note(record_id, patient_id, now, text or original, "dr-a")


def _observe(label: str, fn: Callable[[], str]) -> Observation:
    try:
        detail = fn()
    except UnsupportedOperation:
        return Observation(label, "unsupported")
    except AccessDeniedError:
        return Observation(label, "denied")
    except RetentionError:
        return Observation(label, "retention-refused")
    except RecordNotFoundError:
        return Observation(label, "not-found")
    return Observation(label, "ok", detail)


def _execute(
    model: StorageModel, clock: SimulatedClock | None, label: str, op: ScriptedOp
) -> Observation:
    kind, args = op.kind, op.args
    if kind == "store":
        return _observe(
            label, lambda: (model.store(_note(args["record_id"], clock), "dr-a"), "")[1]
        )
    if kind == "store_many":
        notes = [_note(rid, clock) for rid in args["record_ids"]]
        return _observe(label, lambda: str(model.store_many(notes, "dr-a")))
    if kind == "read":
        return _observe(
            label,
            lambda: model.read(args["record_id"], actor_id="system").body.get(
                "text", ""
            ),
        )
    if kind == "read_probe":
        model.prepare_access_probe("probe-intruder")
        return _observe(
            label,
            lambda: model.read(
                args["record_id"], actor_id="probe-intruder"
            ).body.get("text", ""),
        )
    if kind == "correct":
        corrected = _note(args["record_id"], clock, args["text"])
        return _observe(
            label, lambda: (model.correct(corrected, "dr-a", "amended"), "")[1]
        )
    if kind == "read_version":
        return _observe(
            label,
            lambda: model.read_version(
                args["record_id"], args["version"], actor_id="system"
            ).body.get("text", ""),
        )
    if kind == "search":
        return _observe(
            label,
            lambda: ",".join(
                sorted(set(model.search(args["term"], actor_id="system")))
            ),
        )
    if kind == "advance_years":
        if clock is not None:
            clock.advance_years(args["years"])
        return Observation(label, "ok", "")
    if kind == "dispose":
        return _observe(
            label,
            lambda: (
                model.dispose(args["record_id"], actor_id="records-manager"),
                "",
            )[1],
        )
    if kind == "break_glass_read":
        return _break_glass_read(model, label, args["record_id"])
    if kind == "audit_check":
        report = model.verify_audit_trail()
        # render the report back to the tri-state the reference scripts
        # were written against: True / False / None (no audit machinery)
        verify = report.ok if report is not None else None
        events = "some" if model.audit_events() else "none"
        return Observation(label, "ok", f"verify={verify},events={events}")
    if kind == "integrity_check":
        return Observation(label, "ok", ",".join(model.verify_integrity().violations))
    raise ValueError(f"unknown scripted op {kind!r}")


def _break_glass_read(model: StorageModel, label: str, record_id: str) -> Observation:
    """Emergency access is native curator API, not part of the common
    facade: a model without it observes ``unsupported`` (which the
    reference expects of it)."""
    if not hasattr(model, "break_glass"):
        return Observation(label, "unsupported")
    from repro.access.principals import Role, User

    patient_id, _ = _RECORDS[record_id]
    model.register_user(User.make("dr-er", "ER physician", [Role.PHYSICIAN]))

    def attempt() -> str:
        try:
            model.read(record_id, actor_id="dr-er")
            return "not-denied"
        except AccessDeniedError:
            pass
        model.break_glass("dr-er", patient_id, "night-shift emergency")
        record = model.read(record_id, actor_id="dr-er")
        return f"denied-then:{record.body.get('text', '')}"

    return _observe(label, attempt)


# ---------------------------------------------------------------------------
# the reference's expectation for the same script
# ---------------------------------------------------------------------------


def _expect(reference: ReferenceModel, label: str, op: ScriptedOp) -> Observation:
    kind, args = op.kind, op.args
    if kind == "store":
        return reference.store(label, args["record_id"], _RECORDS[args["record_id"]][1])
    if kind == "store_many":
        return reference.store_many(
            label, [(rid, _RECORDS[rid][1]) for rid in args["record_ids"]]
        )
    if kind == "read":
        return reference.read(label, args["record_id"])
    if kind == "read_probe":
        return reference.read_probe(label, args["record_id"])
    if kind == "correct":
        return reference.correct(label, args["record_id"], args["text"])
    if kind == "read_version":
        return reference.read_version(label, args["record_id"], args["version"])
    if kind == "search":
        return reference.search(label, args["term"])
    if kind == "advance_years":
        return reference.advance_years(label)
    if kind == "dispose":
        return reference.dispose(label, args["record_id"])
    if kind == "break_glass_read":
        return reference.break_glass_read(label, args["record_id"])
    if kind == "audit_check":
        return reference.audit_check(label)
    if kind == "integrity_check":
        return reference.integrity_check(label)
    raise ValueError(f"unknown scripted op {kind!r}")


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------

ModelFactory = Callable[[], tuple[StorageModel, SimulatedClock | None]]


def default_model_factories() -> dict[str, ModelFactory]:
    """Fresh-instance factories for all six models (script ops are
    destructive, so every conformance run gets its own instances)."""
    from repro.baselines import (
        EncryptedStore,
        HippocraticStore,
        ObjectStore,
        PlainWormStore,
        RelationalStore,
    )

    def curator() -> tuple[StorageModel, SimulatedClock]:
        deployment = deploy()
        return deployment.surface, deployment.clock

    def plainworm() -> tuple[StorageModel, SimulatedClock]:
        clock = SimulatedClock(start=_EPOCH)
        return PlainWormStore(clock=clock), clock

    return {
        "relational": lambda: (RelationalStore(), None),
        "encrypted": lambda: (EncryptedStore(), None),
        "hippocratic": lambda: (HippocraticStore(), None),
        "objectstore": lambda: (ObjectStore(), None),
        "plainworm": plainworm,
        "curator": curator,
    }


def run_model_conformance(
    model: StorageModel, clock: SimulatedClock | None
) -> ConformanceReport:
    """Replay the script through one model, diffing against its reference."""
    reference = ReferenceModel(
        model.declared_features(),
        has_version_history=(
            type(model).read_version is not StorageModel.read_version
        ),
        has_break_glass=hasattr(model, "break_glass"),
    )
    divergences: list[Divergence] = []
    script = conformance_script()
    for index, op in enumerate(script):
        target = next(iter(op.args.values()), "") if op.args else ""
        label = f"{index:02d}:{op.kind}" + (f":{target}" if target else "")
        expected = _expect(reference, label, op)
        actual = _execute(model, clock, label, op)
        if expected != actual:
            divergences.append(
                Divergence(
                    op=label,
                    expected=f"{expected.outcome}/{expected.detail}",
                    actual=f"{actual.outcome}/{actual.detail}",
                )
            )
    return ConformanceReport(
        model_name=model.model_name,
        ops_run=len(script),
        divergences=tuple(divergences),
    )


def run_conformance(
    factories: dict[str, ModelFactory] | None = None,
) -> dict[str, ConformanceReport]:
    """Run the differential script over every model; returns per-model
    reports keyed by model name."""
    factories = factories or default_model_factories()
    reports: dict[str, ConformanceReport] = {}
    for name, factory in factories.items():
        model, clock = factory()
        reports[name] = run_model_conformance(model, clock)
    return reports


def render_conformance(reports: dict[str, ConformanceReport]) -> str:
    """Human-readable conformance table with divergence details."""
    width = max(len(name) for name in reports)
    lines = ["differential conformance (vs feature-aware reference):"]
    for name in sorted(reports):
        report = reports[name]
        verdict = (
            "CONFORMANT"
            if report.conformant
            else f"{len(report.divergences)} DIVERGENCES"
        )
        lines.append(f"  {name:<{width}}  {report.ops_run:3d} ops  {verdict}")
        for divergence in report.divergences:
            lines.append(
                f"    {divergence.op}: expected {divergence.expected}, "
                f"got {divergence.actual}"
            )
    return "\n".join(lines)
