"""The crash-recovery oracle: sweep every write boundary, hold
recovery to the durability contract.

The contract, stated once and asserted at every crash point:

1. **Acked is durable** — every record whose ``store``/``store_many``/
   ``correct``/``dispose`` call returned before the crash is served
   after recovery exactly as acknowledged: byte-equal current text,
   full version count, findable through the index; disposed records
   stay gone.  Acked creations also keep their ``record_created``
   audit events (the engine only acks after the audit flush).
2. **In-flight is atomic** — the one interrupted operation is all-or-
   nothing.  A ``store_many`` batch never recovers partially; a
   correction serves either the old or the new text, never a mixture;
   an interrupted disposal leaves the record either fully served or
   fully unreadable.
3. **Evidence verifies** — the recovered audit hash chain verifies
   against the surviving external witnesses (anchored prefix
   included), and the engine's own integrity check is clean.
4. **The engine lives on** — the recovered engine accepts and serves a
   fresh write (the allocator really found the valid tail).

:func:`run_crash_sweep` first dry-runs the seeded workload to count
write boundaries, then re-runs it once per (boundary, variant) pair —
variant *clean* drops the K-th write whole, variant *torn* commits its
first half — recovering from surviving images each time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.audit.events import AuditAction
from repro.core.engine import CuratorStore
from repro.errors import RecordNotFoundError
from repro.verify.crashpoint import CrashController
from repro.verify.substrate import deploy, note, restarted
from repro.verify.workload import WorkloadRun, run_seeded_workload


@dataclass(frozen=True)
class Violation:
    """One broken clause of the durability contract."""

    crash_at: int
    torn: bool
    description: str


@dataclass
class CrashSweepReport:
    """Outcome of one full sweep."""

    boundaries: int
    cases_run: int
    crash_points: tuple[int, ...]
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        lines = [
            f"crash sweep: {self.boundaries} write boundaries, "
            f"{len(self.crash_points)} swept, {self.cases_run} cases "
            f"(clean + torn), {len(self.violations)} violations"
        ]
        for violation in self.violations:
            kind = "torn" if violation.torn else "clean"
            lines.append(
                f"  VIOLATION at write {violation.crash_at} ({kind}): "
                f"{violation.description}"
            )
        return "\n".join(lines)


def _armed(crash_at: int | None = None, torn: bool = False):
    """A fresh engine with a crash controller on its devices, and the
    seeded workload run on it (to the crash, when one is armed)."""
    # small anchor threshold: crash points inside the anchor/flush
    # path, not around it
    deployment = deploy(anchor_every_events=8)
    controller = CrashController()
    controller.attach(deployment.surface.devices())
    if crash_at is not None:
        controller.arm(crash_at, torn=torn)
    run = run_seeded_workload(deployment.surface, deployment.clock)
    return deployment, controller, run


def _check_recovery(
    recovered: CuratorStore, run: WorkloadRun, fail
) -> None:
    """Assert the durability contract clauses 1-4 (see module doc)."""
    flight_ids = set(run.in_flight.record_ids) if run.in_flight else set()

    # clause 3: evidence
    if not recovered.verify_audit_trail().ok:
        fail("recovered audit chain/anchors do not verify")
    integrity = recovered.verify_integrity()
    if integrity.violations:
        fail(f"recovered integrity check flagged {integrity.violations}")

    # clause 1: acked state
    events = recovered.audit_events()
    created = {
        event["subject_id"]
        for event in events
        if event["action"] == AuditAction.RECORD_CREATED.value
    }
    live = recovered.record_ids()
    for record_id, exp in run.expected.items():
        if record_id in flight_ids:
            # the crash interrupted an operation on this record; clause 2
            # owns it (either the old acked state or the new one is legal)
            continue
        if exp.disposed:
            if record_id in live:
                fail(f"disposed record {record_id} is served after recovery")
            try:
                recovered.read(record_id, actor_id="system")
                fail(f"disposed record {record_id} is readable after recovery")
            except RecordNotFoundError:
                pass
            if record_id in recovered.search(exp.term, actor_id="system"):
                fail(f"disposed record {record_id} is indexed after recovery")
            continue
        try:
            record = recovered.read(record_id, actor_id="system")
        except Exception as exc:  # noqa: BLE001 — any failure is a finding
            fail(f"acked record {record_id} unreadable after recovery: {exc!r}")
            continue
        if record.body.get("text") != exp.text:
            fail(
                f"acked record {record_id} text drifted: "
                f"{record.body.get('text')!r} != {exp.text!r}"
            )
        if recovered.version_count(record_id) != exp.versions:
            fail(
                f"acked record {record_id} has "
                f"{recovered.version_count(record_id)} versions, "
                f"expected {exp.versions}"
            )
        if record_id not in recovered.search(exp.term, actor_id="system"):
            fail(f"acked record {record_id} lost from the index after recovery")
        if record_id not in created:
            fail(f"acked record {record_id} has no record_created audit event")

    # clause 2: in-flight atomicity
    flight = run.in_flight
    if flight is not None and flight.kind in ("store", "store_many"):
        present = [rid for rid in flight.record_ids if rid in live]
        if present and len(present) != len(flight.record_ids):
            fail(
                f"in-flight {flight.kind} partially visible: "
                f"{present} of {list(flight.record_ids)}"
            )
        for record_id in present:
            exp = flight.committed[record_id]
            record = recovered.read(record_id, actor_id="system")
            if record.body.get("text") != exp.text:
                fail(
                    f"in-flight {flight.kind} surfaced record {record_id} "
                    f"with wrong text {record.body.get('text')!r}"
                )
    elif flight is not None and flight.kind == "correct":
        (record_id,) = flight.record_ids
        before = run.expected.get(record_id)
        after = flight.committed[record_id]
        try:
            record = recovered.read(record_id, actor_id="system")
            versions = recovered.version_count(record_id)
        except Exception as exc:  # noqa: BLE001
            fail(f"record {record_id} lost to an in-flight correction: {exc!r}")
        else:
            old = (before.versions, before.text) if before else None
            new = (after.versions, after.text)
            if (versions, record.body.get("text")) not in {old, new}:
                fail(
                    f"in-flight correction of {record_id} left a mixture: "
                    f"{versions} versions, text {record.body.get('text')!r}"
                )
    elif flight is not None and flight.kind == "dispose":
        (record_id,) = flight.record_ids
        before = run.expected.get(record_id)
        try:
            record = recovered.read(record_id, actor_id="system")
        except RecordNotFoundError:
            pass  # destruction effectively completed — acceptable
        except Exception as exc:  # noqa: BLE001
            fail(
                f"in-flight disposal of {record_id} left it half-readable: "
                f"{exc!r}"
            )
        else:
            if before is not None and record.body.get("text") != before.text:
                fail(
                    f"in-flight disposal of {record_id} corrupted the "
                    f"still-live record"
                )

    # no resurrections: everything served must be accounted for
    expected_live = {
        record_id
        for record_id, exp in run.expected.items()
        if not exp.disposed
    }
    unexpected = set(live) - expected_live - flight_ids
    if unexpected:
        fail(f"recovery surfaced unexpected records {sorted(unexpected)}")

    # clause 4: the recovered engine accepts new work
    now = recovered._clock.now()  # noqa: SLF001 — test substrate
    probe = note("probe-post-crash", "pat-probe", now, "probe after recovery", "dr-probe")
    try:
        recovered.store(probe, "dr-probe")
        stored = recovered.read("probe-post-crash", actor_id="system")
        if stored.body.get("text") != "probe after recovery":
            fail("post-recovery probe write read back wrong bytes")
    except Exception as exc:  # noqa: BLE001
        fail(f"recovered engine rejected a fresh write: {exc!r}")


def _run_case(crash_at: int, torn: bool) -> list[Violation]:
    """One crash point: run, crash, recover from images, check."""
    violations: list[Violation] = []

    def fail(description: str) -> None:
        violations.append(Violation(crash_at, torn, description))

    deployment, _controller, run = _armed(crash_at, torn)
    if not run.crashed:
        fail("armed crash point was never reached")
        return violations
    try:
        restarted(deployment)
    except Exception as exc:  # noqa: BLE001 — recovery must never die
        fail(f"recovery raised {exc!r}")
        return violations
    _check_recovery(deployment.surface, run, fail)
    return violations


def run_crash_sweep(
    limit: int | None = None,
    torn: bool = True,
    progress=None,
) -> CrashSweepReport:
    """Sweep the seeded workload's write boundaries.

    ``limit`` bounds how many crash points are swept (an evenly-spaced
    sample that always includes the first and last boundary) so CI can
    run a cheap slice; the default sweeps every boundary.  ``torn``
    adds the torn-prefix variant at each point.  ``progress`` (crash_at,
    torn, violations_so_far) is called after each case.
    """
    _deployment, controller, baseline = _armed()
    if baseline.crashed:
        raise RuntimeError("dry run crashed without an armed crash point")
    boundaries = controller.writes_observed
    if limit is not None and 0 < limit < boundaries:
        if limit == 1:
            points = [boundaries]
        else:
            step = (boundaries - 1) / (limit - 1)
            points = sorted({round(1 + i * step) for i in range(limit)})
    else:
        points = list(range(1, boundaries + 1))
    violations: list[Violation] = []
    cases = 0
    for crash_at in points:
        for torn_flag in (False, True) if torn else (False,):
            cases += 1
            violations.extend(_run_case(crash_at, torn_flag))
            if progress is not None:
                progress(crash_at, torn_flag, len(violations))
    return CrashSweepReport(
        boundaries=boundaries,
        cases_run=cases,
        crash_points=tuple(points),
        violations=tuple(violations),
    )
