"""Forensic queries over the audit trail.

After a suspected breach, the privacy officer needs answers fast:
who accessed this patient's records, what did this workforce member do
last quarter, were there emergency accesses without follow-up review,
how many denials did each actor accumulate.  :class:`AuditQuery` wraps
an :class:`~repro.audit.log.AuditLog` with those questions.

All queries verify the chain first by default — forensic conclusions
drawn from a tampered log are worse than none.  Verification is
**proof-carrying and per-session**: the first query of a session runs a
verification (incremental when the log holds a sealed watermark, which
escalates to a full rescan otherwise), and subsequent queries reuse
that result until the log grows.  :meth:`AuditQuery.evidence` exposes
what the session's conclusions rest on, and :meth:`AuditQuery.prove`
turns any returned event into a third-party-checkable Merkle inclusion
proof.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable

from repro.audit.events import AuditAction, AuditEvent
from repro.audit.log import AuditLog, ChainVerification
from repro.errors import AuditError
from repro.records.ids import subject_record

_ACCESS_ACTIONS = frozenset(
    {
        AuditAction.RECORD_READ,
        AuditAction.RECORD_CREATED,
        AuditAction.RECORD_CORRECTED,
        AuditAction.RECORD_SEARCHED,
        AuditAction.RECORD_EXPORTED,
        AuditAction.EMERGENCY_ACCESS,
    }
)


class AuditQuery:
    """Read-only forensic interface over an audit log.

    ``incremental=False`` restores the old behaviour (a full rescan
    before every single query) for callers that want it.
    """

    def __init__(
        self, log: AuditLog, verify_first: bool = True, incremental: bool = True
    ) -> None:
        self._log = log
        self._verify_first = verify_first
        self._incremental = incremental
        self._verification: ChainVerification | None = None
        self._verified_size: int | None = None

    def _events(self) -> list[AuditEvent]:
        if self._verify_first:
            size = len(self._log)
            if self._verification is None or self._verified_size != size:
                verification = self._log.verify_chain(
                    incremental=self._incremental
                )
                if not verification:
                    raise AuditError(
                        "refusing to query a tampered audit log: "
                        f"{verification.problem}"
                    )
                self._verification = verification
                self._verified_size = size
        return self._log.events()

    def evidence(self) -> dict:
        """What backs this session's conclusions: the verification mode
        and coverage, plus the chain head and Merkle root the verified
        log commits to.  Attach it to a forensic report so a reviewer
        can see *how* the log was checked, not just that it was."""
        verification = self._verification
        return {
            "verified": verification.ok if verification else False,
            "mode": verification.mode if verification else None,
            "escalated": verification.escalated if verification else False,
            "events_checked": verification.events_checked if verification else 0,
            "spot_checked": verification.spot_checked if verification else 0,
            "log_size": self._verified_size,
            "chain_head": self._log.head_digest,
            "merkle_root": self._log.merkle_root(),
        }

    def prove(self, sequence: int):
        """Merkle inclusion proof for one returned event — lets the
        officer hand a single event to a court or patient with proof it
        belongs to the (anchored) log.  Returns ``(event, chain_prev,
        proof)``; see :func:`repro.audit.log.verify_event_proof`."""
        return self._log.prove_event(sequence)

    def filter(self, predicate: Callable[[AuditEvent], bool]) -> list[AuditEvent]:
        """Generic filtered view."""
        return [event for event in self._events() if predicate(event)]

    def accesses_to(self, subject_id: str) -> list[AuditEvent]:
        """Every access-class event touching *subject_id* (HIPAA
        accounting-of-disclosures)."""
        return self.disclosure_accounting([subject_id])

    def actions_by(self, actor_id: str) -> list[AuditEvent]:
        """Everything a workforce member did."""
        return self.filter(lambda e: e.actor_id == actor_id)

    def in_window(self, start: float, end: float) -> list[AuditEvent]:
        """Events with start <= timestamp < end."""
        return self.filter(lambda e: start <= e.timestamp < end)

    def by_action(self, action: AuditAction) -> list[AuditEvent]:
        return self.filter(lambda e: e.action is action)

    def emergency_accesses(self) -> list[AuditEvent]:
        """Break-glass events — each one requires after-the-fact review."""
        return self.by_action(AuditAction.EMERGENCY_ACCESS)

    def denial_counts(self) -> dict[str, int]:
        """Denied-access counts per actor; repeated denials signal probing."""
        return dict(Counter(e.actor_id for e in self.by_action(AuditAction.ACCESS_DENIED)))

    def suspicious_actors(self, denial_threshold: int = 5) -> list[str]:
        """Actors whose denial count reaches the threshold."""
        return sorted(
            actor
            for actor, count in self.denial_counts().items()
            if count >= denial_threshold
        )

    def disclosure_accounting(self, patient_record_ids: list[str]) -> list[AuditEvent]:
        """All access events over a patient's record set, time-ordered —
        the report HIPAA lets individuals request."""
        return disclosures(self._events(), patient_record_ids)


def disclosures(events: Iterable[AuditEvent], record_ids: Iterable[str]) -> list[AuditEvent]:
    """Access-class events among *events* over *record_ids* or their attachments."""
    wanted = set(record_ids)
    return [e for e in events
            if subject_record(e.subject_id) in wanted and e.action in _ACCESS_ACTIONS]
