"""The end-of-life disposition workflow.

HIPAA §164.310(d)(2)(i) requires *policies and procedures* for final
disposition — not just the ability to delete.  The workflow here:

1. ``identify()`` — sweep the WORM store's retention state for records
   past their term with no litigation hold;
2. ``approve(record_id, approver)`` — a human (records manager) signs
   off; records under review cannot be destroyed;
3. ``execute(record_id)`` — tombstone in the store, shred key + extents
   via :class:`~repro.retention.shredder.SecureShredder`, emit a
   :class:`DispositionCertificate`.

Skipping a step raises :class:`~repro.errors.DispositionError`.  The
engine layer audits each transition.

Whether a step may proceed is decided by the disposition ruleset
(:data:`repro.policy.rules.DISPOSITION_RULES`): the workflow
measures ticket facts, the policy engine decides, and the *allow
decision itself* is the destruction authorization handed to the
shredder and the WORM tombstone — a forgeable boolean no longer exists
anywhere on the destruction path.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from repro.crypto.keys import KeyHandle
from repro.errors import DispositionError
from repro.policy.engine import PolicyEngine, PolicyEnv
from repro.policy.model import DESTRUCTION_ACTION, Decision, PolicyContext
from repro.policy.rules import DISPOSITION_RULES
from repro.retention.shredder import SecureShredder, ShredReport
from repro.util.clock import Clock, WallClock
from repro.worm.store import WormStore


class DispositionState(enum.Enum):
    IDENTIFIED = "identified"
    APPROVED = "approved"
    DESTROYED = "destroyed"


@dataclass(frozen=True)
class DispositionCertificate:
    """The durable proof a record was lawfully destroyed."""

    object_id: str
    identified_at: float
    approved_at: float
    approved_by: str
    destroyed_at: float
    shred_report: ShredReport


@dataclass
class _Ticket:
    object_id: str
    state: DispositionState
    identified_at: float
    approved_at: float | None = None
    approved_by: str = ""


class DispositionWorkflow:
    """Identify → approve → execute, with no shortcuts."""

    def __init__(
        self,
        store: WormStore,
        shredder: SecureShredder,
        key_handle_for: Callable[[str], KeyHandle | None],
        clock: Clock | None = None,
    ) -> None:
        """*key_handle_for* answers an object's data key (``None`` for
        an object no record owns) at the moment it is destroyed."""
        self._store = store
        self._shredder = shredder
        self._clock = clock or WallClock()
        self._key_handle_for = key_handle_for
        self._tickets: dict[str, _Ticket] = {}
        self._certificates: dict[str, DispositionCertificate] = {}
        self._policy = PolicyEngine(
            DISPOSITION_RULES,
            env=PolicyEnv(retention=store.retention, clock=self._clock),
        )

    def _decide(self, actor: str, action: str, object_id: str, **facts) -> Decision:
        """One policy decision over measured ticket facts; raises the
        typed denial (DispositionError / RetentionError) on deny."""
        return self._policy.decide(
            actor, action, object_id, PolicyContext(facts=facts)
        ).require()

    # -- step 1: identify ----------------------------------------------------

    def identify(self) -> list[str]:
        """Sweep for destroyable records; opens tickets for new ones."""
        now = self._clock.now()
        newly = []
        for object_id in self._store.retention.expired_objects(now):
            if object_id in self._tickets or object_id in self._certificates:
                continue
            if object_id not in self._store:
                continue  # already tombstoned outside the workflow
            self._tickets[object_id] = _Ticket(
                object_id=object_id,
                state=DispositionState.IDENTIFIED,
                identified_at=now,
            )
            newly.append(object_id)
        return newly

    def pending(self) -> list[str]:
        """Tickets awaiting approval."""
        return sorted(
            object_id
            for object_id, ticket in self._tickets.items()
            if ticket.state is DispositionState.IDENTIFIED
        )

    # -- step 2: approve ------------------------------------------------------

    def approve(self, object_id: str, approver: str) -> None:
        ticket = self._tickets.get(object_id)
        self._decide(
            approver or "anonymous",
            "approve_disposition",
            object_id,
            ticket_missing=ticket is None,
            ticket_not_awaiting=(
                ticket is not None and ticket.state is not DispositionState.IDENTIFIED
            ),
            ticket_state=ticket.state.value if ticket is not None else "absent",
            approver_named=bool(approver),
        )
        ticket.state = DispositionState.APPROVED
        ticket.approved_at = self._clock.now()
        ticket.approved_by = approver

    # -- step 3: execute ---------------------------------------------------------

    def execute(self, object_id: str) -> DispositionCertificate:
        """Destroy the record and certify it.

        The zeroed extent leaves its WORM frame's checksum broken, and
        nothing reseals it: reads check only each object's own digest,
        and the WORM open keeps a broken last frame that holds a
        shredded object (the engine's ``certified_hole``)."""
        ticket = self._tickets.get(object_id)
        # One decision covers the whole execution: ticket lifecycle
        # facts plus the live retention re-check (a hold may have
        # landed between approval and execution).  The allow decision
        # is the destruction authorization the tombstone and the
        # shredder both verify.
        authorization = self._decide(
            ticket.approved_by if ticket is not None else "anonymous",
            DESTRUCTION_ACTION,
            object_id,
            ticket_missing=ticket is None,
            ticket_not_approved=(
                ticket is not None and ticket.state is not DispositionState.APPROVED
            ),
            ticket_state=ticket.state.value if ticket is not None else "absent",
        )
        offset, size = self._store.physical_extent(object_id)
        self._store.delete(object_id, authorization=authorization)
        report = self._shredder.shred(
            object_id=object_id,
            key_handle=self._key_handle_for(object_id),
            extents=[(self._store.device, offset, size)],
            authorization=authorization,
        )
        ticket.state = DispositionState.DESTROYED
        certificate = DispositionCertificate(
            object_id=object_id,
            identified_at=ticket.identified_at,
            approved_at=ticket.approved_at or 0.0,
            approved_by=ticket.approved_by,
            destroyed_at=self._clock.now(),
            shred_report=report,
        )
        self._certificates[object_id] = certificate
        del self._tickets[object_id]
        return certificate

    def certificate_for(self, object_id: str) -> DispositionCertificate:
        certificate = self._certificates.get(object_id)
        if certificate is None:
            raise DispositionError(f"no disposition certificate for {object_id}")
        return certificate

    def certificates(self) -> list[DispositionCertificate]:
        return [self._certificates[k] for k in sorted(self._certificates)]

    def run_full_cycle(self, approver: str) -> list[DispositionCertificate]:
        """Convenience: identify, approve, and execute everything due."""
        self.identify()
        issued = []
        for object_id in self.pending():
            self.approve(object_id, approver)
            issued.append(self.execute(object_id))
        return issued
