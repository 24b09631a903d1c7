"""Signed custody chains for stored objects.

A custody chain is a sequence of events for one object::

    ORIGIN(custodian A, digest d0)
      -> TRANSFER(A -> B, digest d0, signed by A)
      -> TRANSFER(B -> C, digest d0', signed by B)   # d0' must equal d0

Verification checks:

* the chain begins with exactly one ORIGIN;
* custody is continuous (each transfer's sender is the previous holder);
* each transfer is signed by the *releasing* custodian (you cannot be
  handed a record by someone who never signed it away);
* the object digest is constant across hops — a transfer that changes
  bytes is migration *plus tampering*, and surfaces here.

Signatures come from :mod:`repro.crypto.signatures`; the registry holds
a :class:`~repro.crypto.signatures.TrustStore` of known custodians.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.crypto.signatures import SignedPayload, Signer, TrustStore
from repro.errors import ProvenanceError


@dataclass(frozen=True)
class CustodyEvent:
    """One signed event in an object's custody history."""

    object_id: str
    event_type: str  # "origin" | "transfer"
    from_custodian: str  # "" for origin
    to_custodian: str
    object_digest: bytes
    timestamp: float
    reason: str
    signed: SignedPayload

    @staticmethod
    def payload(
        object_id: str,
        event_type: str,
        from_custodian: str,
        to_custodian: str,
        object_digest: bytes,
        timestamp: float,
        reason: str,
    ) -> dict[str, Any]:
        return {
            "object_id": object_id,
            "event_type": event_type,
            "from": from_custodian,
            "to": to_custodian,
            "digest": object_digest,
            "timestamp": timestamp,
            "reason": reason,
        }


class CustodyChain:
    """The ordered custody events of one object."""

    def __init__(self, object_id: str) -> None:
        self.object_id = object_id
        self._events: list[CustodyEvent] = []

    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> list[CustodyEvent]:
        return list(self._events)

    def current_custodian(self) -> str:
        if not self._events:
            raise ProvenanceError(f"object {self.object_id} has no custody history")
        return self._events[-1].to_custodian

    def append(self, event: CustodyEvent) -> None:
        if event.object_id != self.object_id:
            raise ProvenanceError(
                f"event for {event.object_id} appended to chain of {self.object_id}"
            )
        self._events.append(event)

    def verify(self, trust: TrustStore) -> None:
        """Full chain verification; raises :class:`ProvenanceError`."""
        if not self._events:
            raise ProvenanceError(f"object {self.object_id}: empty custody chain")
        first = self._events[0]
        if first.event_type != "origin":
            raise ProvenanceError(
                f"object {self.object_id}: chain does not start at an origin"
            )
        digest = first.object_digest
        holder = first.to_custodian
        for position, event in enumerate(self._events):
            if position > 0 and event.event_type != "transfer":
                raise ProvenanceError(
                    f"object {self.object_id}: duplicate origin at position {position}"
                )
            # 1. signature: origin signed by the first custodian,
            #    transfers by the releasing party.
            expected_signer = event.to_custodian if event.event_type == "origin" else event.from_custodian
            if event.signed.signer_id != expected_signer:
                raise ProvenanceError(
                    f"object {self.object_id}: event {position} signed by "
                    f"{event.signed.signer_id!r}, expected {expected_signer!r}"
                )
            try:
                payload = trust.verify(event.signed)
            except Exception as exc:
                raise ProvenanceError(
                    f"object {self.object_id}: event {position} signature invalid: {exc}"
                ) from exc
            # 2. the signed payload must match the event fields.
            expected = CustodyEvent.payload(
                event.object_id,
                event.event_type,
                event.from_custodian,
                event.to_custodian,
                event.object_digest,
                event.timestamp,
                event.reason,
            )
            if payload != expected:
                raise ProvenanceError(
                    f"object {self.object_id}: event {position} payload mismatch"
                )
            # 3. continuity and digest stability.
            if position > 0:
                if event.from_custodian != holder:
                    raise ProvenanceError(
                        f"object {self.object_id}: custody gap at position "
                        f"{position}: {event.from_custodian!r} transferred but "
                        f"{holder!r} held it"
                    )
                if event.object_digest != digest:
                    raise ProvenanceError(
                        f"object {self.object_id}: digest changed in transit at "
                        f"position {position}"
                    )
                holder = event.to_custodian

    def custodians(self) -> list[str]:
        """Every party that ever held the object, in order."""
        return [event.to_custodian for event in self._events]


class CustodyRegistry:
    """Creates and stores custody chains for a site."""

    def __init__(self, trust: TrustStore) -> None:
        self._trust = trust
        self._chains: dict[str, CustodyChain] = {}

    @property
    def trust(self) -> TrustStore:
        return self._trust

    def register_custodian(self, signer: Signer) -> None:
        self._trust.add(signer.verifier())

    def record_origin(
        self,
        object_id: str,
        custodian: Signer,
        object_digest: bytes,
        timestamp: float,
        reason: str = "created",
    ) -> CustodyEvent:
        """Open one object's custody chain — a batch of one: the origin
        is an aggregate-signed payload with ``leaf_count == 1``."""
        return self.record_origins(
            [(object_id, object_digest)], custodian, timestamp, reason
        )[0]

    def expatriate(self, object_id: str) -> None:
        """Drop the chain of an object whose custody left this store.

        Used only by patient retirement after a verified migration: the
        destination opens a fresh origin chain (reason ``migrated from
        <source>``) and cross-store continuity is attested by the signed
        migration manifest plus the transferred audit segment — keeping
        the stale chain here would let a round-trip move collide with
        the re-imported copy's new origin."""
        self._chains.pop(object_id, None)

    def record_origins(
        self,
        entries: list[tuple[str, bytes]],
        custodian: Signer,
        timestamp: float,
        reason: str = "created",
    ) -> list[CustodyEvent]:
        """Record origin events for ``(object_id, digest)`` pairs — one
        or many — with ONE signature over the batch's Merkle root.

        Each event's :class:`~repro.crypto.signatures.AggregateSignedPayload`
        carries its own inclusion proof, so :meth:`CustodyChain.verify`
        detects tampering with any single record however large the
        batch; only the private-key cost is shared.  All-or-nothing:
        an id that already has a chain, or appears twice, rejects the
        batch before anything is signed.
        """
        if not entries:
            return []
        seen: set[str] = set()
        for object_id, _ in entries:
            if object_id in self._chains:
                raise ProvenanceError(
                    f"object {object_id} already has a custody chain"
                )
            if object_id in seen:
                raise ProvenanceError(
                    f"object {object_id} appears twice in one origin batch"
                )
            seen.add(object_id)
        payloads = [
            CustodyEvent.payload(
                object_id, "origin", "", custodian.signer_id, digest, timestamp, reason
            )
            for object_id, digest in entries
        ]
        signed_batch = custodian.sign_batch(payloads)
        events = []
        for (object_id, digest), signed in zip(entries, signed_batch):
            event = CustodyEvent(
                object_id=object_id,
                event_type="origin",
                from_custodian="",
                to_custodian=custodian.signer_id,
                object_digest=digest,
                timestamp=timestamp,
                reason=reason,
                signed=signed,
            )
            chain = CustodyChain(object_id)
            chain.append(event)
            self._chains[object_id] = chain
            events.append(event)
        return events

    def record_transfer(
        self,
        object_id: str,
        releasing: Signer,
        receiving_id: str,
        object_digest: bytes,
        timestamp: float,
        reason: str,
    ) -> CustodyEvent:
        chain = self.chain_for(object_id)
        if chain.current_custodian() != releasing.signer_id:
            raise ProvenanceError(
                f"{releasing.signer_id!r} cannot release object {object_id}: "
                f"current custodian is {chain.current_custodian()!r}"
            )
        payload = CustodyEvent.payload(
            object_id,
            "transfer",
            releasing.signer_id,
            receiving_id,
            object_digest,
            timestamp,
            reason,
        )
        event = CustodyEvent(
            object_id=object_id,
            event_type="transfer",
            from_custodian=releasing.signer_id,
            to_custodian=receiving_id,
            object_digest=object_digest,
            timestamp=timestamp,
            reason=reason,
            signed=releasing.sign(payload),
        )
        chain.append(event)
        return event

    def chain_for(self, object_id: str) -> CustodyChain:
        chain = self._chains.get(object_id)
        if chain is None:
            raise ProvenanceError(f"object {object_id} has no custody chain")
        return chain

    def verify_all(self) -> dict[str, str]:
        """Verify every chain; returns {object_id: problem} for failures."""
        problems = {}
        for object_id, chain in sorted(self._chains.items()):
            try:
                chain.verify(self._trust)
            except ProvenanceError as exc:
                problems[object_id] = str(exc)
        return problems

    def object_ids(self) -> list[str]:
        return sorted(self._chains)
