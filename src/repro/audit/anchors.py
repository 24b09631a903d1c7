"""External anchoring of the audit log.

A bare hash chain is tamper-evident against *modification* but not
against *truncation*: an insider who controls the whole device can chop
the tail of the log and the remaining prefix still verifies.  The
classic countermeasure is to periodically publish a commitment to an
external witness the insider does not control.

:class:`AnchorWitness` simulates that witness (a regulator's inbox, a
public ledger).  Each :class:`AuditAnchor` carries the log size, the
Merkle root at that size, and the site's signature.  Checking a log
against its witness:

* the latest anchor's size must not exceed the log (else: truncation);
* the log's Merkle root *at each anchored size* must equal the anchored
  root (else: history rewriting);
* consecutive anchors must be Merkle-consistent (else: the site forked
  its history between publications).

None of it grows with the log: :class:`~repro.crypto.merkle.MerkleTree`
keeps every perfect-subtree root, so the consistency proof a witness
demands on :meth:`AnchorWitness.receive` is O(log^2 n) hashes at worst
and each historical root :meth:`AnchorWitness.check_log` recomputes is
O(log n) — publishing an anchor every *k* events costs the same at event
one million as at event sixty-four, and a full check is
O(anchors x log n).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.audit.events import AuditAction, AuditEvent
from repro.audit.log import AuditLog
from repro.crypto.merkle import verify_consistency
from repro.crypto.signatures import SignedPayload, Signer, Verifier
from repro.errors import AuditError
from repro.util.clock import Clock


@dataclass(frozen=True)
class AuditAnchor:
    """One published commitment: (size, merkle_root) signed by the site."""

    log_size: int
    merkle_root: bytes
    published_at: float
    signed: SignedPayload


class AnchorWitness:
    """The external party that receives and validates anchors."""

    def __init__(self, site_verifier: Verifier) -> None:
        self._verifier = site_verifier
        self._anchors: list[AuditAnchor] = []

    @property
    def anchors(self) -> list[AuditAnchor]:
        return list(self._anchors)

    def latest(self) -> AuditAnchor | None:
        return self._anchors[-1] if self._anchors else None

    def receive(self, anchor: AuditAnchor, log: AuditLog) -> None:
        """Accept a new anchor after validating signature and consistency.

        The witness demands a consistency proof against its previous
        anchor, which it checks itself — the site cannot fork history
        between publications without detection.
        """
        payload = self._verifier.verify(anchor.signed)
        if payload["log_size"] != anchor.log_size or payload["merkle_root"] != anchor.merkle_root:
            raise AuditError("anchor payload does not match signed content")
        previous = self.latest()
        if previous is not None:
            if anchor.log_size < previous.log_size:
                raise AuditError(
                    f"anchor shrinks the log: {previous.log_size} -> {anchor.log_size}"
                )
            proof = log.merkle_tree().prove_consistency(previous.log_size)
            verify_consistency(
                previous.merkle_root,
                anchor.merkle_root,
                previous.log_size,
                anchor.log_size,
                proof,
            )
        self._anchors.append(anchor)

    def check_log(self, log: AuditLog) -> None:
        """Audit a log against everything this witness has seen.

        Raises :class:`AuditError` on truncation or history rewriting.
        Every anchor ever received is rechecked on every call, at
        O(log n) hashes apiece.
        """
        tree = log.merkle_tree()
        for anchor in self._anchors:
            if len(log) < anchor.log_size:
                raise AuditError(
                    f"log truncated: witness holds an anchor at size "
                    f"{anchor.log_size}, log has only {len(log)} events"
                )
            root_then = tree.root_at(anchor.log_size)
            if root_then != anchor.merkle_root:
                raise AuditError(
                    f"log history rewritten: root at size {anchor.log_size} "
                    "does not match the witnessed anchor"
                )


class WitnessQuorum:
    """Anchor to several independent witnesses; trust a threshold.

    A single witness is itself a trust assumption: if the insider can
    compromise it (delete its anchors, or feed it forged ones), the
    truncation protection evaporates.  A quorum distributes that trust:
    anchors go to every witness, and a log is accepted only if at least
    *threshold* witnesses independently vouch for it.  An adversary must
    compromise ``n - threshold + 1`` witnesses to erase history.
    """

    def __init__(self, witnesses: list[AnchorWitness], threshold: int) -> None:
        if not witnesses:
            raise AuditError("a quorum needs at least one witness")
        if not 1 <= threshold <= len(witnesses):
            raise AuditError(
                f"threshold {threshold} out of range 1..{len(witnesses)}"
            )
        self._witnesses = list(witnesses)
        self._threshold = threshold

    def publish(self, log: AuditLog, signer: Signer, timestamp: float) -> AuditAnchor:
        """Publish one anchor to every reachable witness."""
        anchor = publish_anchor(log, signer, timestamp)
        delivered = 0
        for witness in self._witnesses:
            try:
                witness.receive(anchor, log)
                delivered += 1
            except AuditError:
                continue  # a witness may be unreachable/compromised
        if delivered < self._threshold:
            raise AuditError(
                f"anchor reached only {delivered} witnesses; quorum needs "
                f"{self._threshold}"
            )
        return anchor

    def check_log(self, log: AuditLog) -> int:
        """Check the log against every witness; returns how many vouch.

        Raises :class:`AuditError` when fewer than the threshold accept —
        including the case where compromised witnesses *wiped their
        anchors* (an empty witness vacuously accepts any log, so wiped
        witnesses do not count toward detection, but honest ones still
        reject a truncated log and break the quorum the other way: a log
        is vouched for only by witnesses that both hold anchors and
        verify them)."""
        if all(not witness.anchors for witness in self._witnesses):
            return 0  # nothing was ever anchored: vacuously consistent
        vouching = 0
        for witness in self._witnesses:
            if not witness.anchors:
                continue  # wiped/never-used witnesses vouch for nothing
            try:
                witness.check_log(log)
                vouching += 1
            except AuditError:
                continue
        if vouching < self._threshold:
            raise AuditError(
                f"only {vouching} witnesses vouch for this log; quorum needs "
                f"{self._threshold}"
            )
        return vouching


def publish_anchor(log: AuditLog, signer: Signer, timestamp: float) -> AuditAnchor:
    """Create a signed anchor for the log's current state."""
    size = len(log)
    root = log.merkle_root()
    signed = signer.sign(
        {"log_size": size, "merkle_root": root, "published_at": timestamp}
    )
    return AuditAnchor(
        log_size=size, merkle_root=root, published_at=timestamp, signed=signed
    )


class AnchorSchedule:
    """One log's anchoring: publishes an anchor every *every* events —
    to the single witness, or to a majority quorum when there are
    several — and checks the log against what they hold.  Events that
    must hold the cadence reach the log through :meth:`append`, so no
    path can leave more than *every* of them unanchored."""

    def __init__(
        self,
        log: AuditLog,
        signer: Signer,
        clock: Clock,
        witnesses: list[AnchorWitness],
        every: int,
    ) -> None:
        self._log = log
        self._signer = signer
        self._clock = clock
        self._every = every
        self.witnesses = list(witnesses)
        self._quorum = (
            WitnessQuorum(self.witnesses, threshold=len(self.witnesses) // 2 + 1)
            if len(self.witnesses) > 1
            else None
        )

    @property
    def witness(self) -> AnchorWitness:
        return self.witnesses[0]

    def append(
        self,
        action: AuditAction,
        actor_id: str,
        subject_id: str,
        detail: dict[str, Any] | None = None,
    ) -> AuditEvent:
        """Append one event, first publishing the anchor that is due
        once *every* events have accrued since the last one.

        Anchor first, then the event: inside an open audit batch the
        anchor's flush then finds only events of earlier operations
        (none, for a batch of one), so an operation that falls on an
        anchor still costs its batch one audit device write."""
        latest = self.witness.latest()
        if len(self._log) - (latest.log_size if latest else 0) >= self._every:
            # The anchor commits every event under its Merkle root to an
            # external witness, so events buffered in an open audit
            # batch must hit the device first — otherwise a crash would
            # leave the witness attesting to events storage never saw,
            # and an honest recovery would read as truncation.
            self._log.flush_batch()
            anchor = self.publish()
            self._log.append(
                AuditAction.ANCHOR_PUBLISHED, "system", "audit-log",
                {"size": anchor.log_size, "witnesses": len(self.witnesses)},
            )
        return self._log.append(action, actor_id, subject_id, detail)

    def publish(self) -> AuditAnchor:
        """Publish a fresh anchor to the witness, or through the quorum
        when there are several."""
        if self._quorum is not None:
            return self._quorum.publish(self._log, self._signer, self._clock.now())
        anchor = publish_anchor(self._log, self._signer, self._clock.now())
        self.witness.receive(anchor, self._log)
        return anchor

    def check_log(self) -> None:
        """Raises :class:`AuditError` unless the witness (or a quorum of
        them) vouches for the log."""
        (self._quorum or self.witness).check_log(self._log)
