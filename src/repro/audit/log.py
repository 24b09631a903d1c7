"""The hash-chained audit log.

Every appended event is serialized canonically, journaled to a block
device (so the adversary sees exactly what persists), and folded into a
running hash chain::

    chain[i] = H(0x01 || chain[i-1] || canonical(event_i || chain_prev))

The chain digest after each event is stored *with* the event, which
lets verification pinpoint the first altered entry rather than only
saying "something is wrong".

Verification modes:

* :meth:`AuditLog.verify_chain` — full rescan from storage; detects
  in-place edits, deletions, insertions, and reordering.
* :meth:`AuditLog.verify_chain` with ``incremental=True`` — O(delta)
  fast path: replay only events past the sealed verified watermark
  (see :mod:`repro.audit.checkpoint`), tie them to the sealed prefix
  with Merkle consistency proofs, and spot-check a randomized sample
  of sealed-prefix frames; escalates to a forced full rescan on a
  configurable cadence so silent prefix tampering stays caught.
* combined with :mod:`repro.audit.anchors` — detects truncation too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.audit.checkpoint import CheckpointStore, VerifiedWatermark
from repro.audit.events import AuditAction, AuditEvent
from repro.crypto.hashing import GENESIS_DIGEST, chain_digest
from repro.crypto.merkle import MerkleTree, leaf_hash, verify_consistency
from repro.errors import AuditError
from repro.storage.block import BlockDevice, MemoryDevice
from repro.storage.journal import Journal
from repro.util.clock import Clock, WallClock
from repro.util.encoding import canonical_bytes, canonical_dumps, canonical_loads
from repro.util.metrics import METRICS


@dataclass(frozen=True)
class ChainVerification:
    """Result of a chain verification (full or incremental).

    ``events_checked`` counts events *replayed from storage*: the whole
    log for a full pass, only the delta past the watermark for an
    incremental one (sealed-prefix coverage is ``spot_checked``).
    ``escalated`` marks an incremental request that was served by a
    full rescan (missing/invalid watermark, or the forced-rescan
    cadence coming due).
    """

    ok: bool
    events_checked: int
    first_bad_sequence: int | None = None
    problem: str = ""
    mode: str = "full"  # "full" | "incremental"
    spot_checked: int = 0
    escalated: bool = False

    def __bool__(self) -> bool:
        return self.ok


class AuditLog:
    """Append-only, hash-chained, journal-backed audit log."""

    def __init__(
        self,
        device: BlockDevice | None = None,
        clock: Clock | None = None,
        checkpoints: CheckpointStore | None = None,
        spot_checks: int = 16,
        full_rescan_every: int = 64,
        rng: random.Random | None = None,
    ) -> None:
        self._journal = Journal(device or MemoryDevice("audit-dev", 1 << 24))
        self._clock = clock or WallClock()
        self._head = GENESIS_DIGEST
        self._events: list[AuditEvent] = []
        self._tree = MerkleTree()
        # Open batch: buffered journal payloads, or None outside a batch.
        self._pending: list[bytes] | None = None
        # Incremental-verification state.  The in-memory watermark is
        # authoritative within a process (process memory is trusted);
        # the checkpoint store is its MAC-sealed persistent mirror.
        self._checkpoints = checkpoints
        self._watermark: VerifiedWatermark | None = (
            checkpoints.latest() if checkpoints is not None else None
        )
        self._spot_checks = spot_checks
        self._full_rescan_every = full_rescan_every
        # Unpredictable by default (the adversary must not know which
        # sealed frames the next spot-check will sample); tests inject
        # a seeded Random for reproducibility.
        self._rng = rng or random.Random()

    def __len__(self) -> int:
        return len(self._events)

    @property
    def head_digest(self) -> bytes:
        """The current chain head (commits to the whole history)."""
        return self._head

    @property
    def device(self) -> BlockDevice:
        return self._journal.device

    def merkle_root(self) -> bytes:
        """Merkle root over all event encodings (for anchoring)."""
        return self._tree.root()

    def merkle_tree(self) -> MerkleTree:
        return self._tree

    # -- append ----------------------------------------------------------

    def append(
        self,
        action: AuditAction,
        actor_id: str,
        subject_id: str,
        detail: dict[str, Any] | None = None,
    ) -> AuditEvent:
        """Record an event; returns it with its assigned sequence number.

        Inside an open batch (:meth:`begin_batch`) the chain, Merkle
        tree, and in-memory event list advance immediately but the
        journal write is deferred to :meth:`commit` — one device flush
        covers the whole batch.
        """
        event = AuditEvent(
            sequence=len(self._events),
            timestamp=self._clock.now(),
            action=action,
            actor_id=actor_id,
            subject_id=subject_id,
            detail=detail or {},
        )
        # The chain input and the persisted entry share the event and
        # prev encodings; splicing pre-encoded fragments (keys in sorted
        # order: chain < event < prev) halves the canonical-JSON work
        # while producing bytes identical to canonical_bytes() of the
        # equivalent dicts — verify_chain recomputes and must agree.
        event_json = canonical_dumps(event.to_dict())
        prev_json = canonical_dumps(self._head)
        encoded = f'{{"event":{event_json},"prev":{prev_json}}}'.encode("utf-8")
        new_head = chain_digest(self._head, encoded)
        chain_json = canonical_dumps(new_head)
        persisted = (
            f'{{"chain":{chain_json},"event":{event_json},"prev":{prev_json}}}'
        ).encode("utf-8")
        if self._pending is not None:
            self._pending.append(persisted)
        else:
            self._journal.append(persisted)
        self._tree.append(encoded)
        self._head = new_head
        self._events.append(event)
        return event

    # -- batch commit boundary -----------------------------------------------

    def begin_batch(self) -> None:
        """Start deferring journal writes; pair with :meth:`commit`.

        Chain semantics are untouched — every event still gets its own
        chain digest and Merkle leaf at append time; only the device
        flush is grouped.  Until commit, :meth:`verify_chain` will see
        storage lagging the in-memory head, so callers must commit
        before verifying (the engine wraps batches in try/finally).
        """
        if self._pending is not None:
            raise AuditError("an audit batch is already open")
        self._pending = []

    def commit(self) -> int:
        """Flush buffered events in ONE journal device write; returns
        how many were flushed.  No-op (returns 0) when no batch is open.
        """
        pending, self._pending = self._pending, None
        if not pending:
            return 0
        self._journal.append_many(pending)
        return len(pending)

    def flush_batch(self) -> int:
        """Journal everything buffered so far WITHOUT closing the batch;
        returns how many entries were flushed.

        The anchoring path needs this: an anchor commits a Merkle root
        to an external witness, so every event under that root must be
        durable *before* the anchor exists — otherwise a crash leaves
        the witness attesting to events the device never saw, and honest
        recovery reads as truncation.  No-op outside a batch.
        """
        if not self._pending:
            return 0
        pending, self._pending = self._pending, []
        self._journal.append_many(pending)
        return len(pending)

    @property
    def in_batch(self) -> bool:
        return self._pending is not None

    # -- read -------------------------------------------------------------

    def events(self) -> list[AuditEvent]:
        """All events, in order (from the in-memory view)."""
        return list(self._events)

    def event(self, sequence: int) -> AuditEvent:
        if sequence < 0 or sequence >= len(self._events):
            raise AuditError(f"no audit event with sequence {sequence}")
        return self._events[sequence]

    # -- verification -------------------------------------------------------

    @property
    def watermark(self) -> VerifiedWatermark | None:
        """The current verified watermark (None before any full verify)."""
        return self._watermark

    @property
    def checkpoints(self) -> CheckpointStore | None:
        return self._checkpoints

    def adopt_checkpoints(self, checkpoints: CheckpointStore | None) -> None:
        """Attach a (possibly recovered) checkpoint store after the fact.

        Used by engine recovery: the audit log is replayed from its own
        device first, then the checkpoint store recovered from *its*
        device is adopted.  The persisted watermark is loaded but not
        trusted blindly — :meth:`verify_chain` validates it against the
        in-memory state and falls back to a full rescan on any mismatch
        (including the torn-seal case, where recovery already dropped
        the torn frame and ``latest()`` returns an older seal or None).
        """
        self._checkpoints = checkpoints
        self._watermark = checkpoints.latest() if checkpoints is not None else None

    def verify_chain(
        self, incremental: bool = False, deep: bool = False
    ) -> ChainVerification:
        """Re-derive the chain from persistent storage.

        Default (and ``deep=True``): full rescan — read every journaled
        entry back from the device (so raw-device tampering is caught),
        recompute each link, and compare with the stored chain digests
        and the in-memory head.  A successful pass seals a verified
        watermark.

        ``incremental=True``: replay only events past the watermark,
        verify the suffix chains from the sealed head to the in-memory
        head, tie the in-memory Merkle tree to the sealed root with a
        consistency proof, and spot-check a random sample of sealed-
        prefix frames against the trusted leaf digests.  Falls back to
        (``escalated``) full verification when no valid watermark
        exists or the forced-rescan cadence is due, so sealed-prefix
        tampering that dodges the sample is still caught within
        ``full_rescan_every`` incremental runs.
        """
        if incremental and not deep:
            return self._verify_incremental()
        with METRICS.timer("audit_verify_full_ns"):
            result = self._verify_full()
        METRICS.incr("audit_verify_full_runs")
        if result.ok:
            self._seal_watermark(incremental_runs=0)
        return result

    def _verify_full(self, escalated: bool = False) -> ChainVerification:
        head = GENESIS_DIGEST
        try:
            payloads = self._journal.read_all()
        except Exception as exc:  # journal checksum failures included
            return ChainVerification(
                ok=False,
                events_checked=0,
                first_bad_sequence=self._first_journal_corruption(),
                problem=f"journal unreadable: {exc}",
                escalated=escalated,
            )
        for sequence, payload in enumerate(payloads):
            failure, head = self._check_frame(sequence, payload, head, escalated)
            if failure is not None:
                return failure
        if head != self._head:
            return ChainVerification(
                ok=False,
                events_checked=len(payloads),
                first_bad_sequence=len(payloads),
                problem="storage does not reproduce the in-memory chain head "
                "(possible truncation or appended forgery)",
                escalated=escalated,
            )
        return ChainVerification(
            ok=True, events_checked=len(payloads), escalated=escalated
        )

    def _check_frame(
        self, sequence: int, payload: bytes, head: bytes, escalated: bool = False
    ) -> tuple[ChainVerification | None, bytes]:
        """Verify one journaled frame given the chain head before it;
        returns ``(failure, new_head)`` with ``failure=None`` on success."""

        def bad(problem: str) -> tuple[ChainVerification, bytes]:
            return (
                ChainVerification(
                    ok=False,
                    events_checked=sequence,
                    first_bad_sequence=sequence,
                    problem=problem,
                    escalated=escalated,
                ),
                head,
            )

        try:
            entry = canonical_loads(payload)
            event = AuditEvent.from_dict(entry["event"])
        except Exception as exc:  # noqa: BLE001 — any decode failure is a finding
            return bad(f"event {sequence} undecodable: {exc}")
        if event.sequence != sequence:
            return bad(f"event {sequence} carries sequence {event.sequence}")
        if entry["prev"] != head:
            return bad(f"chain link broken before event {sequence}")
        encoded = canonical_bytes({"event": entry["event"], "prev": head})
        new_head = chain_digest(head, encoded)
        if entry["chain"] != new_head:
            return bad(f"stored chain digest wrong at event {sequence}")
        return None, new_head

    def _verify_incremental(self) -> ChainVerification:
        """The O(delta) fast path (see :meth:`verify_chain`)."""
        watermark = self._watermark
        size = len(self._events)
        if watermark is None:
            result = self.verify_chain(deep=True)
            return ChainVerification(
                ok=result.ok,
                events_checked=result.events_checked,
                first_bad_sequence=result.first_bad_sequence,
                problem=result.problem,
                escalated=True,
            )
        if watermark.incremental_runs + 1 >= self._full_rescan_every:
            # Forced periodic rescan: probabilistic spot-checking alone
            # would let a patient adversary wait out the sampler.
            METRICS.incr("audit_verify_escalations")
            result = self.verify_chain(deep=True)
            return ChainVerification(
                ok=result.ok,
                events_checked=result.events_checked,
                first_bad_sequence=result.first_bad_sequence,
                problem=result.problem,
                escalated=True,
            )
        if watermark.size > size or watermark.size > len(self._journal):
            # Stale or foreign watermark (e.g. sealed before a tail the
            # journal no longer has): never trusted — full rescan.
            self._watermark = None
            METRICS.incr("audit_verify_escalations")
            result = self.verify_chain(deep=True)
            return ChainVerification(
                ok=result.ok,
                events_checked=result.events_checked,
                first_bad_sequence=result.first_bad_sequence,
                problem=result.problem,
                escalated=True,
            )
        with METRICS.timer("audit_verify_incremental_ns"):
            result = self._verify_suffix_and_spot_check(watermark, size)
        METRICS.incr("audit_verify_incremental_runs")
        if result.ok:
            self._seal_watermark(incremental_runs=watermark.incremental_runs + 1)
        return result

    def _verify_suffix_and_spot_check(
        self, watermark: VerifiedWatermark, size: int
    ) -> ChainVerification:
        # 1. The sealed root must still describe the in-memory tree's
        # prefix, and the current tree must extend it (consistency
        # proof) — any in-memory fork from the sealed history fails.
        try:
            if self._tree.root_at(watermark.size) != watermark.merkle_root:
                return ChainVerification(
                    ok=False,
                    events_checked=0,
                    first_bad_sequence=None,
                    problem="in-memory Merkle tree does not reproduce the "
                    "sealed watermark root (history fork)",
                    mode="incremental",
                )
            verify_consistency(
                watermark.merkle_root,
                self._tree.root(),
                watermark.size,
                size,
                self._tree.prove_consistency(watermark.size),
            )
        except Exception as exc:  # noqa: BLE001 — IntegrityError et al.
            return ChainVerification(
                ok=False,
                events_checked=0,
                first_bad_sequence=None,
                problem=f"consistency with the sealed prefix fails: {exc}",
                mode="incremental",
            )
        # 2. Replay only the suffix from the sealed head.
        head = watermark.head
        replayed = 0
        for sequence in range(watermark.size, size):
            try:
                payload = self._journal.read(sequence)
            except Exception as exc:  # noqa: BLE001 — checksum/torn tail
                return ChainVerification(
                    ok=False,
                    events_checked=replayed,
                    first_bad_sequence=sequence,
                    problem=f"event {sequence} unreadable: {exc}",
                    mode="incremental",
                )
            failure, head = self._check_frame(sequence, payload, head)
            if failure is not None:
                return ChainVerification(
                    ok=False,
                    events_checked=replayed,
                    first_bad_sequence=failure.first_bad_sequence,
                    problem=failure.problem,
                    mode="incremental",
                )
            replayed += 1
        METRICS.incr("audit_verify_events_replayed", replayed)
        if head != self._head:
            return ChainVerification(
                ok=False,
                events_checked=replayed,
                first_bad_sequence=size,
                problem="storage does not reproduce the in-memory chain head "
                "(possible truncation or appended forgery)",
                mode="incremental",
            )
        # 3. Randomized spot-check of the sealed prefix: each sampled
        # frame is re-read from the device and must reproduce both the
        # trusted in-memory leaf digest (pins event + prev bytes) and
        # its stored chain digest (pinned by those bytes in turn) — a
        # complete per-frame check without replaying the whole prefix.
        sample_size = min(self._spot_checks, watermark.size)
        sampled = (
            self._rng.sample(range(watermark.size), sample_size)
            if sample_size
            else []
        )
        for sequence in sorted(sampled):
            try:
                self._pinned_frame(sequence)
            except AuditError as exc:
                return ChainVerification(
                    ok=False,
                    events_checked=replayed,
                    first_bad_sequence=sequence,
                    problem=str(exc),
                    mode="incremental",
                    spot_checked=sample_size,
                )
        METRICS.incr("audit_verify_spot_checks", sample_size)
        return ChainVerification(
            ok=True,
            events_checked=replayed,
            mode="incremental",
            spot_checked=sample_size,
        )

    def _pinned_frame(self, sequence: int) -> dict:
        """Re-read one journaled frame in isolation and pin it to the
        trusted in-memory leaf digest (which fixes its event + prev
        bytes) and to its stored chain digest; returns the decoded
        frame, or raises :class:`AuditError` naming what is wrong."""
        try:
            payload = self._journal.read(sequence)
            entry = canonical_loads(payload)
            encoded = canonical_bytes(
                {"event": entry["event"], "prev": entry["prev"]}
            )
        except Exception as exc:  # noqa: BLE001
            raise AuditError(f"sealed event {sequence} unreadable: {exc}") from exc
        if leaf_hash(encoded) != self._tree.leaf_digest(sequence):
            raise AuditError(
                f"sealed event {sequence} does not match its trusted "
                "Merkle leaf (prefix tampering)"
            )
        if entry["chain"] != chain_digest(entry["prev"], encoded):
            raise AuditError(f"stored chain digest wrong at sealed event {sequence}")
        return entry

    def _seal_watermark(self, incremental_runs: int) -> None:
        """Record (and persist, when a checkpoint store is attached)
        the just-verified state."""
        self._watermark = VerifiedWatermark(
            size=len(self._events),
            head=self._head,
            merkle_root=self._tree.root(),
            verified_at=self._clock.now(),
            incremental_runs=incremental_runs,
        )
        if self._checkpoints is not None:
            self._checkpoints.seal(self._watermark)

    def _first_journal_corruption(self) -> int | None:
        corrupted = self._journal.scan_corruption()
        return corrupted[0] if corrupted else None

    # -- recovery ----------------------------------------------------------

    @classmethod
    def recover(
        cls,
        device: BlockDevice,
        clock: Clock | None = None,
        spot_checks: int = 16,
        full_rescan_every: int = 64,
    ) -> "AuditLog":
        """Rebuild an audit log from its device after a restart/crash.

        Replays the journal, re-deriving the hash chain and the Merkle
        tree.  A crash-truncated tail (incomplete final frame) is
        dropped by the journal's frame validation; any *mid-log*
        inconsistency raises :class:`AuditError` — a log that does not
        verify must not be silently adopted as the system of record.
        """
        log = cls.__new__(cls)
        log._journal = Journal.recover(device)
        log._clock = clock or WallClock()
        log._head = GENESIS_DIGEST
        log._events = []
        log._tree = MerkleTree()
        log._pending = None
        log._checkpoints = None  # adopt_checkpoints() re-attaches one
        log._watermark = None
        log._spot_checks = spot_checks
        log._full_rescan_every = full_rescan_every
        log._rng = random.Random()
        for sequence, payload in enumerate(log._journal.read_all()):
            try:
                entry = canonical_loads(payload)
                event = AuditEvent.from_dict(entry["event"])
            except Exception as exc:
                raise AuditError(
                    f"recovery failed: event {sequence} undecodable: {exc}"
                ) from exc
            if event.sequence != sequence or entry["prev"] != log._head:
                raise AuditError(
                    f"recovery failed: chain inconsistent at event {sequence}"
                )
            encoded = canonical_bytes({"event": entry["event"], "prev": log._head})
            log._head = chain_digest(log._head, encoded)
            if entry["chain"] != log._head:
                raise AuditError(
                    f"recovery failed: stored chain digest wrong at event {sequence}"
                )
            log._tree.append(encoded)
            log._events.append(event)
        return log

    # -- third-party event proofs -------------------------------------------

    def prove_event(self, sequence: int, at_size: int | None = None):
        """Produce a Merkle inclusion proof for one event.

        Together with a published anchor (see :mod:`repro.audit.anchors`)
        this lets the hospital disclose a *single* audit event to a
        third party — a court, a patient — with cryptographic proof it
        belongs to the witnessed log, without revealing any other event.
        *at_size* selects the anchored log size the proof must match
        (default: the current size).  Returns ``(event, chain_prev,
        proof)``; verify with :func:`verify_event_proof`.  *chain_prev*
        comes from the event's own journaled frame, pinned to the
        trusted Merkle leaf first — one frame read, not a replay of
        every earlier event; a frame tampered with on the device raises
        :class:`AuditError`.
        """
        event = self.event(sequence)
        size = at_size if at_size is not None else len(self._events)
        if sequence >= size:
            raise AuditError(
                f"event {sequence} is not covered by an anchor at size {size}"
            )
        self.flush_batch()  # the frame must be on the device to be re-read
        chain_prev = self._pinned_frame(sequence)["prev"]
        return event, chain_prev, self._tree.prove_inclusion_at(sequence, size)

    def expected_head_for(self, events: list[AuditEvent]) -> bytes:
        """Recompute the chain head a given event list should produce.

        External auditors use this: given an exported event list and a
        published head digest, the export is authentic iff they match.
        """
        head = GENESIS_DIGEST
        for event in events:
            encoded = canonical_bytes({"event": event.to_dict(), "prev": head})
            head = chain_digest(head, encoded)
        return head


def verify_event_proof(
    event: AuditEvent,
    chain_prev: bytes,
    proof,
    anchored_root: bytes,
) -> None:
    """Third-party verification of a single disclosed audit event.

    *anchored_root* is the Merkle root from a witnessed anchor whose
    ``log_size`` equals ``proof.tree_size``; *chain_prev* is the chain
    head preceding the event (part of the disclosure).  Raises
    :class:`~repro.errors.IntegrityError` if the event is not in the
    anchored log.
    """
    from repro.crypto.merkle import verify_inclusion

    encoded = canonical_bytes({"event": event.to_dict(), "prev": chain_prev})
    verify_inclusion(encoded, proof, anchored_root)
