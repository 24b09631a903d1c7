"""The hash-chained audit log.

Every appended event is encoded once, by
:func:`~repro.audit.events.encode_leaf`, into a compact binary *leaf*;
the leaf goes into a running hash chain and a Merkle tree, and its
frame is journaled to a block device (so the adversary sees exactly
what persists)::

    chain[i]  = chain_digest(chain[i-1], leaf[i])     chain[-1] = genesis (zeros)
    mleaf[i]  = leaf_hash(chain[i-1] || leaf[i])
    leaf      = head | actor | subject | decision digest (0 or 32 B) | detail
    head      = sequence u64 | timestamp f64 | action code u8 | has decision u8
                | len(actor) u16 | len(subject) u16 | len(detail) u32   (big-endian)
    frame     = leaf | decision text (first use only) | chain[i] (32 B)

``detail`` is canonical JSON of the event's detail without its decision
(``rule``, ``rule_id`` and ``trace``, when it has a ``trace``).  The
decision is written as the SHA-256 of its canonical JSON text; the
first frame of the log to use a digest also carries the text, which
replay accepts only if it hashes to the digest.  So the leaf is a pure
function of the event, whether or not the text rode inline.  Each frame
stores its raw ``chain[i]``, which lets verification pinpoint the
first altered entry; ``chain[i-1]`` is not stored, it is the previous
frame's.

Verification modes:

* :meth:`AuditLog.verify_chain` — full rescan from storage: one replay
  from genesis; detects in-place edits, deletions, insertions, and
  reordering.
* :meth:`AuditLog.verify_chain` with ``incremental=True`` — O(delta)
  fast path: the same replay, from the sealed verified watermark (see
  :mod:`repro.audit.checkpoint`) instead of genesis, tied to the sealed
  prefix with a Merkle consistency proof, plus a spot-check of a
  randomized sample of sealed-prefix frames; escalates to a forced full
  rescan on a configurable cadence so silent prefix tampering stays
  caught.
* combined with :mod:`repro.audit.anchors` — detects truncation too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any

from repro.audit.checkpoint import CheckpointStore, VerifiedWatermark
from repro.audit.events import AuditAction, AuditEvent, decode_frame, encode_leaf
from repro.crypto.hashing import DIGEST_SIZE, GENESIS_DIGEST, chain_digest
from repro.crypto.merkle import MerkleTree, leaf_hash, verify_consistency
from repro.errors import AuditError
from repro.storage.block import BlockDevice, MemoryDevice
from repro.storage.journal import Journal
from repro.util.clock import Clock, WallClock
from repro.util.encoding import canonical_loads
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
        """Open the log on *device* (a blank one by default), replaying
        the journal and re-deriving the hash chain and the Merkle tree.
        A crash-truncated tail (incomplete final frame) is dropped by
        the journal's frame validation; any *mid-log* inconsistency
        raises :class:`AuditError` — a log that does not verify must not
        be silently adopted as the system of record."""
        self._journal = Journal(device or MemoryDevice("audit-dev", 1 << 24))
        self._clock = clock or WallClock()
        self._head = GENESIS_DIGEST
        self._events: list[AuditEvent] = []
        self._tree = MerkleTree()
        # Decision digest -> (sequence of the frame carrying its text, decision).
        self._decisions: dict[bytes, tuple[int, dict]] = {}
        # Open batch: buffered journal payloads, or None outside a batch.
        self._pending: list[bytes] | None = None
        # Incremental-verification state.  The in-memory watermark is
        # authoritative within a process (process memory is trusted);
        # the checkpoint store is its MAC-sealed persistent mirror.
        self.adopt_checkpoints(checkpoints)
        self._spot_checks = spot_checks
        self._full_rescan_every = full_rescan_every
        # Unpredictable by default (the adversary must not know which
        # sealed frames the next spot-check will sample); tests inject
        # a seeded Random for reproducibility.
        self._rng = rng or random.Random()
        result = self._replay(0, GENESIS_DIGEST, len(self._journal), adopt=True)
        if not result.ok:
            raise AuditError(f"recovery failed: {result.problem}")

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
        leaf, digest, text = encode_leaf(event)
        if digest and digest not in self._decisions:
            self._decisions[digest] = (event.sequence, canonical_loads(text))
        else:
            text = b""
        new_head = chain_digest(self._head, leaf)
        persisted = b"".join((leaf, text, new_head))
        if self._pending is not None:
            self._pending.append(persisted)
        else:
            self._journal.append(persisted)
        self._tree.append(self._head + leaf)
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
        flushed = self.flush_batch()
        self._pending = None
        return flushed

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
        """Attach a checkpoint store (opening it is how a restart gets
        its watermark back).  The persisted watermark is loaded but not
        trusted blindly — :meth:`verify_chain` validates it against the
        in-memory state and falls back to a full rescan on any mismatch
        (including the torn-seal case, where opening already dropped the
        torn frame and ``latest()`` returns an older seal or None).
        """
        self._checkpoints = checkpoints
        self._watermark = checkpoints.latest() if checkpoints is not None else None

    def verify_chain(self, incremental: bool = False) -> ChainVerification:
        """Re-derive the chain from persistent storage.

        Default: full rescan — :meth:`_replay` every journaled entry
        from genesis, reading each back from the device (so raw-device
        tampering is caught), recomputing each link, and comparing with
        the stored chain digests and the in-memory head.

        ``incremental=True`` is the same replay with the sealed prefix
        trusted: tie the in-memory Merkle tree to the sealed root with a
        consistency proof, replay only the events past the watermark
        from the sealed head, and spot-check a random sample of sealed-
        prefix frames against the trusted leaf digests.  It is served by
        the full replay instead (``escalated``) when no valid watermark
        exists or the forced-rescan cadence is due, so sealed-prefix
        tampering that dodges the sample is still caught within
        ``full_rescan_every`` incremental runs.

        A successful pass of either kind seals a verified watermark.
        """
        watermark = self._watermark if incremental else None
        if watermark is not None:
            # Stale or foreign (sealed before a tail the journal no
            # longer has): never trusted.
            stale = watermark.size > min(len(self._events), len(self._journal))
            if stale:
                self._watermark = None
            # Forced periodic rescan: probabilistic spot-checking alone
            # would let a patient adversary wait out the sampler.
            if stale or watermark.incremental_runs + 1 >= self._full_rescan_every:
                METRICS.incr("audit_verify_escalations")
                watermark = None
        if watermark is None:
            with METRICS.timer("audit_verify_full_ns"):
                result = self._replay(0, GENESIS_DIGEST, len(self._journal))
            METRICS.incr("audit_verify_full_runs")
            result = replace(result, escalated=incremental)
            incremental_runs = 0
        else:
            with METRICS.timer("audit_verify_incremental_ns"):
                result = self._verify_past(watermark)
            METRICS.incr("audit_verify_incremental_runs")
            incremental_runs = watermark.incremental_runs + 1
        if result.ok:
            self._seal_watermark(incremental_runs=incremental_runs)
        return result

    def _replay(
        self, start: int, head: bytes, end: int, adopt: bool = False
    ) -> ChainVerification:
        """The one replay: read frames ``start..end-1`` back from the
        device, chain each onto *head*, and require the result to be the
        in-memory head — or, to *adopt* a recovered device, make it the
        head, appending each event to the log as it checks out.
        ``events_checked`` counts the frames replayed before any
        failure."""

        def bad(sequence: int, problem: str) -> ChainVerification:
            return ChainVerification(False, sequence - start, sequence, problem)

        decisions = self._decisions if adopt else self._decisions_before(start)
        for sequence in range(start, end):
            try:
                payload = self._journal.read(sequence)
            except Exception as exc:  # noqa: BLE001 — checksum/torn tail
                return bad(sequence, f"event {sequence} unreadable: {exc}")
            try:
                event, leaf, chain = decode_frame(payload, decisions)
            except AuditError as exc:
                return bad(sequence, f"event {sequence} undecodable: {exc}")
            if event.sequence != sequence:
                return bad(sequence, f"event {sequence} carries sequence {event.sequence}")
            new_head = chain_digest(head, leaf)
            if chain != new_head:
                return bad(sequence, f"stored chain digest wrong at event {sequence}")
            if adopt:
                self._tree.append(head + leaf)
                self._events.append(event)
            head = new_head
        if adopt:
            self._head = head
        if head != self._head:
            return bad(
                end,
                "storage does not reproduce the in-memory chain head "
                "(possible truncation or appended forgery)",
            )
        return ChainVerification(ok=True, events_checked=end - start)

    def _decisions_before(self, sequence: int) -> dict[bytes, tuple[int, dict]]:
        """The decisions whose text a frame before *sequence* carries."""
        return {key: value for key, value in self._decisions.items() if value[0] < sequence}

    def _verify_past(self, watermark: VerifiedWatermark) -> ChainVerification:
        """The incremental pass: :meth:`_replay` from the watermark,
        between the consistency proof and the spot checks."""
        size = len(self._events)
        # 1. The sealed root must still describe the in-memory tree's
        # prefix, and the current tree must extend it (consistency
        # proof) — any in-memory fork from the sealed history fails.
        try:
            if self._tree.root_at(watermark.size) != watermark.merkle_root:
                raise AuditError(
                    "in-memory Merkle tree does not reproduce the sealed "
                    "watermark root (history fork)"
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
                problem=f"consistency with the sealed prefix fails: {exc}",
                mode="incremental",
            )
        # 2. Replay only the suffix from the sealed head.
        result = replace(
            self._replay(watermark.size, watermark.head, size), mode="incremental"
        )
        METRICS.incr("audit_verify_events_replayed", result.events_checked)
        if not result.ok:
            return result
        # 3. Randomized spot-check of the sealed prefix: each sampled
        # frame is re-read from the device and must reproduce both the
        # trusted in-memory leaf digest (pins its leaf and the previous
        # frame's chain digest) and its own stored chain digest — a
        # complete per-frame check without replaying the whole prefix.
        sample_size = min(self._spot_checks, watermark.size)
        result = replace(result, spot_checked=sample_size)
        for sequence in sorted(self._rng.sample(range(watermark.size), sample_size)):
            try:
                self._pinned_frame(sequence)
            except AuditError as exc:
                return replace(
                    result, ok=False, first_bad_sequence=sequence, problem=str(exc)
                )
        METRICS.incr("audit_verify_spot_checks", sample_size)
        return result

    def _pinned_frame(self, sequence: int) -> bytes:
        """Re-read one journaled frame in isolation and pin it to the
        trusted in-memory leaf digest (which fixes its leaf and the
        previous frame's stored chain digest) and to its own stored
        chain digest; returns the chain head before it, or raises
        :class:`AuditError` naming what is wrong."""
        try:
            prev = GENESIS_DIGEST
            if sequence:
                prev = self._journal.read(sequence - 1)[-DIGEST_SIZE:]
            payload = self._journal.read(sequence)
            _, leaf, chain = decode_frame(payload, self._decisions_before(sequence))
        except Exception as exc:  # noqa: BLE001
            raise AuditError(f"sealed event {sequence} unreadable: {exc}") from exc
        if leaf_hash(prev + leaf) != self._tree.leaf_digest(sequence):
            raise AuditError(
                f"sealed event {sequence} does not match its trusted "
                "Merkle leaf (prefix tampering)"
            )
        if chain != chain_digest(prev, leaf):
            raise AuditError(f"stored chain digest wrong at sealed event {sequence}")
        return prev

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
        is the previous frame's stored chain digest, pinned with the
        event's own frame to the trusted Merkle leaf first — one frame
        decoded, not a replay of every earlier event; a frame tampered
        with on the device raises :class:`AuditError`.
        """
        event = self.event(sequence)
        size = at_size if at_size is not None else len(self._events)
        if sequence >= size:
            raise AuditError(
                f"event {sequence} is not covered by an anchor at size {size}"
            )
        self.flush_batch()  # the frame must be on the device to be re-read
        chain_prev = self._pinned_frame(sequence)
        return event, chain_prev, self._tree.prove_inclusion_at(sequence, size)

    def expected_head_for(self, events: list[AuditEvent]) -> bytes:
        """Recompute the chain head a given event list should produce.

        External auditors use this: given an exported event list and a
        published head digest, the export is authentic iff they match.
        """
        head = GENESIS_DIGEST
        for event in events:
            head = chain_digest(head, encode_leaf(event)[0])
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

    verify_inclusion(chain_prev + encode_leaf(event)[0], proof, anchored_root)
