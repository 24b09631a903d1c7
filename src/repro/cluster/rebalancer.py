"""Online elastic resharding: move patients between live shards with
verifiable custody hand-off.

The :class:`Rebalancer` drives the cluster from its current virtual-node
ring to a target ring while the router keeps serving reads and writes.
Each displaced patient moves through a fixed stage machine::

    export -> import -> verify -> cutover -> retire -> proof

* **export** — the source packages the patient's full history
  (:meth:`~repro.core.transfer.PatientTransfer.export_patient_history`):
  version plaintexts checked against their chain digests, attachments,
  retention terms and litigation holds, the patient's audit-chain
  segment, a signed Merkle manifest over the plaintext digests, and a
  chain-continuity attestation binding the segment to the source's
  audit head.
* **import** — the destination re-seals everything under its own keys
  in one atomic WORM batch and archives the segment durably.
* **verify** — the double read: the import's returned digests AND a
  fresh read-back of the destination's decrypted state must both equal
  the signed manifest, entry for entry.  Any mismatch aborts the move
  and the source stays authoritative.
* **cutover** — under the patient's move ticket the audit tail that
  accrued mid-move and the patient's access state (consent directives,
  live break-glass grants) are synced, then routing flips — one
  assignment in the placement table — and the destination serves reads
  before the source copy is gone.
* **retire** — the source drops its copy behind a durable
  ``CUSTODY_TRANSFERRED`` marker (expatriated, not destroyed).
* **proof** — a :class:`MigrationProof` is assembled: the signed
  manifest, per-entry Merkle inclusion proofs, the destination's
  re-derived digests, and the chain-continuity attestation, checked
  end-to-end against the live destination before the move counts.

Every stage calls the shard's
:class:`~repro.core.transfer.PatientTransfer` part as
``engine.transfer.<name>``, in-process or through the worker pipe.

Writes to the moving patient block on the ticket for the duration of
the move; writes to every other patient, and reads of everything
including the moving patient, proceed throughout.  A crash at any stage
boundary (the ``hook`` seam raises
:class:`~repro.errors.CrashError` in the sweep harness) leaves the
ticket published; :func:`resolve_move` (behind
:meth:`CuratorCluster.recover_interrupted_moves`, and the same function
a failed verify runs) settles it — back to the source before cutover,
forward to the destination after — so the patient is wholly on exactly
one shard either way.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.crypto.hashing import sha256
from repro.crypto.merkle import MerkleProof, verify_inclusion
from repro.crypto.signatures import SignedPayload, TrustStore
from repro.errors import (
    ClusterError,
    IntegrityError,
    MigrationError,
    RecordNotFoundError,
)
from repro.migration.manifest import (
    MigrationManifest,
    entry_inclusion_proofs,
    entry_leaf,
    verify_manifest,
)
from repro.util.encoding import canonical_bytes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.dispatch import Dispatch
    from repro.cluster.topology import Topology

#: Stage order; a ticket's ``stage`` records the last *completed* stage.
STAGES = ("export", "import", "verify", "cutover", "retire", "proof")

#: Ticket stages at which the source is still authoritative.
_PRE_CUTOVER = ("pending", "exported", "imported", "verified")


class MoveTicket:
    """Per-patient move state: the write gate and the crash record.

    The mover holds ``lock`` for the whole move; the write gate tests it
    non-blocking (:meth:`held`) — a published ticket whose lock is free
    means the mover died, and routing state (unchanged before cutover,
    flipped after) is still correct, so writers may proceed while
    :func:`resolve_move` cleans up.
    """

    __slots__ = ("patient_id", "source", "dest", "lock", "stage")

    def __init__(self, patient_id: str, source: str, dest: str) -> None:
        self.patient_id = patient_id
        self.source = source
        self.dest = dest
        self.lock = threading.RLock()
        self.stage = "pending"

    def held(self) -> bool:
        """True while a live mover owns the ticket."""
        if self.lock.acquire(blocking=False):
            self.lock.release()
            return False
        return True

    def wait(self, timeout: float = 1.0) -> None:
        """Block (bounded) until the mover releases the ticket."""
        if self.lock.acquire(timeout=timeout):
            self.lock.release()


@dataclass(frozen=True)
class MigrationProof:
    """The signed, independently checkable evidence for one move."""

    patient_id: str
    source_shard: str
    destination_shard: str
    #: Manifest epoch of the transition topology the move ran under.
    epoch: int
    #: Source-signed Merkle manifest over the moved extents' plaintext
    #: digests.
    manifest: MigrationManifest
    #: The digests the destination re-derived after re-sealing.
    destination_entries: tuple[tuple[str, bytes], ...]
    #: Per-entry Merkle inclusion proofs against ``manifest.merkle_root``.
    inclusion_proofs: dict[str, MerkleProof] = field(repr=False)
    #: Source-signed chain-continuity attestation over the audit segment.
    attestation: SignedPayload = field(repr=False)

    @property
    def object_count(self) -> int:
        return len(self.manifest.entries)


def verify_migration_proof(
    proof: MigrationProof, trust: TrustStore, transfer
) -> None:
    """Check a move's proof end-to-end against the live destination,
    read through its *transfer* part (``engine.transfer``).

    Raises :class:`~repro.errors.MigrationError` (or
    :class:`~repro.errors.IntegrityError` from a broken inclusion
    proof) unless *all* of:

    1. the manifest signature and Merkle root verify against *trust*;
    2. the destination's re-derived digests equal the manifest entries;
    3. every entry carries a valid inclusion proof against the root;
    4. the attestation verifies, names this patient, and its segment
       digest matches the segment the destination durably archived;
    5. a fresh decrypting read of the destination's current state still
       equals the manifest (the verifier's own third read).
    """
    verify_manifest(proof.manifest, trust)
    if tuple(proof.destination_entries) != proof.manifest.entries:
        raise MigrationError(
            f"destination digests for {proof.patient_id} do not match "
            "the signed manifest"
        )
    for object_id, digest in proof.manifest.entries:
        inclusion = proof.inclusion_proofs.get(object_id)
        if inclusion is None:
            raise MigrationError(
                f"no inclusion proof for moved extent {object_id!r}"
            )
        verify_inclusion(
            entry_leaf(object_id, digest), inclusion, proof.manifest.merkle_root
        )
    payload = trust.verify(proof.attestation)
    if (
        payload.get("kind") != "segment-attestation"
        or payload.get("patient") != proof.patient_id
    ):
        raise MigrationError(
            f"attestation does not cover patient {proof.patient_id}"
        )
    segment = transfer.imported_segment(proof.patient_id)
    snapshot = [] if segment is None else segment.events
    if sha256(canonical_bytes(snapshot)) != payload["segment_digest"]:
        raise MigrationError(
            f"imported audit segment for {proof.patient_id} does not "
            "match the source's chain-continuity attestation"
        )
    if len(snapshot) != payload["events"]:
        raise MigrationError(
            f"imported segment has {len(snapshot)} events, attestation "
            f"signed {payload['events']}"
        )
    live = tuple(transfer.patient_history_digests(proof.patient_id))
    if live != proof.manifest.entries:
        raise MigrationError(
            f"destination live contents for {proof.patient_id} do not "
            "match the signed manifest"
        )


@dataclass(frozen=True)
class RebalanceReport:
    """What one :meth:`CuratorCluster.rebalance` run did."""

    from_shards: tuple[str, ...]
    to_shards: tuple[str, ...]
    added: tuple[str, ...]
    removed: tuple[str, ...]
    #: Final manifest epoch after the reshape.
    epoch: int
    #: Patients the ring diff displaced (planned moves).
    displaced: tuple[str, ...]
    #: One verified proof per completed move.
    proofs: tuple[MigrationProof, ...]

    @property
    def moved(self) -> int:
        return len(self.proofs)


def resolve_move(dispatch: "Dispatch", ticket: MoveTicket, actor_id: str) -> dict:
    """Settle a move that will not finish (its verify failed, or its
    mover died): whichever side is not authoritative retires its copy —
    the destination's partial copy before cutover, the source's stale
    one after — and the ticket is withdrawn.  The placement table needs
    nothing: it still names the source before cutover and already names
    the destination after."""
    forward = ticket.stage not in _PRE_CUTOVER
    keeper, stale = (
        (ticket.dest, ticket.source) if forward else (ticket.source, ticket.dest)
    )
    if ticket.stage in ("imported", "verified", "cutover"):
        try:
            dispatch.on(
                stale,
                lambda engine: engine.transfer.retire_patient(
                    ticket.patient_id, actor_id=actor_id, destination_id=keeper
                ),
            )
        except RecordNotFoundError:
            pass
    dispatch.moves.pop(ticket.patient_id, None)
    return {
        "patient": ticket.patient_id,
        "resolution": "completed" if forward else "aborted",
        "stage": ticket.stage,
        "source": ticket.source,
        "destination": ticket.dest,
    }


@dataclass(eq=False, repr=False, kw_only=True)
class Rebalancer:
    """Drives one cluster reshape; see the module docstring."""

    topology: "Topology"
    dispatch: "Dispatch"
    actor_id: str = "system"
    #: Called as ``hook(stage, patient_id)`` before each stage of each
    #: move — the seam the crash sweep kills the mover through.
    hook: Callable[[str, str], None] | None = None
    #: Pause before each move, bounding impact on foreground load.
    pace_s: float = 0.0

    def run(self, final_ring) -> RebalanceReport:
        topology = self.topology
        if not topology.reshaping.acquire(blocking=False):
            raise ClusterError(
                "a rebalance is already in progress on this cluster"
            )
        try:
            old_ids = tuple(topology.current.engines)
            topology.begin_transition(final_ring)
            planned = topology.displaced()
            proofs = [
                proof
                for patient_id, (source, dest) in planned.items()
                if (proof := self._move(patient_id, source, dest)) is not None
            ]
            topology.finalize()
        finally:
            topology.reshaping.release()
        return RebalanceReport(
            from_shards=old_ids,
            to_shards=final_ring.shard_ids,
            added=tuple(s for s in final_ring.shard_ids if s not in old_ids),
            removed=tuple(s for s in old_ids if s not in final_ring.shard_ids),
            epoch=topology.manifest.epoch,
            displaced=tuple(planned),
            proofs=tuple(proofs),
        )

    def _move(
        self, patient_id: str, source: str, dest: str
    ) -> MigrationProof | None:
        actor_id = self.actor_id
        checkpoint = self.hook or (lambda stage, patient_id: None)
        if self.pace_s:
            time.sleep(self.pace_s)
        on = self.dispatch.on
        ticket = MoveTicket(patient_id, source, dest)
        try:
            # The ticket is published already held, so no writer slips
            # between the publish and the export: one that raced it
            # either finished under the source shard's lock (and is in
            # the export) or sees the held ticket and waits.
            with ticket.lock:
                if self.dispatch.moves.setdefault(patient_id, ticket) is not ticket:
                    raise ClusterError(f"patient {patient_id} is already mid-move")
                checkpoint("export", patient_id)
                try:
                    bundle = on(
                        source,
                        lambda engine: engine.transfer.export_patient_history(
                            patient_id, actor_id=actor_id
                        ),
                    )
                except RecordNotFoundError:
                    # disposed to nothing since planning — nothing to move
                    self.topology.place(patient_id, dest)
                    del self.dispatch.moves[patient_id]
                    return None
                ticket.stage = "exported"
                checkpoint("import", patient_id)
                dest_entries = on(
                    dest,
                    lambda engine: engine.transfer.import_patient_history(
                        bundle, actor_id=actor_id
                    ),
                )
                ticket.stage = "imported"
                checkpoint("verify", patient_id)
                trust = self.topology.migration_trust()
                verify_manifest(bundle.manifest, trust)
                if tuple(dest_entries) != bundle.manifest.entries:
                    raise MigrationError(
                        f"destination re-sealed digests for {patient_id} "
                        "do not match the signed manifest"
                    )
                recheck = on(
                    dest, lambda engine: engine.transfer.patient_history_digests(patient_id)
                )
                if tuple(recheck) != bundle.manifest.entries:
                    raise MigrationError(
                        f"destination read-back for {patient_id} does not "
                        "match the signed manifest"
                    )
                ticket.stage = "verified"
                checkpoint("cutover", patient_id)
                since = bundle.attestation.payload["log_size"]
                delta = on(
                    source,
                    lambda engine: engine.transfer.export_audit_delta(patient_id, since=since),
                )
                if delta:
                    on(
                        dest,
                        lambda engine: engine.transfer.adopt_audit_delta(patient_id, delta),
                    )
                access = on(
                    source, lambda engine: engine.transfer.export_access_state(patient_id)
                )
                if any(access):
                    on(
                        dest,
                        lambda engine: engine.transfer.adopt_access_state(patient_id, access),
                    )
                self.topology.place(patient_id, dest)
                ticket.stage = "cutover"
                checkpoint("retire", patient_id)
                on(
                    source,
                    lambda engine: engine.transfer.retire_patient(
                        patient_id, actor_id=actor_id, destination_id=dest
                    ),
                )
                ticket.stage = "retired"
                checkpoint("proof", patient_id)
                proof = MigrationProof(
                    patient_id=patient_id,
                    source_shard=source,
                    destination_shard=dest,
                    epoch=self.topology.manifest.epoch,
                    manifest=bundle.manifest,
                    destination_entries=tuple(dest_entries),
                    inclusion_proofs=entry_inclusion_proofs(bundle.manifest),
                    attestation=bundle.attestation,
                )
                on(dest, lambda engine: verify_migration_proof(proof, trust, engine.transfer))
                ticket.stage = "done"
        except (MigrationError, IntegrityError):
            resolve_move(self.dispatch, ticket, actor_id)
            raise
        # A CrashError (or any unexpected error) propagates with the
        # ticket still published: recover_interrupted_moves() resolves it.
        del self.dispatch.moves[patient_id]
        return proof


def salvage_dual_homes(topology: "Topology", dispatch: "Dispatch") -> list[dict]:
    """Post-recovery custody reconciliation.  A patient the devices show
    on two shards is a move that crashed after its durable import and
    before its retire marker: the copy carrying the newest
    imported-segment attestation is the destination, and the move is
    settled forward like any other (:func:`resolve_move`).  Every
    patient left off-ring is pinned there.  Returns one action per
    retired copy."""
    claims: dict[str, list[str]] = {}
    for shard_id, engine in topology.current.engines.items():
        for patient_id in engine.patient_ids():
            claims.setdefault(patient_id, []).append(shard_id)
    actions: list[dict] = []
    for patient_id, shard_ids in sorted(claims.items()):

        def attestation(shard_id: str):
            segment = dispatch.on(
                shard_id, lambda engine: engine.transfer.imported_segment(patient_id)
            )
            return None if segment is None else segment.attestation

        def imported_at(shard_id: str) -> tuple[float, bool]:
            signed = attestation(shard_id)
            exported_at = signed.payload.get("exported_at", -1.0) if signed else -1.0
            return float(exported_at), shard_id == topology.home(patient_id)

        winner = shard_ids[0]
        if len(shard_ids) > 1:
            winner = max(shard_ids, key=imported_at)
            signed = attestation(winner)
        for loser in (s for s in shard_ids if s != winner):
            # forward the audit tail the loser accrued after export,
            # then complete the hand-off
            if signed is not None:
                since = int(signed.payload.get("log_size", 0))
                delta = dispatch.on(
                    loser,
                    lambda engine: engine.transfer.export_audit_delta(patient_id, since=since),
                )
                if delta:
                    try:
                        dispatch.on(
                            winner,
                            lambda engine: engine.transfer.adopt_audit_delta(
                                patient_id, delta
                            ),
                        )
                    except MigrationError:
                        pass
            ticket = MoveTicket(patient_id, loser, winner)
            ticket.stage = "cutover"
            actions.append(resolve_move(dispatch, ticket, "recovery"))
        topology.place(patient_id, winner)
    return actions
