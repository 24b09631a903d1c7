"""Detection-equivalence oracle for incremental verification.

The incremental fast path (watermarked audit verification, dirty-set
integrity checks) is only admissible if it gives up **no detection
power**: every tampering a raw-device insider plants must still be
caught — either directly by an incremental pass, or by the escalation
machinery (missing/forged watermarks force a full rescan; the forced-
rescan cadence bounds how long probabilistic spot-checking may miss;
the rotating clean sample bounds how long clean-object rot may hide).

This oracle states that as an executable property.  For each tamper
case it:

1. builds a small deployment, verifies it fully (sealing a watermark
   and clearing the dirty sets — the adversary strikes *after* the
   system believes itself clean, the hardest case for an incremental
   checker);
2. plants the tampering on the raw devices;
3. runs the **bounded incremental policy**: up to ``full_rescan_every``
   incremental passes (modelling successive operational health checks)
   followed by one full pass (the forced rescan the cadence guarantees);
4. runs an unconditional full verification at the end.

A case **violates** detection equivalence when the full pass detects
the tampering but the bounded policy never did — or, for the
no-tamper control, when the incremental path reports a problem that
does not exist (false positive).

The oracle runs over two *substrates*: a single engine
(:func:`run_detection_equivalence`) and a sharded
:class:`~repro.cluster.router.CuratorCluster`
(:func:`run_cluster_detection_equivalence`), where every tamper case
is re-run once per shard — the adversary attacks one shard's raw
devices and detection must surface through the cluster's merged,
fan-out verification.  Sharding must not dilute detection power.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.audit.checkpoint import CheckpointStore
from repro.cluster.ring import sample_patients
from repro.cluster.router import CuratorCluster
from repro.core.config import CuratorConfig
from repro.core.engine import CuratorStore
from repro.crypto.kdf import derive_key
from repro.crypto.rsa import generate_keypair
from repro.errors import CrashError, IntegrityError, MigrationError
from repro.index.trustworthy import CHUNK_CAPACITY
from repro.storage.journal import HEADER_SIZE, Journal
from repro.util.clock import SimulatedClock
from repro.util.encoding import canonical_bytes, canonical_loads
from repro.records.ids import version_id
from repro.records.model import ClinicalNote

_FULL_RESCAN_EVERY = 4
_SPOT_CHECKS = 6
_CLEAN_SAMPLE = 4

# Shared across cluster builds so each tamper case does not pay an RSA
# keygen (the keypair models one HSM-held site identity anyway).
_CLUSTER_KEYPAIR = None


@dataclass(frozen=True)
class EquivalenceCase:
    """Outcome of one tamper scenario."""

    name: str
    tampered: bool  # the tamper actually landed on a device
    incremental_detects: bool  # the bounded policy caught it
    full_detects: bool  # an unconditional full pass catches it
    caught_by: str  # "incremental" | "escalation" | "none" | "n/a"
    attempts: int  # passes the bounded policy ran before detection
    expected_flag: str = ""  # record the full pass must implicate, alone
    flagged: tuple[str, ...] = ()  # records the full pass implicated

    @property
    def violation(self) -> bool:
        if not self.tampered:
            # control case: incremental must not cry wolf
            return self.incremental_detects or self.full_detects
        if self.full_detects and not self.incremental_detects:
            return True
        if self.expected_flag and self.flagged != (self.expected_flag,):
            # Detection that cannot localize the damage is a weaker
            # guarantee: a batched write must not smear blame across its
            # siblings, nor hide the victim in a pile of false flags.
            return True
        return False


@dataclass
class EquivalenceReport:
    """Outcome of the whole suite."""

    cases: tuple[EquivalenceCase, ...]

    @property
    def violations(self) -> list[EquivalenceCase]:
        return [case for case in self.cases if case.violation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        lines = [
            f"detection equivalence: {len(self.cases)} cases, "
            f"{len(self.violations)} violations"
        ]
        for case in self.cases:
            status = "VIOLATION" if case.violation else "ok"
            lines.append(
                f"  [{status}] {case.name}: caught_by={case.caught_by} "
                f"attempts={case.attempts} full_detects={case.full_detects}"
            )
        return "\n".join(lines)


@dataclass
class _Substrate:
    """One deployment under attack.

    ``surface`` is the API the operator verifies and works through (an
    engine, or the whole cluster); ``target`` is the engine whose raw
    devices the adversary reaches (for a cluster, one shard); the
    seeded ``records`` and ``dirty_patient`` are guaranteed resident on
    the target, so every tamper lands where the adversary can write.
    """

    surface: object
    target: CuratorStore
    records: tuple[str, ...]
    dirty_patient: str
    clock: SimulatedClock


def _seed_note(record_id: str, patient_id: str, clock: SimulatedClock, n: int):
    return ClinicalNote.create(
        record_id=record_id,
        patient_id=patient_id,
        created_at=clock.now(),
        author="dr-eq",
        specialty="cardiology",
        text=f"equivalence seed note {n} with distinctive text",
    )


def _build_single() -> _Substrate:
    clock = SimulatedClock(start=1.17e9)
    config = CuratorConfig(
        master_key=bytes(range(32)),
        clock=clock,
        device_capacity=1 << 20,
        audit_spot_checks=_SPOT_CHECKS,
        audit_full_rescan_every=_FULL_RESCAN_EVERY,
        integrity_clean_sample=_CLEAN_SAMPLE,
    )
    store = CuratorStore(config)
    for n in range(6):
        store.store(_seed_note(f"rec-{n}", f"pat-{n}", clock, n), author_id="dr-eq")
    for n in range(3):
        store.read(f"rec-{n}", actor_id="dr-eq")
    # The system believes itself clean: watermark sealed, dirty sets
    # empty.  Tampering lands on top of this state.
    assert store.verify_audit_trail().ok
    assert store.verify_integrity().ok
    return _Substrate(
        surface=store,
        target=store,
        records=tuple(f"rec-{n}" for n in range(6)),
        dirty_patient="pat-dirty",
        clock=clock,
    )


def _build_cluster(shards: int, target_shard: int) -> _Substrate:
    global _CLUSTER_KEYPAIR
    if _CLUSTER_KEYPAIR is None:
        _CLUSTER_KEYPAIR = generate_keypair(768)
    clock = SimulatedClock(start=1.17e9)
    config = CuratorConfig(
        master_key=bytes(range(32)),
        clock=clock,
        device_capacity=1 << 20,
        audit_spot_checks=_SPOT_CHECKS,
        audit_full_rescan_every=_FULL_RESCAN_EVERY,
        integrity_clean_sample=_CLEAN_SAMPLE,
        signing_keypair=_CLUSTER_KEYPAIR,
    )
    cluster = CuratorCluster(config, shards=shards)
    target_records: list[str] = []
    n = 0
    # three resident records per shard, stored and read through the
    # cluster so every shard's audit log grows past the prefix-tamper
    # minimum before its watermark seals
    for shard, patients in sample_patients(cluster.ring, 3, "pat-s").items():
        for patient_id in patients:
            record_id = f"rec-{shard}-{n}"
            cluster.store(_seed_note(record_id, patient_id, clock, n), "dr-eq")
            cluster.read(record_id, actor_id="dr-eq")
            if shard == target_shard:
                target_records.append(record_id)
            n += 1
    assert cluster.verify_audit_trail().ok
    assert cluster.verify_integrity().ok
    return _Substrate(
        surface=cluster,
        target=cluster.shards[target_shard],
        records=tuple(target_records),
        dirty_patient=sample_patients(cluster.ring, 1, "pat-dirty-")[target_shard][0],
        clock=clock,
    )


def _append_delta(sub: _Substrate, reads: int = 2) -> None:
    """Grow the target's log past the watermark (the incremental delta)."""
    for n in range(reads):
        sub.surface.read(sub.records[n % len(sub.records)], actor_id="dr-eq")


def _checkpoint_key(sub: _Substrate) -> bytes:
    return derive_key(
        sub.target._config.master_key, "curator/audit-checkpoint"  # noqa: SLF001
    )


# -- tamper behaviours (each returns True when the tamper landed) --------


def _tamper_audit_frame(sub: _Substrate, index: int, mutate) -> bool:
    device = sub.target.audit_log.device
    for position, (offset, payload, _ok) in enumerate(
        Journal.walk_frames(device)
    ):
        if position != index:
            continue
        forged = mutate(payload)
        if forged is None or forged == payload:
            return False
        Journal.forge_frame(device, offset, forged)
        return True
    return False


def _rewrite_actor(payload: bytes) -> bytes | None:
    if b"dr-eq" not in payload:
        return None
    return payload.replace(b"dr-eq", b"xr-eq", 1)


def _flip_chain_digest(payload: bytes) -> bytes | None:
    entry = canonical_loads(payload)
    chain = entry["chain"]
    entry["chain"] = chain[:-1] + bytes([chain[-1] ^ 0x01])
    return canonical_bytes(entry)


def _tamper_prefix(sub: _Substrate) -> bool:
    watermark = sub.target.audit_log.watermark
    assert watermark is not None and watermark.size > 3
    ok = _tamper_audit_frame(sub, 2, _rewrite_actor)
    _append_delta(sub)
    return ok


def _tamper_suffix(sub: _Substrate) -> bool:
    watermark = sub.target.audit_log.watermark
    assert watermark is not None
    _append_delta(sub)
    return _tamper_audit_frame(sub, watermark.size, _rewrite_actor)


def _tamper_chain_field(sub: _Substrate) -> bool:
    ok = _tamper_audit_frame(sub, 1, _flip_chain_digest)
    _append_delta(sub)
    return ok


def _truncate_tail(sub: _Substrate) -> bool:
    _append_delta(sub)
    device = sub.target.audit_log.device
    last_offset = None
    for offset, _payload, _ok in Journal.walk_frames(device):
        last_offset = offset
    if last_offset is None:
        return False
    device.raw_write(last_offset, b"\x00" * 8)  # smash the frame header
    return True


def _destroy_watermarks(sub: _Substrate) -> bool:
    """Prefix tamper + wipe every persisted seal + process restart.

    The adversary cannot forge a seal (MAC) but can destroy them all.
    The in-memory watermark dies with the process; on restart the log
    adopts whatever the wiped checkpoint journal still holds — nothing —
    and the first incremental request must escalate to a full rescan.
    """
    ok = _tamper_audit_frame(sub, 2, _rewrite_actor)
    device = sub.target.checkpoints.device
    device.raw_write(0, b"\x00" * device.capacity)
    sub.target.audit_log.adopt_checkpoints(
        CheckpointStore.recover(device, key=_checkpoint_key(sub))
    )
    return ok


def _forge_watermark(sub: _Substrate) -> bool:
    """Prefix tamper + a forged seal claiming the tampered state clean.

    The forged frame carries no valid MAC (the adversary lacks the
    derived key), so on restart ``latest()`` must skip it and fall back
    to the genuine older seal — the tamper stays catchable by the
    spot-check/cadence machinery.  If the forgery were trusted, the
    suffix replay would start past the tampering and detection could be
    laundered away entirely.
    """
    ok = _tamper_audit_frame(sub, 2, _rewrite_actor)
    log = sub.target.audit_log
    forged = canonical_bytes(
        {
            "size": len(log),
            "head": log.head_digest,
            "merkle_root": log.merkle_root(),
            "verified_at": 0.0,
            "incremental_runs": 0,
        }
    )
    device = sub.target.checkpoints.device
    journal = Journal.recover(device)
    journal.append(b"\x11" * 32 + forged)  # tag the adversary cannot compute
    sub.target.audit_log.adopt_checkpoints(
        CheckpointStore.recover(device, key=_checkpoint_key(sub))
    )
    return ok


def _rot_dirty_object(sub: _Substrate) -> str | None:
    """Rot a record ``store()`` wrote after the last full sweep."""
    victim = "rec-dirty"
    sub.surface.store(_seed_note(victim, sub.dirty_patient, sub.clock, 0), "dr-eq")
    return victim if _rot_extent(sub.target, version_id(victim, 0)) else None


def _rot_clean_object(sub: _Substrate) -> str | None:
    """Rot a seeded record (written by ``store()``) the system has
    already swept and believes clean."""
    victim = sub.records[0]
    return victim if _rot_extent(sub.target, version_id(victim, 0)) else None


# -- cold-tier tampers -------------------------------------------------------
#
# The tiered archive adds a fourth attack surface: compacted cold
# segments on their own device.  The adversary model is the same smart
# insider as the warm cases — raw device access, knows the segment
# layout, recomputes the frame checksum after writing — and the demand
# is the same: the bounded incremental policy must catch what a full
# pass catches, blaming exactly the tampered record.

_COLD_VICTIM = 1  # seeded record demoted (with one sibling) before tampering


def _stage_cold(sub: _Substrate) -> str:
    """Demote the victim (plus a sibling that must stay unblamed) and
    verify fully, so the tamper lands on a segment the system already
    believes clean — the hardest case for the incremental checker."""
    victim = sub.records[_COLD_VICTIM]
    sibling = sub.records[_COLD_VICTIM + 1]
    demoted = sub.target.demote_records([victim, sibling], actor_id="dr-eq")
    assert set(demoted) == {victim, sibling}
    assert sub.surface.verify_integrity().ok
    return victim


def _forge_cold_payload(engine, record_id: str, mutate) -> bool:
    """Rewrite the victim's segment frame the way a raw-media insider
    would: mutate the payload bytes, then recompute the frame checksum."""
    segment = engine.cold.segment_of(record_id)
    device = engine.cold.device
    payload = bytearray(
        device.raw_read(segment.frame_offset + HEADER_SIZE, segment.payload_length)
    )
    member = segment.manifest.member(record_id)
    member_start = (
        segment.member_area - (segment.frame_offset + HEADER_SIZE) + member.offset
    )
    if not mutate(payload, member_start, member.length):
        return False
    Journal.forge_frame(device, segment.frame_offset, bytes(payload))
    return True


def _cold_body_rot(sub: _Substrate) -> str | None:
    """Flip one byte in the middle of the victim's sealed member."""
    victim = _stage_cold(sub)

    def flip(payload: bytearray, start: int, length: int) -> bool:
        payload[start + length // 2] ^= 0x5A
        return True

    return victim if _forge_cold_payload(sub.target, victim, flip) else None


def _cold_recall_truncation(sub: _Substrate) -> str | None:
    """Zero the tail half of the victim's member — the shape a torn
    device leaves.  The sealed bytes no longer match their leaf, so the
    recall path must refuse to repatriate anything."""
    victim = _stage_cold(sub)

    def truncate(payload: bytearray, start: int, length: int) -> bool:
        payload[start + length // 2 : start + length] = bytes(
            length - length // 2
        )
        return True

    if not _forge_cold_payload(sub.target, victim, truncate):
        return None
    # the recall path itself must refuse the damaged member
    recall_refused = False
    try:
        sub.surface.read(victim, actor_id="dr-eq")
    except IntegrityError:
        recall_refused = True
    assert recall_refused, "recall repatriated a truncated cold member"
    return victim


def _cold_manifest_rot(sub: _Substrate) -> str | None:
    """Rewrite the victim's manifest entry in place (same compressed
    length, recomputed frame checksum).  The member bytes are intact —
    only the trusted-manifest comparison can catch this, with blame on
    exactly the forged entry."""
    from repro.archive.segment import reforge_manifest
    from repro.crypto.hashing import sha256 as _sha256

    victim = _stage_cold(sub)
    segment = sub.target.cold.segment_of(victim)
    device = sub.target.cold.device
    payload = device.raw_read(
        segment.frame_offset + HEADER_SIZE, segment.payload_length
    )
    for salt in range(64):  # a random digest may compress larger; retry
        def swap_leaf(manifest: dict, salt=salt) -> dict:
            for entry in manifest["members"]:
                if entry["record_id"] == victim:
                    entry["leaf_digest"] = _sha256(
                        b"forged-cold-leaf" + bytes([salt])
                    )
            return manifest

        try:
            forged = reforge_manifest(payload, swap_leaf)
        except Exception:  # noqa: BLE001 — did not fit, retry with new salt
            continue
        Journal.forge_frame(device, segment.frame_offset, forged)
        return victim
    return None


# -- index tampers -----------------------------------------------------------
#
# The trustworthy index keeps a posting list as a chain of encrypted
# chunks on its own device.  Two attacks only a chunked layout admits:
# rot inside a *sealed* chunk that no later add will ever rewrite, and
# replaying a superseded version of the tail chunk so the list silently
# loses its newest entries.  Blame must be ``<index>`` on the attacked
# engine and nothing else.


def _index_chunk_rot(sub: _Substrate) -> bool:
    """Grow one posting list past a chunk boundary, then flip a
    ciphertext byte in its sealed first chunk (checksum recomputed)."""
    notes = [
        _seed_note(f"rec-chunk-{n}", sub.dirty_patient, sub.clock, n)
        for n in range(CHUNK_CAPACITY)
    ]
    sub.surface.store_many(notes, "dr-eq")
    index = sub.target.index.index
    chain = index.chunk_extents()[index.trapdoor("distinctive")]
    if len(chain) < 2:
        return False  # nothing sealed: the tamper below would hit the tail
    sealed = chain[0]
    payload = bytearray(index.device.raw_read(sealed.device_offset, sealed.size))
    payload[-1] ^= 0x5A
    Journal.forge_frame(
        index.device, sealed.device_offset - HEADER_SIZE, bytes(payload)
    )
    return True


def _index_tail_rollback(sub: _Substrate) -> bool:
    """Keep a copy of a tail-chunk frame, let the list move on, then
    write the copy back over the current tail frame.  A correction
    re-indexes the same record id, so the list advances two versions
    (entry removed, entry re-added) to a frame of identical length —
    the stale copy fits exactly, checksum and MAC intact."""
    index = sub.target.index.index
    trapdoor = index.trapdoor("distinctive")  # every seeded note has it
    stale = index.current_versions()[trapdoor]
    copy = index.device.raw_read(
        stale.device_offset - HEADER_SIZE, HEADER_SIZE + stale.size
    )
    record = sub.surface.read(sub.records[0], actor_id="dr-eq")
    sub.surface.correct(record, "dr-eq", "re-index")
    current = index.current_versions()[trapdoor]
    if current.size != stale.size or current.version != stale.version + 2:
        return False
    index.device.raw_write(current.device_offset - HEADER_SIZE, copy)
    return True


_BATCH_SIZE = 5
_BATCH_VICTIM = 2


def _tamper_batch_member(sub: _Substrate) -> str | None:
    """Rot exactly one member of a ``store_many`` batch.

    The batched ingest path writes all of a batch's WORM objects through
    one scattered flush and covers them with a single aggregated custody
    signature — a shared fate the per-record paths never had.  Detection
    must still localize: the pass that catches the rot has to implicate
    the tampered record and *only* the tampered record, or the batch's
    siblings are collateral damage in every forensic follow-up.
    """
    notes = [
        ClinicalNote.create(
            record_id=f"rec-batch-{n}",
            patient_id=sub.dirty_patient,
            created_at=sub.clock.now(),
            author="dr-eq",
            specialty="cardiology",
            text=f"batched note {n} landing in one scattered flush",
        )
        for n in range(_BATCH_SIZE)
    ]
    sub.surface.store_many(notes, "dr-eq")
    victim = f"rec-batch-{_BATCH_VICTIM}"
    return victim if _rot_extent(sub.target, version_id(victim, 0)) else None


def _rot_extent(engine, object_id: str) -> bool:
    """Flip one byte inside *object_id*'s extent of its WORM frame.

    Every WORM frame has one layout — a manifest header, a NUL, then
    the members' bytes back to back — so a raw-media adversary who knows
    it can target one member exactly; the manifest locates the extent.
    Every frame carrying the id is rotted (a migration round trip can
    leave several; recovery is last-frame-wins, so only rotting all of
    them guarantees the live extent is hit)."""
    device = engine.worm.device
    landed = False
    for offset, payload, _ok in Journal.walk_frames(device):
        separator = payload.find(b"\x00")
        try:
            manifest = canonical_loads(payload[:separator])["batch"]
        except Exception:  # noqa: BLE001 — foreign frame
            continue
        start = separator + 1
        for entry in manifest:
            if entry["object_id"] == object_id:
                forged = bytearray(payload)
                forged[start + entry["size"] // 2] ^= 0x5A
                Journal.forge_frame(device, offset, bytes(forged))
                landed = True
                break
            start += entry["size"]
    return landed


# -- the bounded policy ---------------------------------------------------


def _run_policy(incremental_check, full_check) -> tuple[bool, str, int]:
    """Up to ``full_rescan_every`` incremental passes, then one full.

    Returns ``(detected, caught_by, attempts)``.  ``caught_by`` is
    ``"incremental"`` when a pass before the final forced full caught it
    (including internal escalations the cadence itself triggered),
    ``"escalation"`` when only the terminal full rescan did.
    """
    for attempt in range(1, _FULL_RESCAN_EVERY + 1):
        if incremental_check():
            return True, "incremental", attempt
    if full_check():
        return True, "escalation", _FULL_RESCAN_EVERY + 1
    return False, "none", _FULL_RESCAN_EVERY + 1


def _audit_case(name: str, tamper, build: Callable[[], _Substrate]) -> EquivalenceCase:
    sub = build()
    tampered = tamper(sub)
    detected, caught_by, attempts = _run_policy(
        lambda: not sub.surface.verify_audit_trail(incremental=True).ok,
        lambda: not sub.surface.verify_audit_trail().ok,
    )
    full_detects = not sub.surface.verify_audit_trail().ok
    return EquivalenceCase(
        name=name,
        tampered=tampered,
        incremental_detects=detected,
        full_detects=full_detects or detected,
        caught_by=caught_by if tampered else "n/a",
        attempts=attempts,
    )


def _integrity_case(
    name: str, tamper, build: Callable[[], _Substrate]
) -> EquivalenceCase:
    """A WORM or cold-tier tamper (returns the victim record id, or
    ``None`` if it did not land), judged on detection *and* exact blame.

    ``flagged`` records what the terminal full pass implicated (cluster
    shard labels stripped); the case is a violation unless that is
    precisely the tampered record.
    """
    sub = build()
    victim = tamper(sub)
    detected, caught_by, attempts = _run_policy(
        lambda: not sub.surface.verify_integrity(incremental=True).ok,
        lambda: not sub.surface.verify_integrity().ok,
    )
    report = sub.surface.verify_integrity()
    return EquivalenceCase(
        name=name,
        tampered=victim is not None,
        incremental_detects=detected,
        full_detects=(not report.ok) or detected,
        caught_by=caught_by if victim is not None else "n/a",
        attempts=attempts,
        expected_flag=victim or "",
        flagged=tuple(v.rsplit(":", 1)[-1] for v in report.violations),
    )


def _index_case(name: str, tamper, build: Callable[[], _Substrate]) -> EquivalenceCase:
    """Index tampers.  The index is verified whole on every pass, so the
    bounded policy is one incremental pass; exact blame means that pass
    and the full pass both implicate ``<index>`` — on a cluster, under
    the attacked shard's label only — and nothing else."""
    sub = build()
    tampered = tamper(sub)
    expected = "<index>"
    if sub.surface is not sub.target:
        owner = sub.surface.shard_ids[sub.surface.shards.index(sub.target)]
        expected = f"{owner}:<index>"
    incremental = sub.surface.verify_integrity(incremental=True)
    full = sub.surface.verify_integrity()
    return EquivalenceCase(
        name=name,
        tampered=tampered,
        incremental_detects=not incremental.ok,
        full_detects=not full.ok,
        caught_by="none" if incremental.ok else "incremental",
        attempts=1,
        expected_flag=expected,
        flagged=tuple(sorted({*incremental.violations, *full.violations})),
    )


def _control_case(build: Callable[[], _Substrate], name: str) -> EquivalenceCase:
    sub = build()
    _append_delta(sub)
    audit_fp = any(
        not sub.surface.verify_audit_trail(incremental=True).ok
        for _ in range(_FULL_RESCAN_EVERY)
    )
    integrity_fp = any(
        not sub.surface.verify_integrity(incremental=True).ok
        for _ in range(_FULL_RESCAN_EVERY)
    )
    full_fp = (
        not sub.surface.verify_audit_trail().ok
        or not sub.surface.verify_integrity().ok
    )
    return EquivalenceCase(
        name=name,
        tampered=False,
        incremental_detects=audit_fp or integrity_fp,
        full_detects=full_fp,
        caught_by="n/a",
        attempts=_FULL_RESCAN_EVERY,
    )


# (runner kind, case name, tamper).  Audit and index tampers return
# whether they landed; integrity tampers return the victim's record id.
_TAMPER_CASES: tuple[tuple[str, str, Callable[[_Substrate], object]], ...] = (
    ("audit", "audit_prefix_rewrite", _tamper_prefix),
    ("audit", "audit_suffix_rewrite", _tamper_suffix),
    ("audit", "audit_chain_field_edit", _tamper_chain_field),
    ("audit", "audit_truncation", _truncate_tail),
    ("audit", "watermark_destruction", _destroy_watermarks),
    ("audit", "watermark_forgery", _forge_watermark),
    ("integrity", "worm_dirty_object_rot", _rot_dirty_object),
    ("integrity", "worm_clean_object_rot", _rot_clean_object),
    ("integrity", "worm_batch_member_rot", _tamper_batch_member),
    ("integrity", "cold_segment_body_rot", _cold_body_rot),
    ("integrity", "cold_manifest_rot", _cold_manifest_rot),
    ("integrity", "cold_recall_truncation", _cold_recall_truncation),
    ("index", "index_chunk_rot", _index_chunk_rot),
    ("index", "index_tail_rollback", _index_tail_rollback),
)

_CASE_RUNNERS = {
    "audit": _audit_case,
    "integrity": _integrity_case,
    "index": _index_case,
}


def _run_cases(
    build: Callable[[], _Substrate], prefix: str = ""
) -> list[EquivalenceCase]:
    cases = []
    for kind, name, tamper in _TAMPER_CASES:
        cases.append(_CASE_RUNNERS[kind](f"{prefix}{name}", tamper, build))
    return cases


# -- migration-aware cases -------------------------------------------------
#
# Verifiable migration (media refresh on one engine, patient moves in a
# rebalancing cluster) adds a third detector to the incremental/full
# pair: the migration verifier itself.  The equivalence demand extends
# naturally — tampering planted *mid-migration* must abort the move with
# the source still authoritative, tampering planted *post-migration*
# must be blamed on the record's **current** home, and extents a
# completed move left behind must never draw blame to the stale home.


def _migration_blocks_refresh_case() -> EquivalenceCase:
    """Rot a source extent, then refresh media: the migration manifest
    check must refuse to certify the copy (mid-migration detection),
    and the terminal full pass must blame exactly the rotted record."""
    sub = _build_single()
    victim = sub.records[0]
    tampered = _rot_extent(sub.target, version_id(victim, 0))
    blocked = False
    try:
        sub.target.refresh_media()
    except IntegrityError:
        blocked = True
    detected, caught_by, attempts = _run_policy(
        lambda: not sub.surface.verify_integrity(incremental=True).ok,
        lambda: not sub.surface.verify_integrity().ok,
    )
    report = sub.surface.verify_integrity()
    return EquivalenceCase(
        name="migration_source_rot_blocks_refresh",
        tampered=tampered,
        incremental_detects=blocked or detected,
        full_detects=(not report.ok) or detected,
        caught_by="migration-verify" if blocked else caught_by,
        attempts=0 if blocked else attempts,
        expected_flag=victim,
        flagged=tuple(report.violations),
    )


def _migration_post_refresh_case() -> EquivalenceCase:
    """Refresh media cleanly, then rot the *new* medium: detection must
    follow the data to its current home with exact blame."""
    sub = _build_single()
    victim = sub.records[1]
    sub.target.refresh_media()
    tampered = _rot_extent(sub.target, version_id(victim, 0))
    detected, caught_by, attempts = _run_policy(
        lambda: not sub.surface.verify_integrity(incremental=True).ok,
        lambda: not sub.surface.verify_integrity().ok,
    )
    report = sub.surface.verify_integrity()
    return EquivalenceCase(
        name="migration_post_refresh_rot",
        tampered=tampered,
        incremental_detects=detected,
        full_detects=(not report.ok) or detected,
        caught_by=caught_by,
        attempts=attempts,
        expected_flag=victim,
        flagged=tuple(report.violations),
    )


def run_detection_equivalence() -> EquivalenceReport:
    """Every tamper case against a single engine (the module policy)."""
    cases = [_control_case(_build_single, "no_tamper_control")]
    cases.extend(_run_cases(_build_single))
    cases.append(_migration_blocks_refresh_case())
    cases.append(_migration_post_refresh_case())
    return EquivalenceReport(cases=tuple(cases))


def run_cluster_detection_equivalence(shards: int = 2) -> EquivalenceReport:
    """Every tamper case re-run once per shard of a cluster.

    The adversary writes to one shard's raw devices; the operator only
    ever calls the cluster's fan-out ``verify_*``.  Zero violations
    means sharding preserved the single-engine detection guarantees —
    the cluster acceptance bar for the scaling benchmark.
    """
    cases = [
        _control_case(
            lambda: _build_cluster(shards, 0), "cluster:no_tamper_control"
        )
    ]
    for target in range(shards):
        cases.extend(
            _run_cases(
                lambda target=target: _build_cluster(shards, target),
                prefix=f"shard-{target:02d}:",
            )
        )
    return EquivalenceReport(cases=tuple(cases))


# -- rebalance-aware oracle ------------------------------------------------

_REBALANCE_PATIENTS = 10


@dataclass
class _RebalanceSub:
    """A virtual-node cluster about to be (or just) reshaped."""

    cluster: CuratorCluster
    clock: SimulatedClock
    patients: tuple[str, ...]
    record_of: dict[str, str]

    def mover(self) -> str:
        """A seeded patient the 2 -> 4 grow will displace."""
        ring = self.cluster.ring
        final = ring.with_added("shard-02").with_added("shard-03")
        displaced = ring.diff(final).displaced(self.patients)
        assert displaced, "no seeded patient is displaced by the grow"
        return displaced[0]

    def home_shard_id(self, patient_id: str) -> str:
        return self.cluster.shard_ids[self.cluster.shard_for(patient_id)]

    def policy(self) -> tuple[bool, str, int]:
        return _run_policy(
            lambda: not self.cluster.verify_integrity(incremental=True).ok,
            lambda: not self.cluster.verify_integrity().ok,
        )


def _build_rebalance() -> _RebalanceSub:
    global _CLUSTER_KEYPAIR
    if _CLUSTER_KEYPAIR is None:
        _CLUSTER_KEYPAIR = generate_keypair(768)
    clock = SimulatedClock(start=1.17e9)
    config = CuratorConfig(
        master_key=bytes(range(32)),
        clock=clock,
        device_capacity=1 << 20,
        audit_spot_checks=_SPOT_CHECKS,
        audit_full_rescan_every=_FULL_RESCAN_EVERY,
        integrity_clean_sample=_CLEAN_SAMPLE,
        signing_keypair=_CLUSTER_KEYPAIR,
    )
    cluster = CuratorCluster(config, shards=2)
    patients, record_of = [], {}
    for n in range(_REBALANCE_PATIENTS):
        patient_id, record_id = f"pat-rb-{n}", f"rec-rb-{n}"
        cluster.store(_seed_note(record_id, patient_id, clock, n), "dr-eq")
        cluster.read(record_id, actor_id="dr-eq")
        patients.append(patient_id)
        record_of[patient_id] = record_id
        clock.advance(1.0)
    assert cluster.verify_audit_trail().ok
    assert cluster.verify_integrity().ok
    return _RebalanceSub(
        cluster=cluster,
        clock=clock,
        patients=tuple(patients),
        record_of=record_of,
    )


def _rebalance_control_case() -> EquivalenceCase:
    """A clean online grow: every move's proof verifies, and neither
    verification path reports a problem that does not exist."""
    sub = _build_rebalance()
    clean = True
    try:
        report = sub.cluster.rebalance(target_shards=4, actor_id="oracle")
        for proof in report.proofs:
            sub.cluster.verify_move_proof(proof)
        clean = report.moved > 0
    except Exception:  # noqa: BLE001 — any failure here is a violation
        clean = False
    false_positive = any(
        not sub.cluster.verify_integrity(incremental=True).ok
        for _ in range(_FULL_RESCAN_EVERY)
    ) or not sub.cluster.verify_integrity().ok
    return EquivalenceCase(
        name="rebalance:no_tamper_control",
        tampered=False,
        incremental_detects=false_positive,
        full_detects=not clean,
        caught_by="n/a",
        attempts=_FULL_RESCAN_EVERY,
    )


def _rebalance_mid_move_source_rot_case() -> EquivalenceCase:
    """Kill the rebalancer at a victim's cutover boundary, rot the
    source copy, salvage — detection must blame exactly the record on
    its **current** (post-salvage: source) shard."""
    sub = _build_rebalance()
    victim = sub.mover()
    record_id = sub.record_of[victim]

    def crash_at_cutover(stage: str, patient_id: str) -> None:
        if stage == "cutover" and patient_id == victim:
            raise CrashError(f"oracle crash before cutover of {patient_id}")

    crashed = False
    try:
        sub.cluster.rebalance(
            target_shards=4, actor_id="oracle", hook=crash_at_cutover
        )
    except CrashError:
        crashed = True
    tampered = crashed and _rot_extent(
        sub.cluster.shards[sub.cluster.shard_for(victim)], version_id(record_id, 0)
    )
    sub.cluster.recover_interrupted_moves(actor_id="oracle")
    detected, caught_by, attempts = sub.policy()
    report = sub.cluster.verify_integrity()
    return EquivalenceCase(
        name="rebalance:mid_move_source_rot",
        tampered=tampered,
        incremental_detects=detected,
        full_detects=(not report.ok) or detected,
        caught_by=caught_by if tampered else "n/a",
        attempts=attempts,
        expected_flag=f"{sub.home_shard_id(victim)}:{record_id}",
        flagged=tuple(report.violations),
    )


def _rebalance_post_move_dest_rot_case() -> EquivalenceCase:
    """Complete the grow, then rot a moved patient's extent at its new
    home — blame must land on the destination shard, exactly."""
    sub = _build_rebalance()
    victim = sub.mover()
    record_id = sub.record_of[victim]
    report = sub.cluster.rebalance(target_shards=4, actor_id="oracle")
    assert any(proof.patient_id == victim for proof in report.proofs)
    tampered = _rot_extent(
        sub.cluster.shards[sub.cluster.shard_for(victim)], version_id(record_id, 0)
    )
    detected, caught_by, attempts = sub.policy()
    full = sub.cluster.verify_integrity()
    return EquivalenceCase(
        name="rebalance:post_move_dest_rot",
        tampered=tampered,
        incremental_detects=detected,
        full_detects=(not full.ok) or detected,
        caught_by=caught_by if tampered else "n/a",
        attempts=attempts,
        expected_flag=f"{sub.home_shard_id(victim)}:{record_id}",
        flagged=tuple(full.violations),
    )


def _rebalance_stale_source_rot_case() -> EquivalenceCase:
    """Rot the expatriated extents a completed move left on the source.
    The bytes are dead — custody moved with the patient — so *any*
    detection here is false blame against the stale home (modelled as a
    control: the case is a violation if anything fires)."""
    sub = _build_rebalance()
    victim = sub.mover()
    record_id = sub.record_of[victim]
    source_id = sub.home_shard_id(victim)
    sub.cluster.rebalance(target_shards=4, actor_id="oracle")
    assert sub.home_shard_id(victim) != source_id
    source = sub.cluster.shards[sub.cluster.shard_ids.index(source_id)]
    landed = _rot_extent(source, version_id(record_id, 0))
    false_positive = any(
        not sub.cluster.verify_integrity(incremental=True).ok
        for _ in range(_FULL_RESCAN_EVERY)
    ) or not sub.cluster.verify_integrity().ok
    return EquivalenceCase(
        name="rebalance:stale_source_rot",
        tampered=not landed,  # must land, as a tombstoned extent
        incremental_detects=false_positive,
        full_detects=false_positive,
        caught_by="n/a",
        attempts=_FULL_RESCAN_EVERY,
    )


def _rebalance_mid_move_dest_tamper_case() -> EquivalenceCase:
    """Rot the destination's freshly imported copy before the move's
    verify stage: the double-read against the signed manifest must
    abort the move with the source still authoritative and intact."""
    sub = _build_rebalance()
    victim = sub.mover()
    record_id = sub.record_of[victim]
    source_id = sub.home_shard_id(victim)
    tampered = {"landed": False}

    def rot_dest_copy(stage: str, patient_id: str) -> None:
        if stage != "verify" or patient_id != victim:
            return
        # mid-transition the ring is already final: its answer is the
        # move's destination
        destination = sub.cluster.ring.shard_for(patient_id)
        tampered["landed"] = _rot_extent(
            sub.cluster.shards[destination], version_id(record_id, 0)
        )

    aborted = False
    try:
        sub.cluster.rebalance(
            target_shards=4, actor_id="oracle", hook=rot_dest_copy
        )
    except (MigrationError, IntegrityError):
        aborted = True
    intact = (
        sub.home_shard_id(victim) == source_id
        and sub.cluster.read(record_id, actor_id="dr-eq") is not None
        and sub.cluster.verify_integrity().ok
        and sub.cluster.verify_audit_trail().ok
    )
    return EquivalenceCase(
        name="rebalance:mid_move_dest_tamper_aborts",
        tampered=tampered["landed"],
        incremental_detects=aborted and intact,
        full_detects=True,
        caught_by="migration-verify" if aborted else "none",
        attempts=1,
    )


def run_rebalance_detection_equivalence() -> EquivalenceReport:
    """Tamper cases staged around an online elastic rebalance.

    The adversary strikes while (or right after) patients move between
    shards; zero violations means the move machinery neither loses nor
    dilutes detection power: mid-move tampering aborts the move or is
    blamed on the still-authoritative source, post-move tampering is
    blamed on the new home, and extents the move retired draw no blame
    at all.  This is the E6b acceptance oracle.
    """
    return EquivalenceReport(
        cases=(
            _rebalance_control_case(),
            _rebalance_mid_move_source_rot_case(),
            _rebalance_post_move_dest_rot_case(),
            _rebalance_stale_source_rot_case(),
            _rebalance_mid_move_dest_tamper_case(),
        )
    )
