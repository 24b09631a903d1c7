"""Detection-equivalence oracle: one scenario table, one judge.

The incremental fast path (watermarked audit verification, dirty-set
integrity checks) is only admissible if it gives up **no detection
power**: every tampering a raw-device insider plants must still be
caught — either directly by an incremental pass, or by the escalation
machinery (missing/forged watermarks force a full rescan; the forced-
rescan cadence bounds how long probabilistic spot-checking may miss;
the rotating clean sample bounds how long clean-object rot may hide) —
and blamed on exactly what was damaged.  And that must hold after *any*
history of the store, not only on one freshly built.

A scenario is a row ``(deployment, history, tamper)``:

1. :func:`~repro.verify.substrate.deploy` a single engine or a cluster
   with one shard named as the adversary's, seed it, settle it;
2. run the history (:data:`HISTORIES`), and settle again — the
   adversary strikes *after* the system believes itself clean, the
   hardest case for an incremental checker;
3. plant the tamper (:data:`TAMPERS`) on the attacked engine's raw
   devices, against victims chosen among the records resident there
   *now*;
4. :func:`judge`: the **bounded incremental policy** — up to
   ``full_rescan_every`` incremental passes (successive operational
   health checks) then the one full pass the cadence guarantees — and
   an unconditional full verification of both kinds at the end.

A row **violates** detection equivalence when the full pass detects the
tampering but the bounded policy never did; when any pass implicates
anything but the damaged thing under the attacked shard's label; when a
row that planted nothing detectable (a control, a strike on bytes nobody
owns) raises any alarm; or when its tamper never landed — a row that
proved nothing must not read as a pass.

:func:`run_scenario_table` runs every row, or the rows it is handed by
name (``engine/fresh/worm_batch_member_rot``); the E6b, E8 and E9b bars
are such selections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.audit.checkpoint import CheckpointStore
from repro.crypto.kdf import derive_key
from repro.errors import IntegrityError
from repro.index.trustworthy import CHUNK_CAPACITY
from repro.records.ids import version_id
from repro.storage.journal import HEADER_SIZE, Journal
from repro.util.encoding import canonical_bytes, canonical_loads
from repro.verify import substrate
from repro.verify.substrate import (
    ACTOR,
    FULL_RESCAN_EVERY,
    Deployment,
    Strike,
    seed_note,
)
from repro.worm.store import WormStore


@dataclass(frozen=True)
class EquivalenceCase:
    """Outcome of one scenario."""

    name: str
    tampered: bool  # a detectable tamper landed on a device
    incremental_detects: bool  # the bounded policy (or a migration verifier) caught it
    full_detects: bool  # an unconditional full pass catches it
    caught_by: str  # incremental | escalation | migration-verify | none | n/a
    attempts: int  # passes the bounded policy ran before detection
    expected_flag: str = ""  # what the passes must implicate, alone, label included
    flagged: tuple[str, ...] = ()  # everything any pass implicated
    control: bool = False  # nothing detectable was planted: any alarm is false

    @property
    def violation(self) -> bool:
        if self.control:
            # incremental must not cry wolf, nor may a full pass
            return self.incremental_detects or self.full_detects or bool(self.flagged)
        if not self.tampered:
            return True  # the tamper never landed: the row proved nothing
        if self.full_detects and not self.incremental_detects:
            return True
        # Detection that cannot localize the damage is a weaker
        # guarantee: a batched write must not smear blame across its
        # siblings, a cluster must not blame the wrong shard, and the
        # victim must not hide in a pile of false flags.
        return self.flagged != ((self.expected_flag,) if self.expected_flag else ())


@dataclass
class EquivalenceReport:
    """Outcome of a set of scenarios."""

    cases: tuple[EquivalenceCase, ...]

    @property
    def violations(self) -> list[EquivalenceCase]:
        return [case for case in self.cases if case.violation]

    @property
    def not_landed(self) -> list[EquivalenceCase]:
        return [case for case in self.cases if not (case.tampered or case.control)]

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
            status = status if case.tampered or case.control else "NOT LANDED"
            lines.append(
                f"  [{status}] {case.name}: caught_by={case.caught_by} "
                f"attempts={case.attempts} full_detects={case.full_detects}"
            )
        return "\n".join(lines)


# -- tampers ---------------------------------------------------------------
#
# Each strikes the attacked engine's raw devices the way a smart insider
# would — knows the layouts, recomputes frame checksums — and returns what
# verification must blame for it: a record id, ``"audit-chain"``,
# ``"<index>"``, ``""`` when the bytes struck are nobody's (silence is
# the right answer), or ``None`` when the strike did not land.


def _append_delta(dep: Deployment, reads: int = 2) -> str:
    """Grow the attacked log past the watermark (the incremental delta)."""
    for record_id in dep.residents()[:reads]:
        dep.surface.read(record_id, actor_id=ACTOR)
    return ""


def _tamper_audit_frame(dep: Deployment, positions: range, mutate) -> str | None:
    """Forge the first frame among *positions* that *mutate* applies to."""
    device = dep.target.audit_log.device
    for position, (offset, payload, _ok) in enumerate(Journal.walk_frames(device)):
        forged = mutate(payload) if position in positions else None
        if forged is not None and forged != payload:
            Journal.forge_frame(device, offset, forged)
            return "audit-chain"
    return None


def _rewrite_actor(payload: bytes) -> bytes | None:
    actor = ACTOR.encode()
    return payload.replace(actor, b"x" + actor[1:], 1) if actor in payload else None


def _flip_chain_digest(payload: bytes) -> bytes | None:
    entry = canonical_loads(payload)
    chain = entry["chain"]
    entry["chain"] = chain[:-1] + bytes([chain[-1] ^ 0x01])
    return canonical_bytes(entry)


def _sealed(dep: Deployment) -> range:
    """Frame positions under the sealed watermark, the genesis aside."""
    watermark = dep.target.audit_log.watermark
    assert watermark is not None and watermark.size > 3
    return range(1, watermark.size)


def _tamper_sealed(mutate, then=_append_delta) -> Strike:
    """Forge a frame under the watermark, *then* let the system move on."""

    def strike(dep: Deployment) -> str | None:
        blame = _tamper_audit_frame(dep, _sealed(dep), mutate)
        then(dep)
        return blame

    return strike


def _tamper_suffix(dep: Deployment) -> str | None:
    start = _sealed(dep).stop
    _append_delta(dep)
    return _tamper_audit_frame(dep, range(start, 1 << 30), _rewrite_actor)


def _truncate_tail(dep: Deployment) -> str | None:
    _append_delta(dep)
    device = dep.target.audit_log.device
    *_, (last_offset, _payload, _ok) = Journal.walk_frames(device)
    device.raw_write(last_offset, b"\x00" * 8)  # smash the frame header
    return "audit-chain"


def _readopt_checkpoints(dep: Deployment) -> None:
    """What a process restart does to the watermark: the in-memory one
    dies, and the log adopts whatever the checkpoint journal yields."""
    target = dep.target
    key = derive_key(target._config.master_key, "curator/audit-checkpoint")  # noqa: SLF001
    target.audit_log.adopt_checkpoints(
        CheckpointStore.recover(target.checkpoints.device, key=key)
    )


def _destroy_watermarks(dep: Deployment) -> None:
    """Wipe every persisted seal + process restart (after a prefix
    tamper).  The adversary cannot forge a seal (MAC) but can destroy
    them all; the restarted log adopts nothing, and the first
    incremental request must escalate to a full rescan."""
    device = dep.target.checkpoints.device
    device.raw_write(0, b"\x00" * device.capacity)
    _readopt_checkpoints(dep)


def _forge_watermark(dep: Deployment) -> None:
    """A forged seal claiming the (prefix-tampered) state clean.

    The forged frame carries no valid MAC (the adversary lacks the
    derived key), so on restart ``latest()`` must skip it and fall back
    to the genuine older seal — the tamper stays catchable by the
    spot-check/cadence machinery.  If the forgery were trusted, the
    suffix replay would start past the tampering and detection could be
    laundered away entirely."""
    log = dep.target.audit_log
    forged = canonical_bytes(
        {
            "size": len(log),
            "head": log.head_digest,
            "merkle_root": log.merkle_root(),
            "verified_at": 0.0,
            "incremental_runs": 0,
        }
    )
    journal = Journal.recover(dep.target.checkpoints.device)
    journal.append(b"\x11" * 32 + forged)  # tag the adversary cannot compute
    _readopt_checkpoints(dep)


def _rot_extent(engine, record_id: str) -> str | None:
    """Flip one byte inside the record's first version, in every WORM
    frame that carries it (a recall or a migration round trip leaves
    several; recovery is last-frame-wins, so only rotting all of them
    guarantees the live extent is hit)."""
    landed = None
    for offset, payload, _ok, members in WormStore.walk_frames(engine.worm.device):
        for object_id, start, size, _item in members:
            if object_id == version_id(record_id, 0):
                forged = bytearray(payload)
                forged[start + size // 2] ^= 0x5A
                Journal.forge_frame(engine.worm.device, offset, bytes(forged))
                landed = record_id
    return landed


def _rot_clean_object(dep: Deployment) -> str | None:
    """Rot a seeded record the system has swept and believes clean."""
    return _rot_extent(dep.target, dep.residents()[0])


def _rot_dirty_object(dep: Deployment) -> str | None:
    """Rot a record ``store()`` wrote after the last full sweep."""
    dep.surface.store(seed_note("rec-dirty", dep.fresh_patient(), dep.clock, 0), ACTOR)
    return _rot_extent(dep.target, "rec-dirty")


_BATCH_SIZE = 5
_BATCH_VICTIM = 2


def _rot_batch_member(dep: Deployment) -> str | None:
    """Rot exactly one member of a ``store_many`` batch.

    The batched ingest path writes all of a batch's WORM objects through
    one scattered flush and covers them with a single aggregated custody
    signature — a shared fate the per-record paths never had.  Detection
    must still localize: blame the tampered record and *only* it, or the
    batch's siblings are collateral damage in every forensic follow-up."""
    patient_id = dep.fresh_patient()
    dep.surface.store_many(
        [seed_note(f"rec-batch-{n}", patient_id, dep.clock, n) for n in range(_BATCH_SIZE)],
        ACTOR,
    )
    return _rot_extent(dep.target, f"rec-batch-{_BATCH_VICTIM}")


def _rot_then_refresh(dep: Deployment) -> str | None:
    """Rot a clean record, then refresh media: the migration manifest
    check must refuse to certify the copy (``blocked``), and the rot
    stays blamed where it is."""
    victim = _rot_clean_object(dep)
    try:
        dep.target.refresh_media()
    except IntegrityError:
        dep.blocked = True
    return victim


def _rot_stale_copy(dep: Deployment) -> str | None:
    """Rot another shard's copy of a moved record: the expatriated
    extents a completed move left on its source, or the partial copy an
    interrupted one left on its destination (retired by the salvage).
    The bytes are nobody's — so the strike must land, and *any*
    detection is false blame."""
    stale = [engine for engine in dep.surface.shards if engine is not dep.target]
    landed = [_rot_extent(engine, dep.moved[0]) for engine in stale]
    return "" if any(landed) else None


# The cold tier is a fourth attack surface: compacted segments on their
# own device, same insider, same demand.


def _stage_cold(dep: Deployment) -> str:
    """Demote the victim (plus a sibling) and verify fully, so the tamper
    lands on a segment the system already believes clean."""
    victim, _sibling = substrate.demote(dep)
    assert dep.surface.verify_integrity().ok
    return victim


def _forge_cold_segment(dep: Deployment, forge) -> str | None:
    """Demote a victim, then rewrite its segment frame the way a
    raw-media insider would: ``forge(payload, member start, member
    length, victim)`` edits the payload (or returns a replacement), and
    the frame checksum is recomputed."""
    victim = _stage_cold(dep)
    cold = dep.target.cold
    segment = cold.segment_of(victim)
    payload_start = segment.frame_offset + HEADER_SIZE
    original = cold.device.raw_read(payload_start, segment.payload_length)
    payload = bytearray(original)
    member = segment.manifest.member(victim)
    start = segment.member_area - payload_start + member.offset
    forged = forge(payload, start, member.length, victim) or bytes(payload)
    if forged == original:
        return None
    Journal.forge_frame(cold.device, segment.frame_offset, forged)
    return victim


def _cold_body_rot(dep: Deployment) -> str | None:
    """Flip one byte in the middle of the victim's sealed member."""

    def flip(payload: bytearray, start: int, length: int, _victim: str) -> None:
        payload[start + length // 2] ^= 0x5A

    return _forge_cold_segment(dep, flip)


def _cold_recall_truncation(dep: Deployment) -> str | None:
    """Zero the tail half of the victim's member — the shape a torn
    device leaves.  The sealed bytes no longer match their leaf, so the
    recall path must refuse to repatriate anything."""

    def truncate(payload: bytearray, start: int, length: int, _victim: str) -> None:
        payload[start + length // 2 : start + length] = bytes(length - length // 2)

    victim = _forge_cold_segment(dep, truncate)
    try:
        dep.surface.read(victim, actor_id=ACTOR)
    except IntegrityError:
        return victim
    raise AssertionError("recall repatriated a truncated cold member")


def _cold_manifest_rot(dep: Deployment) -> str | None:
    """Rewrite the victim's manifest entry in place (padded back to the
    same compressed length, recomputed frame checksum).  The member
    bytes are intact — only the trusted-manifest comparison can catch
    this, with blame on exactly the forged entry."""
    from repro.archive.segment import reforge_manifest

    def reforge(payload: bytearray, _start: int, _length: int, victim: str) -> bytes:
        def zero_leaf(manifest: dict) -> dict:
            for entry in manifest["members"]:
                if entry["record_id"] == victim:
                    # zeros compress smaller than any digest: always fits
                    entry["leaf_digest"] = bytes(len(entry["leaf_digest"]))
            return manifest

        return reforge_manifest(bytes(payload), zero_leaf)

    return _forge_cold_segment(dep, reforge)


# The trustworthy index keeps a posting list as a chain of encrypted
# chunks on its own device.  Two attacks only a chunked layout admits:
# rot inside a *sealed* chunk that no later add will ever rewrite, and
# replaying a superseded version of the tail chunk so the list silently
# loses its newest entries.


def _index_chunk_rot(dep: Deployment) -> str | None:
    """Grow one posting list past a chunk boundary, then flip a
    ciphertext byte in its sealed first chunk (checksum recomputed)."""
    patient_id = dep.fresh_patient()
    dep.surface.store_many(
        [seed_note(f"rec-chunk-{n}", patient_id, dep.clock, n) for n in range(CHUNK_CAPACITY)],
        ACTOR,
    )
    index = dep.target.index.index
    chain = index.chunk_extents()[index.trapdoor("distinctive")]
    if len(chain) < 2:
        return None  # nothing sealed: the tamper below would hit the tail
    sealed = chain[0]
    payload = bytearray(index.device.raw_read(sealed.device_offset, sealed.size))
    payload[-1] ^= 0x5A
    Journal.forge_frame(index.device, sealed.device_offset - HEADER_SIZE, bytes(payload))
    return "<index>"


def _index_tail_rollback(dep: Deployment) -> str | None:
    """Keep a copy of a tail-chunk frame, let the list move on, then
    write the copy back over the current tail frame.  A correction
    re-indexes the same record id, so the list advances two versions
    (entry removed, entry re-added) to a frame of identical length —
    the stale copy fits exactly, checksum and MAC intact."""
    index = dep.target.index.index
    trapdoor = index.trapdoor("distinctive")  # every seeded note has it
    stale = index.current_versions()[trapdoor]
    copy = index.device.raw_read(
        stale.device_offset - HEADER_SIZE, HEADER_SIZE + stale.size
    )
    record = dep.surface.read(dep.residents()[0], actor_id=ACTOR)
    dep.surface.correct(record, ACTOR, "re-index")
    current = index.current_versions()[trapdoor]
    if current.size != stale.size or current.version != stale.version + 2:
        return None
    index.device.raw_write(current.device_offset - HEADER_SIZE, copy)
    return "<index>"


# -- the table -------------------------------------------------------------


@dataclass(frozen=True)
class Tamper:
    name: str
    checks: tuple[str, ...]  # the verifier(s) whose bounded policy must catch it
    strike: Strike


_AUDIT, _INTEGRITY = ("verify_audit_trail",), ("verify_integrity",)

TAMPERS = (
    Tamper("no_tamper_control", _AUDIT + _INTEGRITY, _append_delta),
    Tamper("audit_prefix_rewrite", _AUDIT, _tamper_sealed(_rewrite_actor)),
    Tamper("audit_suffix_rewrite", _AUDIT, _tamper_suffix),
    Tamper("audit_chain_field_edit", _AUDIT, _tamper_sealed(_flip_chain_digest)),
    Tamper("audit_truncation", _AUDIT, _truncate_tail),
    Tamper("watermark_destruction", _AUDIT, _tamper_sealed(_rewrite_actor, _destroy_watermarks)),
    Tamper("watermark_forgery", _AUDIT, _tamper_sealed(_rewrite_actor, _forge_watermark)),
    Tamper("worm_dirty_object_rot", _INTEGRITY, _rot_dirty_object),
    Tamper("worm_clean_object_rot", _INTEGRITY, _rot_clean_object),
    Tamper("worm_batch_member_rot", _INTEGRITY, _rot_batch_member),
    Tamper("cold_segment_body_rot", _INTEGRITY, _cold_body_rot),
    Tamper("cold_manifest_rot", _INTEGRITY, _cold_manifest_rot),
    Tamper("cold_recall_truncation", _INTEGRITY, _cold_recall_truncation),
    # the index is verified whole by every integrity pass
    Tamper("index_chunk_rot", _INTEGRITY, _index_chunk_rot),
    Tamper("index_tail_rollback", _INTEGRITY, _index_tail_rollback),
    Tamper("refresh_after_rot", _INTEGRITY, _rot_then_refresh),
    Tamper("stale_source_rot", _INTEGRITY, _rot_stale_copy),
)


def _then_strike(*steps: Callable[[Deployment], None]):
    """A history that runs to completion — settling after each step —
    before the adversary strikes."""

    def history(dep: Deployment, strike: Strike) -> str | None:
        for step in steps:
            step(dep)
            substrate.settle(dep)
        return strike(dep)

    return history


#: ``history(deployment, strike)`` runs on a seeded, settled deployment
#: and returns what the strike did.
HISTORIES = {
    "fresh": _then_strike(),
    "restarted": _then_strike(substrate.restarted),
    "refreshed": _then_strike(substrate.refreshed),
    "restored": _then_strike(substrate.restored),
    "recalled": _then_strike(substrate.recalled),
    "grown": _then_strike(substrate.reshaped(4)),
    "grown_shrunk": _then_strike(substrate.reshaped(4), substrate.reshaped(3)),
    "crashed_move": substrate.crashed_move,
    "rotted_arrival": substrate.rotted_arrival,
}
_RESHAPES = ("grown", "grown_shrunk", "crashed_move", "rotted_arrival")

#: ``""`` is a single engine; a shard id is a two-shard cluster with the
#: adversary on that shard.
DEPLOYMENTS = ("", "shard-00", "shard-01")


def inapplicable(attacked: str, history: str, tamper: str) -> str | None:
    """Why a combination is not a scenario (``None``: it is one)."""
    if history in _RESHAPES and attacked != "shard-00":
        return (
            "a reshape needs a cluster and re-aims the attack at the shard "
            "its movers landed on, so the starting aim is moot: one covers it"
        )
    if history == "rotted_arrival" and tamper != "worm_clean_object_rot":
        return (
            "the strike lands inside the move's verify window, on the copy "
            "the destination just imported: only that record's WORM extent "
            "is there to hit"
        )
    if tamper == "stale_source_rot" and history not in ("grown", "crashed_move"):
        return (
            "needs a copy a move left behind (or has yet to retire) on a "
            "shard that is still in the cluster"
        )
    return None


def scenarios() -> dict[str, tuple[str, str, Tamper]]:
    """Every row of the table, by name."""
    return {
        f"{attacked or 'engine'}/{history}/{tamper.name}": (attacked, history, tamper)
        for attacked in DEPLOYMENTS
        for history in HISTORIES
        for tamper in TAMPERS
        if inapplicable(attacked, history, tamper.name) is None
    }


def judge(name: str, dep: Deployment, tamper: Tamper, blame: str | None) -> EquivalenceCase:
    """The one verdict: run the bounded incremental policy with the
    tamper's verifier(s), then an unconditional full pass of both kinds,
    and hold everything any pass implicated against *blame* — what the
    strike says must be blamed (``""``: nothing, ``None``: it never
    landed) — under the attacked shard's label."""
    flagged: set[str] = set()

    def alarms(checks: tuple[str, ...], incremental: bool) -> bool:
        found = [
            violation
            for check in checks
            for violation in getattr(dep.surface, check)(incremental=incremental).violations
        ]
        flagged.update(found)
        return bool(found)

    # Up to ``full_rescan_every`` incremental passes, then the forced
    # full rescan the cadence guarantees.
    caught_by, attempts = "none", 0
    while caught_by == "none" and attempts <= FULL_RESCAN_EVERY:
        attempts += 1
        incremental = attempts <= FULL_RESCAN_EVERY
        if alarms(tamper.checks, incremental):
            caught_by = "incremental" if incremental else "escalation"
    detected = caught_by != "none" or dep.blocked
    full_detects = alarms(_AUDIT + _INTEGRITY, incremental=False) or detected
    silent = blame == "" and not dep.blocked
    tampered = blame is not None and not silent
    if dep.blocked:
        caught_by, attempts = "migration-verify", 0
    return EquivalenceCase(
        name=name,
        tampered=tampered,
        incremental_detects=detected,
        full_detects=full_detects,
        caught_by=caught_by if tampered else "n/a",
        attempts=attempts,
        expected_flag=dep.label(blame) if blame else "",
        flagged=tuple(sorted(flagged)),
        control=silent,
    )


def _run(rows: dict[str, tuple[str, str, Tamper]]) -> EquivalenceReport:
    cases = []
    for name, (attacked, history, tamper) in rows.items():
        dep = substrate.deploy(attacked)
        try:
            substrate.seed(dep)
            substrate.settle(dep)
            blame = HISTORIES[history](dep, tamper.strike)
            cases.append(judge(name, dep, tamper, blame))
        finally:
            dep.close()
    return EquivalenceReport(cases=tuple(cases))


def run_scenario_table(names: Iterable[str] | None = None) -> EquivalenceReport:
    """Every scenario (deployment x history x tamper), or just the rows
    *names* picks out of :func:`scenarios`."""
    table = scenarios()
    return _run(table if names is None else {name: table[name] for name in names})
