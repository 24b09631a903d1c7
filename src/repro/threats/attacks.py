"""The attack and probe implementations.

Each attack drives real bytes on the model's real devices; nothing is
simulated by flag-checking.  The smart insider understands the journal
frame format and recomputes the unkeyed frame checksum after tampering
(see :meth:`repro.storage.journal.Journal.forge_frame`), so detection
can only come from *keyed or off-device* integrity machinery — MACs,
content digests held by a trusted controller, hash chains — which is
the paper's point.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from repro.baselines.interface import StorageModel, UnsupportedOperation
from repro.crypto.chacha20 import chacha20_xor
from repro.crypto.kdf import derive_key
from repro.errors import CuratorError, RetentionError
from repro.records.model import HealthRecord
from repro.storage.journal import Journal
from repro.threats.adversary import AdversaryProfile


class AttackOutcome(enum.Enum):
    """What happened when the attack ran."""

    PREVENTED = "prevented"  # the harm could not occur
    DETECTED = "detected"  # the harm occurred but the system can prove it
    UNDETECTED = "undetected"  # the harm occurred silently
    NOT_APPLICABLE = "n/a"


@dataclass(frozen=True)
class AttackResult:
    attack: str
    outcome: AttackOutcome
    detail: str = ""


_WORD = re.compile(r"[a-z]{4,}")


def _mutate_word(word: bytes) -> bytes:
    """Change one letter, keeping length and case (a 'semantic' edit)."""
    first = word[0:1]
    if first.isupper():
        replacement = b"X" if first != b"X" else b"Q"
    else:
        replacement = b"x" if first != b"x" else b"q"
    return replacement + word[1:]


def _mutate_in_place(plain: bytes, word: bytes) -> bytes | None:
    """Replace the first case-insensitive occurrence of *word* in *plain*
    with a same-length mutation; None when the word is absent."""
    match = re.search(re.escape(word), plain, re.IGNORECASE)
    if match is None:
        return None
    found = plain[match.start() : match.end()]
    return plain[: match.start()] + _mutate_word(found) + plain[match.end() :]


def _target_word(record: HealthRecord) -> bytes | None:
    """A distinctive content word of the record to corrupt."""
    matches = _WORD.findall(record.searchable_text().lower())
    if not matches:
        return None
    return max(matches, key=len).encode("utf-8")


def tamper_record(
    model: StorageModel, record_id: str, adversary: AdversaryProfile
) -> AttackResult:
    """Semantically alter a stored record via raw device access.

    Strategy: locate the record's bytes in the device frames (directly
    for plaintext persistence; after decryption when the insider holds
    the store key), change one content word, recompute the frame
    checksum.  If the content is unlocatable (properly encrypted with
    inaccessible keys), fall back to blind ciphertext corruption.
    """
    name = "insider_tamper"
    if not adversary.raw_device_access:
        return AttackResult(name, AttackOutcome.PREVENTED, "no device access")
    before = model.read(record_id, actor_id="system")
    word = _target_word(before)
    store_key = (
        model.insider_keys().get("store_key") if adversary.knows_store_keys else None
    )
    mutated = False
    for device in model.devices():
        for offset, payload, _ok in Journal.walk_frames(device):
            plain = payload
            if store_key is not None and len(payload) > 12:
                nonce = payload[:12]
                key = derive_key(store_key, "row-encryption")
                plain = chacha20_xor(key, nonce, payload[12:])
            if word is None or record_id.encode() not in plain:
                continue  # not this record's frame
            forged_plain = _mutate_in_place(plain, word)
            if forged_plain is None:
                continue  # the content word is not in this frame
            if store_key is not None and plain is not payload:
                forged = payload[:12] + chacha20_xor(key, payload[:12], forged_plain)
            else:
                forged = forged_plain
            Journal.forge_frame(device, offset, forged)
            mutated = True
    if not mutated:
        # Blind corruption: flip a byte in every frame, fixing checksums.
        for device in model.devices():
            for offset, payload, _ok in Journal.walk_frames(device):
                if not payload:
                    continue
                middle = len(payload) // 2
                forged = (
                    payload[:middle]
                    + bytes([payload[middle] ^ 0x5A])
                    + payload[middle + 1 :]
                )
                Journal.forge_frame(device, offset, forged)
                mutated = True
    if not mutated:
        return AttackResult(name, AttackOutcome.PREVENTED, "nothing reachable on disk")

    # Assessment: what does the system now believe?
    flagged = not model.verify_integrity().ok
    try:
        after = model.read(record_id, actor_id="system")
    except CuratorError as exc:
        return AttackResult(
            name, AttackOutcome.DETECTED, f"read rejected tampered data: {exc}"
        )
    if flagged:
        return AttackResult(name, AttackOutcome.DETECTED, "integrity scan flagged it")
    if after != before:
        return AttackResult(
            name, AttackOutcome.UNDETECTED, "record silently altered"
        )
    return AttackResult(name, AttackOutcome.PREVENTED, "stored data unaffected")


def erase_audit_trail(model: StorageModel, actor_to_hide: str) -> AttackResult:
    """Hide an actor's tracks by rewriting the persisted audit trail."""
    name = "audit_erasure"
    audit_devices = model.audit_devices()
    if model.verify_audit_trail() is None and not audit_devices:
        return AttackResult(
            name,
            AttackOutcome.UNDETECTED,
            "model keeps no audit trail; there is nothing to erase and "
            "no accountability to begin with",
        )
    actor_bytes = actor_to_hide.encode("utf-8")
    blanked = b"_" * len(actor_bytes)
    rewrote = 0
    for device in audit_devices:
        for offset, payload, _ok in Journal.walk_frames(device):
            if actor_bytes in payload:
                Journal.forge_frame(
                    device, offset, payload.replace(actor_bytes, blanked)
                )
                rewrote += 1
    if rewrote == 0:
        return AttackResult(name, AttackOutcome.PREVENTED, "actor not found in trail")
    verdict = model.verify_audit_trail()
    if verdict is not None and not verdict.ok:
        return AttackResult(
            name, AttackOutcome.DETECTED, f"chain verification caught {rewrote} edits"
        )
    return AttackResult(
        name, AttackOutcome.UNDETECTED, f"{rewrote} audit entries rewritten silently"
    )


def premature_deletion(model: StorageModel, record_id: str) -> AttackResult:
    """Destroy a record before its retention term ends (software path)."""
    name = "premature_deletion"
    try:
        model.dispose(record_id, actor_id="system")
    except RetentionError as exc:
        return AttackResult(name, AttackOutcome.PREVENTED, str(exc))
    except UnsupportedOperation as exc:
        return AttackResult(name, AttackOutcome.PREVENTED, str(exc))
    still_there = record_id in model.record_ids()
    if still_there:
        return AttackResult(name, AttackOutcome.PREVENTED, "record survived")
    return AttackResult(
        name, AttackOutcome.UNDETECTED, "record destroyed inside its retention term"
    )


def steal_media_and_scan(
    model: StorageModel,
    phi_strings: list[str],
    adversary: AdversaryProfile,
) -> AttackResult:
    """Steal every device and scan the dumps for PHI.

    With the insider profile, store-wide keys from the software stack
    are used to decrypt what they cover.
    """
    name = "media_theft_scan"
    store_key = (
        model.insider_keys().get("store_key") if adversary.knows_store_keys else None
    )
    found: set[str] = set()
    for device in model.devices():
        dump = device.raw_dump()
        views = [dump]
        if store_key is not None:
            key = derive_key(store_key, "row-encryption")
            for _, payload, _ok in Journal.walk_frames(device):
                if len(payload) > 12:
                    views.append(chacha20_xor(key, payload[:12], payload[12:]))
        for view in views:
            for phi in phi_strings:
                if phi.encode("utf-8").lower() in view.lower():
                    found.add(phi)
    if found:
        return AttackResult(
            name,
            AttackOutcome.UNDETECTED,
            f"PHI recovered from stolen media: {sorted(found)}",
        )
    return AttackResult(name, AttackOutcome.PREVENTED, "dumps yielded no PHI")


def probe_index_leakage(model: StorageModel, sensitive_term: str) -> AttackResult:
    """The paper's 'Cancer' inference: does the raw medium reveal that
    some record contains the sensitive term?"""
    name = "index_leakage"
    needle = sensitive_term.lower().encode("utf-8")
    for device in model.devices():
        if needle in device.raw_dump().lower():
            return AttackResult(
                name,
                AttackOutcome.UNDETECTED,
                f"term {sensitive_term!r} visible on device {device.device_id}",
            )
    return AttackResult(name, AttackOutcome.PREVENTED, "term not recoverable")


def probe_unlogged_access(model: StorageModel, record_id: str) -> AttackResult:
    """Read a record as a snooper and check the access left a trace."""
    name = "unlogged_access"
    before = len(model.audit_events())
    try:
        model.read(record_id, actor_id="snooper-insider")
    except CuratorError:
        pass  # denied reads must ALSO be logged; fall through to the check
    events = model.audit_events()
    new_events = events[before:]
    logged = any("snooper-insider" in str(event.values()) for event in new_events)
    if logged:
        return AttackResult(name, AttackOutcome.DETECTED, "access left an audit trace")
    return AttackResult(
        name, AttackOutcome.UNDETECTED, "record access left no audit trace"
    )


@dataclass(frozen=True)
class CorrectionProbeResult:
    """Outcome of the correction-capability probe."""

    supported: bool
    applied: bool
    history_preserved: bool
    detail: str


def probe_correction(
    model: StorageModel, corrected: HealthRecord, author_id: str
) -> CorrectionProbeResult:
    """Can the model apply a correction, and does history survive it?

    The paper requires both: individuals may demand corrections (so
    immutable-only storage fails) AND integrity demands the original
    remain provable (so update-in-place fails).
    """
    record_id = corrected.record_id
    original = model.read(record_id, actor_id="system")
    try:
        model.correct(corrected, author_id, reason="patient-requested amendment")
    except UnsupportedOperation as exc:
        return CorrectionProbeResult(
            supported=False, applied=False, history_preserved=True, detail=str(exc)
        )
    current = model.read(record_id, actor_id="system")
    applied = current.body == corrected.body
    try:
        version_zero = model.read_version(record_id, 0, actor_id="system")
        history = version_zero.body == original.body
        detail = "history retrievable"
    except UnsupportedOperation:
        history = False
        detail = "prior version unrecoverable after correction"
    return CorrectionProbeResult(
        supported=True, applied=applied, history_preserved=history, detail=detail
    )


def disposal_residue_scan(
    model: StorageModel, record_id: str, phi_strings: list[str]
) -> AttackResult:
    """Dispose a (post-retention) record, then dumpster-dive the devices
    for its content."""
    name = "disposal_residue"
    try:
        model.dispose(record_id, actor_id="system")
    except (RetentionError, UnsupportedOperation) as exc:
        return AttackResult(name, AttackOutcome.NOT_APPLICABLE, str(exc))
    residue: set[str] = set()
    for device in model.devices():
        dump = device.raw_dump().lower()
        for phi in phi_strings:
            if phi.encode("utf-8").lower() in dump:
                residue.add(phi)
    if residue:
        return AttackResult(
            name,
            AttackOutcome.UNDETECTED,
            f"disposed record still recoverable: {sorted(residue)}",
        )
    return AttackResult(name, AttackOutcome.PREVENTED, "no recoverable residue")
