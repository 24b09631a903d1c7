"""Engine-level incremental integrity: dirty-set tracking, the rotating
clean sample, the typed ``VerificationReport`` contract, and
authorized ``read_version`` access."""

import pytest

from repro.access.principals import Role, User
from repro.core.config import CuratorConfig
from repro.core.engine import CuratorStore
from repro.errors import AccessDeniedError, RecordError
from repro.records.model import ClinicalNote, HealthRecord
from repro.storage.journal import Journal
from repro.util.clock import SimulatedClock
from repro.util.metrics import METRICS

MASTER = bytes(range(32))


def make_store(clean_sample=2):
    clock = SimulatedClock(start=1.17e9)
    store = CuratorStore(
        CuratorConfig(
            master_key=MASTER,
            clock=clock,
            integrity_clean_sample=clean_sample,
        )
    )
    return store, clock


def make_note(record_id, clock, text=None):
    return ClinicalNote.create(
        record_id=record_id,
        patient_id=f"pat-{record_id}",
        created_at=clock.now(),
        author="dr-a",
        specialty="oncology",
        text=text or f"note for {record_id} with distinctive content",
    )


def seeded_store(n=6, clean_sample=2):
    store, clock = make_store(clean_sample=clean_sample)
    for i in range(n):
        store.store(make_note(f"rec-{i}", clock), author_id="dr-a")
    return store, clock


def rot_object(store, object_id):
    """Raw-device bit-rot of the WORM object holding *object_id*."""
    device = store.worm.device
    marker = object_id.encode("utf-8")
    for offset, payload, _ok in Journal.walk_frames(device):
        if marker in payload:
            Journal.forge_frame(
                device, offset, payload[:-1] + bytes([payload[-1] ^ 0x5A])
            )
            return
    raise AssertionError(f"no frame holds {object_id}")


# -- dirty-set integrity --------------------------------------------------


def test_fresh_writes_are_dirty_until_a_full_pass():
    store, clock = seeded_store(n=3)
    assert store.dirty_record_ids() == ["rec-0", "rec-1", "rec-2"]
    assert store.verify_integrity().ok
    assert store.dirty_record_ids() == []
    store.store(make_note("rec-3", clock), author_id="dr-a")
    assert store.dirty_record_ids() == ["rec-3"]


def test_incremental_pass_clears_verified_dirty_records():
    store, clock = seeded_store(n=3)
    assert store.verify_integrity().ok
    store.store(make_note("rec-3", clock), author_id="dr-a")
    assert store.verify_integrity(incremental=True).ok
    assert store.dirty_record_ids() == []


def test_incremental_checks_fewer_records_than_full():
    store, clock = seeded_store(n=8, clean_sample=2)
    assert store.verify_integrity().ok
    store.store(make_note("rec-8", clock), author_id="dr-a")
    METRICS.reset()
    assert store.verify_integrity(incremental=True).ok
    incremental_checked = METRICS.get("engine_integrity_records_checked")
    METRICS.reset()
    assert store.verify_integrity().ok
    full_checked = METRICS.get("engine_integrity_records_checked")
    assert incremental_checked == 3  # 1 dirty + clean sample of 2
    assert full_checked == 9


def test_dirty_object_rot_is_caught_on_the_first_incremental_pass():
    store, clock = seeded_store(n=3)
    assert store.verify_integrity().ok
    store.store(make_note("rec-dirty", clock), author_id="dr-a")
    rot_object(store, "rec-dirty@v0")
    report = store.verify_integrity(incremental=True)
    assert "rec-dirty" in report.violations and report.mode == "incremental"
    # a failed record stays dirty: the next pass re-checks it
    assert "rec-dirty" in store.dirty_record_ids()


def test_clean_object_rot_is_caught_within_the_rotation_bound():
    store, clock = seeded_store(n=4, clean_sample=2)
    assert store.verify_integrity().ok
    rot_object(store, "rec-0@v0")
    caught_at = None
    for attempt in range(1, 4):  # 4 clean records / sample 2 => <= 2 passes
        if any(
            failure != "<index>"
            for failure in store.verify_integrity(incremental=True).violations
        ):
            caught_at = attempt
            break
    assert caught_at is not None and caught_at <= 2
    assert "rec-0" in store.verify_integrity().violations


def test_corrections_re_dirty_a_record():
    store, clock = seeded_store(n=2)
    assert store.verify_integrity().ok
    note = store.read("rec-0", actor_id="dr-a")
    store.correct(
        HealthRecord(
            record_id="rec-0",
            record_type=note.record_type,
            patient_id=note.patient_id,
            created_at=clock.now(),
            body={**note.body, "text": "corrected text"},
        ),
        author_id="dr-a",
        reason="transcription error",
    )
    assert "rec-0" in store.dirty_record_ids()


def test_zero_clean_sample_checks_only_dirty_records():
    store, clock = seeded_store(n=4, clean_sample=0)
    assert store.verify_integrity().ok
    store.store(make_note("rec-4", clock), author_id="dr-a")
    METRICS.reset()
    assert store.verify_integrity(incremental=True).ok
    assert METRICS.get("engine_integrity_records_checked") == 1


def test_the_configured_sample_reaches_the_cold_tier():
    """At a sample of 3, a rotten cold member past the first window is
    missed by the first pass and re-read within ceil(members / 3)."""
    store, _clock = seeded_store(n=7, clean_sample=3)
    record_ids = store.record_ids()
    store.demote_records(record_ids, actor_id="archivist")
    assert store.verify_integrity().ok
    victim = record_ids[-1]  # the rotation reaches it last
    segment = store.cold.segment_of(victim)
    offset, length = segment.extent_of(segment.manifest.member(victim))
    middle = offset + length // 2
    flipped = store.cold.device.raw_read(middle, 1)[0] ^ 0x5A
    store.cold.device.raw_write(middle, bytes([flipped]))
    bound = -(-len(record_ids) // 3)
    caught_at = None
    for attempt in range(1, bound + 1):
        before = METRICS.get("tier_cold_members_checked")
        report = store.verify_integrity(incremental=True)
        assert METRICS.get("tier_cold_members_checked") - before == 3
        if victim in report.violations:
            caught_at = attempt
            break
    assert caught_at == bound > 1


# -- satellite: verify_audit_trail returns a typed report -----------------


def test_verify_audit_trail_reports_clean_with_coverage():
    store, _clock = seeded_store(n=2)
    result = store.verify_audit_trail()
    assert result.ok and result.violations == []
    assert result.mode == "full"
    assert "witness" in result.coverage
    incremental = store.verify_audit_trail(incremental=True)
    assert incremental.ok


def test_verification_reports_refuse_ambient_truthiness():
    # the legacy APIs had opposite truthiness conventions; the report
    # forces every caller to say .ok or .violations explicitly
    store, _clock = seeded_store(n=2)
    with pytest.raises(TypeError):
        bool(store.verify_audit_trail())
    with pytest.raises(TypeError):
        bool(store.verify_integrity())


def test_verify_audit_trail_reports_violations_on_tampering():
    store, _clock = seeded_store(n=2)
    device = store.audit_log.device
    frames = list(Journal.walk_frames(device))
    offset, payload, _ok = frames[1]
    assert b"dr-a" in payload
    Journal.forge_frame(device, offset, payload.replace(b"dr-a", b"dr-x", 1))
    result = store.verify_audit_trail()
    assert not result.ok
    assert "audit-chain" in result.violations


# -- satellite: read_version is an authorized, attributed access ----------


def versioned_store():
    store, clock = seeded_store(n=1)
    note = store.read("rec-0", actor_id="dr-a")
    store.correct(
        HealthRecord(
            record_id="rec-0",
            record_type=note.record_type,
            patient_id=note.patient_id,
            created_at=clock.now(),
            body={**note.body, "text": "amended after review"},
        ),
        author_id="dr-a",
        reason="late result",
    )
    return store


def test_read_version_serves_history_to_the_treating_physician():
    store = versioned_store()
    v0 = store.read_version("rec-0", 0, actor_id="dr-a")
    v1 = store.read_version("rec-0", 1, actor_id="dr-a")
    assert "distinctive content" in v0.body["text"]
    assert v1.body["text"] == "amended after review"


def test_read_version_attributes_the_audit_event_to_the_actor():
    store = versioned_store()
    store.read_version("rec-0", 0, actor_id="dr-a")
    event = store.audit_events()[-1]
    assert event["action"] == "record_read"
    assert event["actor_id"] == "dr-a"
    assert event["detail"] == {"version": 0}


def test_read_version_denies_an_unknown_actor():
    store = versioned_store()
    with pytest.raises(AccessDeniedError):
        store.read_version("rec-0", 0, actor_id="stranger")


def test_read_version_denies_a_non_treating_physician():
    store = versioned_store()
    store.register_user(User.make("dr-b", "Dr. B", [Role.PHYSICIAN]))
    with pytest.raises(AccessDeniedError):
        store.read_version("rec-0", 0, actor_id="dr-b")


def test_read_version_requires_an_actor():
    store = versioned_store()
    with pytest.raises(TypeError, match="actor_id"):
        store.read_version("rec-0", 1)


def test_read_version_range_check_still_applies():
    store = versioned_store()
    with pytest.raises(RecordError):
        store.read_version("rec-0", 7, actor_id="dr-a")
