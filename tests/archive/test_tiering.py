"""Tiered-engine integration: demotion, verified read-through recall,
policy eligibility, litigation holds, recovery of a tiered archive from
surviving devices, and a crash sweep across the demotion commit
protocol's write boundaries."""

import pytest

from repro.archive import DemotionPolicy
from repro.core.config import CuratorConfig
from repro.core.engine import CuratorStore
from repro.errors import CrashError
from repro.records.ids import version_id
from repro.records.model import ClinicalNote, HealthRecord
from repro.util.clock import SimulatedClock
from repro.verify.crashpoint import CrashController, surviving_image

MASTER = bytes(range(32))
IDS = tuple(f"rec-{i}" for i in range(5))


def build():
    clock = SimulatedClock(start=1.17e9)
    store = CuratorStore(
        CuratorConfig(master_key=MASTER, clock=clock, device_capacity=1 << 20)
    )
    return store, clock


def note(record_id, clock, text):
    return ClinicalNote.create(
        record_id=record_id,
        patient_id=f"pat-{record_id}",
        created_at=clock.now(),
        author="dr-tier",
        specialty="cardiology",
        text=text,
    )


def seeded():
    store, clock = build()
    store.store_many(
        [note(rid, clock, f"longitudinal entry for {rid}") for rid in IDS],
        "dr-tier",
    )
    corrected = HealthRecord(
        record_id=IDS[0],
        record_type=store.read(IDS[0], actor_id="system").record_type,
        patient_id=f"pat-{IDS[0]}",
        created_at=clock.now(),
        body={
            **store.read(IDS[0], actor_id="system").body,
            "text": "amended longitudinal entry",
        },
    )
    store.correct(corrected, author_id="dr-tier", reason="amendment")
    return store, clock


def recover(store):
    config = CuratorConfig(
        master_key=MASTER, clock=store._clock, device_capacity=1 << 20
    )
    return CuratorStore.recover_from_devices(
        config,
        **{name: surviving_image(device) for name, device in store.device_set().items()},
        witnesses=[store.witness],
        signer=store.signer,
    )


def test_demote_then_recall_round_trips_every_version():
    store, _clock = seeded()
    before = {
        rid: [
            store.read_version(rid, n, actor_id="system")
            for n in range(store.version_count(rid))
        ]
        for rid in IDS
    }
    warm_digests = {
        rid: [
            store.worm.metadata(version_id(rid, n)).content_digest
            for n in range(store.version_count(rid))
        ]
        for rid in IDS
    }

    demoted = store.demote_records(list(IDS), actor_id="archivist")
    assert sorted(demoted) == sorted(IDS)
    assert store.cold_record_ids() == sorted(IDS)
    stats = store.tier_stats()
    assert stats["cold_records"] == len(IDS)
    assert stats["cold_segments"] == 1

    # provenance carried into the segment manifest: the warm tier's
    # original content digests, one entry per version, in order
    for rid in IDS:
        member = store.cold.member(rid)
        assert [p["content_digest"] for p in member.provenance] == warm_digests[rid]
        assert member.versions == len(before[rid])

    # a read against a cold record is a verified read-through recall
    for rid in IDS:
        assert store.read(rid, actor_id="system") == before[rid][-1]
    assert store.cold_record_ids() == []
    for rid in IDS:
        after = [
            store.read_version(rid, n, actor_id="system")
            for n in range(store.version_count(rid))
        ]
        assert after == before[rid]
    assert store.verify_integrity().ok
    assert store.verify_audit_trail().ok


def test_demotion_skips_held_disposed_and_already_cold_records():
    store, clock = seeded()
    store.place_hold(IDS[0], "case-17", actor_id="counsel")
    clock.advance_years(8)
    store.dispose(IDS[1], actor_id="records-manager")
    assert store.demote_records([IDS[2]], actor_id="archivist") == [IDS[2]]

    demoted = store.demote_records(list(IDS), actor_id="archivist")
    # held, disposed, and already-cold records all skipped
    assert sorted(demoted) == sorted([IDS[3], IDS[4]])
    assert IDS[0] not in store.cold_record_ids()

    # releasing the hold makes the record eligible again
    store.release_hold(IDS[0], "case-17", actor_id="counsel")
    assert store.demote_records([IDS[0]], actor_id="archivist") == [IDS[0]]


def test_demotion_policy_gates_on_age_and_idleness():
    store, clock = seeded()
    policy = DemotionPolicy(min_age_years=2.0, min_idle_years=1.0)
    assert store._tiering.candidates(policy) == []  # everything too young

    clock.advance_years(3.0)
    candidates = store._tiering.candidates(policy)
    assert sorted(candidates) == sorted(IDS)

    # a fresh read resets idleness and shields the record
    store.read(IDS[0], actor_id="system")
    assert IDS[0] not in store._tiering.candidates(policy)

    demoted = store.demotion_sweep(policy, actor_id="archivist")
    assert sorted(demoted) == sorted(set(IDS) - {IDS[0]})
    assert store.verify_integrity().ok


def test_recovery_preserves_the_tier_split():
    store, _clock = seeded()
    cold_ids = [IDS[0], IDS[1]]
    store.demote_records(cold_ids, actor_id="archivist")
    texts = {
        rid: store._tiering.stored_versions(rid)[-1].record.body["text"] for rid in IDS
    }

    recovered = recover(store)
    assert recovered.cold_record_ids() == sorted(cold_ids)
    assert sorted(recovered.record_ids()) == sorted(IDS)
    assert recovered.verify_integrity().ok
    assert recovered.verify_audit_trail().ok
    # warm records read warm; cold records recall on read
    for rid in IDS:
        assert recovered.read(rid, actor_id="system").body["text"] == texts[rid]
    assert recovered.cold_record_ids() == []


def test_recall_then_recovery_keeps_the_record_warm():
    store, _clock = seeded()
    store.demote_records(list(IDS), actor_id="archivist")
    store.read(IDS[2], actor_id="system")  # recall
    recovered = recover(store)
    assert IDS[2] not in recovered.cold_record_ids()
    assert recovered.read(IDS[2], actor_id="system")
    assert recovered.verify_integrity().ok


def demotion_write_span():
    """(writes before the demotion, writes after) on a dry run."""
    store, _clock = seeded()
    controller = CrashController()
    controller.attach(store.devices())
    before = controller.writes_observed
    store.demote_records(list(IDS), actor_id="archivist")
    return before, controller.writes_observed


def test_crash_sweep_across_the_demotion_boundary():
    """Every crash point inside demote_records — the segment frame
    write, each RECORD_DEMOTED marker, each warm expatriation — must
    recover with every record fully served from exactly one tier."""
    before, after = demotion_write_span()
    assert after > before + 2  # the protocol really spans several writes
    for crash_at in range(before + 1, after + 1):
        for torn in (False, True):
            store, _clock = seeded()
            controller = CrashController()
            controller.attach(store.devices())
            controller.arm(crash_at, torn=torn)
            with pytest.raises(CrashError):
                store.demote_records(list(IDS), actor_id="archivist")
            recovered = recover(store)
            label = f"crash at write {crash_at} (torn={torn})"
            assert sorted(recovered.record_ids()) == sorted(IDS), label
            cold = set(recovered.cold_record_ids())
            assert cold <= set(IDS), label
            assert recovered.verify_integrity().ok, label
            assert recovered.verify_audit_trail().ok, label
            for rid in IDS:
                record = recovered.read(rid, actor_id="system")
                assert record.body["text"], f"{label}: {rid} unreadable"
            # read-through recall drained the cold tier of live records
            assert recovered.cold_record_ids() == [], label
            assert recovered.verify_integrity().ok, label
