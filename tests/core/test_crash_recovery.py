"""Targeted crash/recovery cases on the full engine: batch atomicity
under mid-``store_many`` crashes, and cold-start reads being
byte-identical with the read cache disabled."""

import pytest

from repro.core.config import CuratorConfig
from repro.core.engine import CuratorStore
from repro.errors import CrashError
from repro.records.model import ClinicalNote
from repro.util.clock import SimulatedClock
from repro.verify.crashpoint import CrashController, surviving_image

MASTER = bytes(range(32))
BATCH_IDS = ("batch-0", "batch-1", "batch-2")


def build(read_cache_size=128):
    clock = SimulatedClock(start=1.17e9)
    store = CuratorStore(
        CuratorConfig(
            master_key=MASTER,
            clock=clock,
            device_capacity=1 << 20,
            read_cache_size=read_cache_size,
        )
    )
    return store, clock


def note(record_id, clock, text):
    return ClinicalNote.create(
        record_id=record_id,
        patient_id=f"pat-{record_id}",
        created_at=clock.now(),
        author="dr-crash",
        specialty="cardiology",
        text=text,
    )


def recover(store, read_cache_size=128):
    config = CuratorConfig(
        master_key=MASTER,
        clock=store._clock,
        device_capacity=1 << 20,
        read_cache_size=read_cache_size,
    )
    return CuratorStore.recover_from_devices(
        config,
        **{name: surviving_image(device) for name, device in store.device_set().items()},
        witnesses=[store.witness],
        signer=store.signer,
    )


def batch_write_span():
    """(writes before the batch, writes after) on a dry run."""
    store, clock = build()
    controller = CrashController()
    controller.attach(store.devices())
    store.store(note("warm-0", clock, "warmup entry"), "dr-crash")
    before = controller.writes_observed
    store.store_many(
        [note(rid, clock, f"batched entry {rid}") for rid in BATCH_IDS], "dr-crash"
    )
    return before, controller.writes_observed


def test_crash_mid_store_many_never_leaves_a_half_visible_batch():
    before, after = batch_write_span()
    assert after > before + 2  # the batch really spans several writes
    for crash_at in range(before + 1, after + 1):
        for torn in (False, True):
            store, clock = build()
            controller = CrashController()
            controller.attach(store.devices())
            store.store(note("warm-0", clock, "warmup entry"), "dr-crash")
            controller.arm(crash_at, torn=torn)
            with pytest.raises(CrashError):
                store.store_many(
                    [note(rid, clock, f"batched entry {rid}") for rid in BATCH_IDS],
                    "dr-crash",
                )
            recovered = recover(store)
            live = set(recovered.record_ids())
            present = live & set(BATCH_IDS)
            assert present in (set(), set(BATCH_IDS)), (
                f"crash at write {crash_at} (torn={torn}) left a partial "
                f"batch: {sorted(present)}"
            )
            assert "warm-0" in live  # the acked warm-up store survived
            assert recovered.verify_audit_trail().ok
            assert recovered.verify_integrity().ok


def seeded_store():
    store, clock = build()
    store.store(note("rec-a", clock, "alpha entry with detail"), "dr-crash")
    store.store_many(
        [note(rid, clock, f"batched entry {rid}") for rid in BATCH_IDS], "dr-crash"
    )
    return store


def test_cold_start_reads_identical_with_and_without_read_cache():
    store = seeded_store()
    cached = recover(store, read_cache_size=128)
    uncached = recover(store, read_cache_size=0)
    ids = sorted(cached.record_ids())
    assert ids == sorted(uncached.record_ids())
    for record_id in ids:
        with_cache = cached.read(record_id, actor_id="system")
        without = uncached.read(record_id, actor_id="system")
        assert with_cache.body == without.body
        assert with_cache.record_id == without.record_id
        # a second read through each engine is stable too (LRU hit path
        # vs the always-decrypt path)
        assert (
            cached.read(record_id, actor_id="system").body
            == uncached.read(record_id, actor_id="system").body
        )


def test_clean_image_recovery_round_trips_everything():
    store = seeded_store()
    recovered = recover(store)
    assert sorted(recovered.record_ids()) == sorted(store.record_ids())
    for record_id in store.record_ids():
        assert (
            recovered.read(record_id, actor_id="system").body
            == store.read(record_id, actor_id="system").body
        )
    assert recovered.verify_audit_trail().ok
    assert recovered.verify_integrity().ok
