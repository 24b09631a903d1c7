"""Attack test: a disposed record leaves no recoverable residue in the
cold tier.

The adversary model is an insider with raw access to the cold device
(and process memory) *after* a compliant disposal.  Cold members are
compressed and sealed under the record's own data key, so the key
shred already kills them cryptographically — but this test holds the
stronger line the shredder promises: the sealed bytes themselves are
scrubbed from every extent the member ever occupied, the decrypted
member cache is purged (``shredder.bind_cache`` wiring), and no device
in the fleet ever held the plaintext."""

import pytest

from repro.core import CuratorConfig, CuratorStore
from repro.errors import RecordNotFoundError
from repro.records.model import ClinicalNote
from repro.util.clock import SimulatedClock
from repro.verify.crashpoint import surviving_image

MASTER = bytes(range(32))
MARKER = "hereditary-hemochromatosis-finding-zebra7"


def build():
    clock = SimulatedClock(start=1.17e9)
    store = CuratorStore(
        CuratorConfig(master_key=MASTER, clock=clock, device_capacity=1 << 20)
    )
    for i in range(4):
        store.store(
            ClinicalNote.create(
                record_id=f"rec-{i}",
                patient_id=f"pat-{i}",
                created_at=clock.now(),
                author="dr-a",
                specialty="oncology",
                text=f"{MARKER} in patient {i}",
            ),
            "dr-a",
        )
    return store, clock


def device_images(store):
    return [
        bytes(device.raw_read(0, device.used)) if device.used else b""
        for device in store.devices()
    ]


def test_disposed_cold_record_is_unrecoverable_from_the_cold_device():
    store, clock = build()
    record_ids = [f"rec-{i}" for i in range(4)]
    store.demote_records(record_ids, actor_id="archivist")

    victim, sibling = "rec-1", "rec-2"
    sealed_before = store.cold.read_sealed(victim)
    assert len(sealed_before) > 32
    cold_device = store.cold.device
    image = bytes(cold_device.raw_read(0, cold_device.used))
    assert sealed_before in image  # the member really lives on the device

    # a full verification pass decrypts members into the cold cache —
    # exactly the in-memory residue the shredder must also kill
    assert store.verify_integrity().ok
    assert store.cold.cached_plaintext(victim) is not None

    clock.advance_years(8)  # clinical notes: 7-year schedule
    certificates = store.dispose(victim, actor_id="records-manager")
    assert certificates and all(c.shred_report.key_shredded for c in certificates)

    # 1. the sealed member bytes are gone from the raw cold device
    image = bytes(cold_device.raw_read(0, cold_device.used))
    assert sealed_before not in image
    # ... including any prefix long enough to be useful to an attacker
    assert sealed_before[:64] not in image

    # 2. the decrypted-member cache was purged with the key shred
    assert store.cold.cached_plaintext(victim) is None

    # 3. the record is gone from every serving path
    with pytest.raises(RecordNotFoundError):
        store.read(victim, actor_id="system")
    assert victim not in store.cold.record_ids()
    assert victim not in store.search(MARKER.split("-")[1], actor_id="system")

    # 4. the survivors still verify — scrubbing did not smear blame
    assert store.verify_integrity().ok
    assert store.verify_audit_trail().ok
    assert store.read(sibling, actor_id="system").body["text"].endswith("2")


def test_plaintext_never_touches_any_device_even_across_tiers():
    """Demote, recall, re-demote, dispose: at no point does the marker
    text appear on any device in the fleet — plaintext exists only in
    memory, under keys the shredder can destroy."""
    store, clock = build()
    record_ids = [f"rec-{i}" for i in range(4)]
    marker = MARKER.encode("utf-8")

    for image in device_images(store):
        assert marker not in image
    store.demote_records(record_ids, actor_id="archivist")
    for image in device_images(store):
        assert marker not in image
    store.read("rec-0", actor_id="system")  # recall repatriates warm
    store.demote_records(["rec-0"], actor_id="archivist")
    for image in device_images(store):
        assert marker not in image

    clock.advance_years(8)
    store.dispose("rec-0", actor_id="records-manager")
    for image in device_images(store):
        assert marker not in image
    assert store.verify_integrity().ok


def test_dispose_while_cold_scrubs_every_extent_ever_occupied():
    """A record that lived in TWO segments (demote, recall, re-demote)
    leaves certified holes in both after disposal."""
    store, clock = build()
    store.demote_records(["rec-0", "rec-1"], actor_id="archivist")
    first_sealed = store.cold.read_sealed("rec-0")
    store.read("rec-0", actor_id="system")  # recall out of segment 1
    store.demote_records(["rec-0"], actor_id="archivist")
    second_sealed = store.cold.read_sealed("rec-0")
    assert store.cold.segment_count == 2

    clock.advance_years(8)
    store.dispose("rec-0", actor_id="records-manager")

    cold_device = store.cold.device
    image = bytes(cold_device.raw_read(0, cold_device.used))
    assert first_sealed not in image
    assert second_sealed not in image
    # the sibling sharing the first segment is untouched and verifiable
    assert store.verify_integrity().ok
    assert store.cold.read_sealed("rec-1")


def test_a_disposed_cold_record_stays_gone_across_a_restart():
    """Restart from the surviving images after disposing a demoted
    record: its manifest entry is still on the cold device, the key
    escrow says the record was destroyed, so recovery marks its extents
    as certified holes — never blamed, never served, never refilled."""
    store, clock = build()
    store.demote_records([f"rec-{i}" for i in range(4)], actor_id="archivist")
    victim, sibling = "rec-1", "rec-2"
    sealed_before = store.cold.read_sealed(victim)
    clock.advance_years(8)
    store.dispose(victim, actor_id="records-manager")

    recovered = CuratorStore.recover_from_devices(
        CuratorConfig(master_key=MASTER, clock=clock, device_capacity=1 << 20),
        **{name: surviving_image(device) for name, device in store.device_set().items()},
        witnesses=[store.witness],
        signer=store.signer,
    )
    assert victim in recovered.recovery_report.disposed
    assert recovered.cold.segment_of(sibling).scrubbed == {victim}
    # the scrubbed hole draws no blame from either kind of pass
    assert recovered.verify_integrity().ok
    assert recovered.verify_integrity(incremental=True).ok
    with pytest.raises(RecordNotFoundError):
        recovered.read(victim, actor_id="system")
    cold_device = recovered.cold.device
    image = bytes(cold_device.raw_read(0, cold_device.used))
    assert sealed_before not in image
    assert MARKER.encode("utf-8") not in image
    assert recovered.read(sibling, actor_id="system").body["text"].endswith("2")
