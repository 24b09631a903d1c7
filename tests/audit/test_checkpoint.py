"""CheckpointStore: MAC-sealed watermark persistence, forgery/damage
fallback, and crash-torn seals degrading to full verification."""

import pytest

from repro.audit.checkpoint import CheckpointStore, VerifiedWatermark
from repro.audit.events import AuditAction
from repro.audit.log import AuditLog
from repro.errors import CrashError
from repro.storage.block import MemoryDevice
from repro.storage.journal import Journal
from repro.util.clock import SimulatedClock
from repro.verify.crashpoint import CrashController, surviving_image

KEY = b"\x42" * 32


def make_watermark(size=5, runs=0):
    return VerifiedWatermark(
        size=size,
        head=b"\xaa" * 32,
        merkle_root=b"\xbb" * 32,
        verified_at=100.0,
        incremental_runs=runs,
    )


def make_store(device=None):
    return CheckpointStore(
        device=device or MemoryDevice("ckpt", 1 << 20),
        key=KEY,
        clock=SimulatedClock(start=1.17e9),
    )


def test_unkeyed_store_rejected():
    with pytest.raises(ValueError, match="MAC key"):
        CheckpointStore(device=MemoryDevice("ckpt", 1 << 20), key=b"")


def test_seal_and_latest_round_trip():
    store = make_store()
    assert store.latest() is None
    watermark = make_watermark()
    store.seal(watermark)
    assert store.latest() == watermark


def test_latest_returns_newest_valid_seal():
    store = make_store()
    store.seal(make_watermark(size=5))
    store.seal(make_watermark(size=9, runs=2))
    latest = store.latest()
    assert latest.size == 9 and latest.incremental_runs == 2


def test_forged_seal_without_the_key_is_skipped():
    store = make_store()
    store.seal(make_watermark(size=5))
    # The adversary appends a frame claiming a bigger verified prefix
    # but cannot compute the HMAC tag.
    from repro.util.encoding import canonical_bytes

    forged = canonical_bytes(make_watermark(size=99).to_dict())
    Journal(store.device).append(b"\x00" * 32 + forged)
    recovered = CheckpointStore(store.device, key=KEY)
    assert recovered.latest().size == 5  # fell back to the genuine seal


def test_bitrotted_seal_falls_back_to_older_one():
    store = make_store()
    store.seal(make_watermark(size=5))
    store.seal(make_watermark(size=9))
    frames = list(Journal.walk_frames(store.device))
    offset, payload, _ok = frames[-1]
    Journal.forge_frame(
        store.device, offset, payload[:-1] + bytes([payload[-1] ^ 0xFF])
    )
    assert store.latest().size == 5


def test_wiped_device_means_no_watermark():
    store = make_store()
    store.seal(make_watermark())
    store.device.raw_write(0, b"\x00" * store.device.capacity)
    recovered = CheckpointStore(store.device, key=KEY)
    assert recovered.latest() is None


def test_bumped_increments_only_the_run_counter():
    watermark = make_watermark(size=7, runs=3)
    bumped = watermark.bumped()
    assert bumped.incremental_runs == 4
    assert (bumped.size, bumped.head, bumped.merkle_root) == (
        watermark.size,
        watermark.head,
        watermark.merkle_root,
    )


@pytest.mark.parametrize("torn", [False, True])
def test_crash_mid_seal_drops_the_torn_frame_whole(torn):
    device = MemoryDevice("ckpt", 1 << 20)
    store = make_store(device)
    store.seal(make_watermark(size=5))
    controller = CrashController()
    controller.attach([device])
    controller.arm(controller.writes_observed + 1, torn=torn)
    with pytest.raises(CrashError):
        store.seal(make_watermark(size=9))
    recovered = CheckpointStore(surviving_image(device), key=KEY)
    assert recovered.latest().size == 5  # the interrupted seal never existed


# -- satellite: watermark persistence across crash/restart ----------------


def grown_log(n=12):
    clock = SimulatedClock(start=1.17e9)
    ckpt_device = MemoryDevice("ckpt", 1 << 20)
    checkpoints = CheckpointStore(device=ckpt_device, key=KEY, clock=clock)
    log = AuditLog(
        device=MemoryDevice("audit", 1 << 22),
        clock=clock,
        checkpoints=checkpoints,
    )
    for i in range(n):
        log.append(AuditAction.RECORD_READ, f"actor-{i % 3}", f"rec-{i % 5}")
    return log, ckpt_device


def restart(log, ckpt_device):
    """Process restart: replay the audit journal, adopt the surviving
    checkpoint image (in-memory watermark died with the process)."""
    recovered = AuditLog(surviving_image(log.device))
    recovered.adopt_checkpoints(
        CheckpointStore(surviving_image(ckpt_device), key=KEY)
    )
    return recovered


def test_watermark_survives_a_clean_restart():
    log, ckpt_device = grown_log()
    assert log.verify_chain().ok  # seals the watermark
    sealed = log.watermark
    recovered = restart(log, ckpt_device)
    assert recovered.watermark == sealed
    for i in range(3):
        recovered.append(AuditAction.RECORD_READ, "actor-0", f"rec-{i}")
    result = recovered.verify_chain(incremental=True)
    assert result.ok and result.mode == "incremental"
    assert not result.escalated
    assert result.events_checked == 3  # only the post-restart delta


@pytest.mark.parametrize("torn", [False, True])
def test_crash_during_the_first_seal_falls_back_to_full_verify(torn):
    log, ckpt_device = grown_log()
    controller = CrashController()
    controller.attach([ckpt_device])  # the audit journal itself survives
    controller.arm(controller.writes_observed + 1, torn=torn)
    with pytest.raises(CrashError):
        log.verify_chain()  # crashes sealing the very first watermark
    recovered = restart(log, ckpt_device)
    assert recovered.watermark is None  # the torn seal was dropped whole
    result = recovered.verify_chain(incremental=True)
    assert result.ok and result.escalated  # served by a full rescan
    assert result.events_checked == len(recovered)


@pytest.mark.parametrize("torn", [False, True])
def test_crash_during_a_later_seal_falls_back_to_the_previous_one(torn):
    log, ckpt_device = grown_log()
    assert log.verify_chain().ok  # seal #1
    first = log.watermark
    for i in range(4):
        log.append(AuditAction.RECORD_READ, "actor-1", f"rec-{i}")
    controller = CrashController()
    controller.attach([ckpt_device])
    controller.arm(controller.writes_observed + 1, torn=torn)
    with pytest.raises(CrashError):
        log.verify_chain()  # crashes sealing watermark #2
    recovered = restart(log, ckpt_device)
    assert recovered.watermark == first  # older seal, never a torn one
    result = recovered.verify_chain(incremental=True)
    assert result.ok and result.mode == "incremental"
    # fail-safe direction: MORE events re-verified, never fewer
    assert result.events_checked == len(recovered) - first.size
