"""Property-based tests on the storage invariants (hypothesis)."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import IntegrityError, RetentionError, WormViolationError
from repro.storage.block import MemoryDevice
from repro.storage.journal import Journal
from repro.util.clock import SimulatedClock
from repro.worm.retention_lock import RetentionLock, RetentionTerm
from repro.worm.store import WormStore

SETTINGS = settings(
    max_examples=40, suppress_health_check=[HealthCheck.too_slow], deadline=None
)

payloads = st.lists(st.binary(min_size=0, max_size=120), min_size=1, max_size=15)


@SETTINGS
@given(payloads)
def test_journal_round_trips_any_payloads(items):
    journal = Journal(MemoryDevice("j", 1 << 20))
    for item in items:
        journal.append(item)
    assert journal.read_all() == items


@SETTINGS
@given(payloads, st.integers(min_value=1, max_value=200))
def test_journal_recovery_after_truncation_keeps_a_prefix(items, lost):
    journal = Journal(MemoryDevice("j", 1 << 20))
    for item in items:
        journal.append(item)
    device = journal.device
    lost = min(lost, device.used)
    start = device.used - lost
    device.raw_write(start, bytes(lost))
    device.truncate_to(start)
    recovered = Journal(device)
    assert len(recovered) <= len(items)
    assert recovered.read_all() == items[: len(recovered)]


@SETTINGS
@given(
    st.lists(
        st.tuples(st.text(min_size=1, max_size=8), st.binary(min_size=1, max_size=60)),
        min_size=1,
        max_size=12,
        unique_by=lambda t: t[0],
    )
)
def test_worm_store_returns_exactly_what_was_put(entries):
    store = WormStore(device=MemoryDevice("w", 1 << 20), clock=SimulatedClock())
    for object_id, data in entries:
        store.put(object_id, data)
    for object_id, data in entries:
        assert store.get(object_id) == data
    assert store.verify_all() == []
    assert len(store) == len(entries)


@SETTINGS
@given(st.binary(min_size=1, max_size=60))
def test_worm_single_bit_flip_always_detected(data):
    store = WormStore(device=MemoryDevice("w", 1 << 20), clock=SimulatedClock())
    store.put("obj", data)
    offset, size = store.physical_extent("obj")
    original = store.device.raw_read(offset, 1)[0]
    store.device.raw_write(offset, bytes([original ^ 0x01]))
    with pytest.raises(IntegrityError):
        store.get("obj")


@SETTINGS
@given(st.data())
def test_retention_lock_extend_only_invariant(data):
    lock = RetentionLock()
    start = data.draw(st.floats(min_value=0, max_value=1e6))
    duration = data.draw(st.floats(min_value=0, max_value=1e6))
    lock.set_term("obj", RetentionTerm(start, duration))
    for _ in range(data.draw(st.integers(min_value=0, max_value=5))):
        expiry = lock.term_for("obj").expires_at
        delta = data.draw(st.floats(min_value=0, max_value=1e6))
        lock.extend_term("obj", expiry + delta)
        # extend-only: the stored expiry never decreases
        assert lock.term_for("obj").expires_at >= expiry
        # shortening by a full second is always rejected
        current = lock.term_for("obj").expires_at
        with pytest.raises(RetentionError):
            lock.extend_term("obj", current - 1.0)
    expiry = lock.term_for("obj").expires_at
    assert lock.is_deletable("obj", now=expiry + 1.0)
    assert not lock.is_deletable("obj", now=expiry - 0.5)


@SETTINGS
@given(
    st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=8, unique=True),
    st.data(),
)
def test_worm_duplicate_put_always_rejected(object_ids, data):
    store = WormStore(device=MemoryDevice("w", 1 << 20), clock=SimulatedClock())
    for object_id in object_ids:
        store.put(object_id, b"x")
    duplicate = data.draw(st.sampled_from(object_ids))
    with pytest.raises(WormViolationError):
        store.put(duplicate, b"y")
