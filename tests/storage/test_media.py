"""Media lifecycle: the HIPAA disposal / re-use state machine."""

import pytest

from repro.errors import MediaLifecycleError
from repro.storage.block import MemoryDevice
from repro.storage.media import MediaPool, MediaState, Medium
from repro.util.clock import SimulatedClock


def make_medium(clock=None, **kwargs):
    return Medium(MemoryDevice("m1", 1024), clock=clock or SimulatedClock(), **kwargs)


def write_secret(medium, data=b"PHI: patient has cancer"):
    offset = medium.device.allocate(len(data))
    medium.device.write(offset, data)
    return data


def test_new_medium_is_active():
    assert make_medium().state is MediaState.ACTIVE


def test_retire_blocks_writes():
    medium = make_medium()
    write_secret(medium)
    medium.retire("end of service")
    assert medium.state is MediaState.RETIRED
    with pytest.raises(Exception):
        medium.device.write(0, b"more")


def test_sanitize_wipes_data():
    medium = make_medium()
    secret = write_secret(medium)
    medium.retire()
    medium.sanitize()
    assert medium.state is MediaState.SANITIZED
    assert secret not in medium.forensic_scan()
    assert medium.forensic_scan() == bytes(len(secret))


def test_sanitize_requires_retired_state():
    medium = make_medium()
    with pytest.raises(MediaLifecycleError):
        medium.sanitize()


def test_reuse_requires_sanitization():
    medium = make_medium()
    write_secret(medium)
    medium.retire()
    with pytest.raises(MediaLifecycleError, match="sanitization"):
        medium.recommission()


def test_sanitize_then_reuse_presents_empty_medium():
    medium = make_medium()
    write_secret(medium)
    medium.retire()
    medium.sanitize()
    medium.recommission()
    assert medium.state is MediaState.ACTIVE
    assert medium.device.used == 0
    offset = medium.device.allocate(4)
    medium.device.write(offset, b"new!")
    assert medium.device.read(offset, 4) == b"new!"


def test_compliant_disposal_leaves_no_residue():
    medium = make_medium()
    secret = write_secret(medium)
    medium.dispose()  # sanitize_first defaults True
    assert medium.state is MediaState.DISPOSED
    assert secret not in medium.forensic_scan()


def test_negligent_disposal_leaves_residue():
    medium = make_medium()
    secret = write_secret(medium)
    medium.dispose(sanitize_first=False)
    assert secret in medium.forensic_scan()


def test_double_disposal_rejected():
    medium = make_medium()
    medium.dispose()
    with pytest.raises(MediaLifecycleError):
        medium.dispose()


def test_history_records_transitions():
    medium = make_medium()
    medium.retire("why")
    medium.sanitize()
    medium.recommission()
    transitions = [event.transition for event in medium.history]
    assert transitions == ["commissioned", "retired", "sanitized", "recommissioned"]


def test_aging_and_service_life():
    clock = SimulatedClock(start=0.0)
    medium = make_medium(clock=clock, service_life_years=5.0)
    assert not medium.past_service_life()
    clock.advance_years(6)
    assert medium.past_service_life()
    assert medium.age_years() == pytest.approx(6.0)


def test_pool_provision_and_replacement():
    clock = SimulatedClock(start=0.0)
    pool = MediaPool(clock=clock, service_life_years=5.0)
    first = pool.provision()
    clock.advance_years(6)
    second = pool.provision()
    due = pool.due_for_replacement()
    assert first in due and second not in due
    assert len(pool) == 2
    assert pool.get(first.medium_id) is first


def test_pool_unknown_medium_rejected():
    with pytest.raises(MediaLifecycleError):
        MediaPool().get("nope")


def test_pool_accountability_report_ordered():
    clock = SimulatedClock(start=0.0)
    pool = MediaPool(clock=clock)
    a = pool.provision()
    clock.advance(10)
    b = pool.provision()
    clock.advance(10)
    a.retire()
    report = pool.accountability_report()
    assert [e.transition for e in report] == ["commissioned", "commissioned", "retired"]
    assert report[-1].medium_id == a.medium_id
