"""The fan-out contract of :class:`~repro.cluster.dispatch.Dispatch`.

In-process shards share one GIL, so a fan-out over them runs in the
caller's thread, one shard lock at a time, and no pool thread starts.
Only process workers overlap, on the pool.  Either way every call runs
to its end before the first failure in slot order reaches the caller.
"""

import threading
import time
from types import SimpleNamespace

import pytest

from repro.cluster import CuratorCluster
from repro.cluster.dispatch import Dispatch
from repro.cluster.ring import VNodeRing, sample_patients
from repro.cluster.topology import Topology

from tests.cluster.conftest import make_note

SLOTS = ("shard-00", "shard-01", "shard-02", "shard-03")


def _worker_topology() -> SimpleNamespace:
    """A stand-in for a topology built with process workers: all that
    :meth:`Dispatch.parallel` reads of it is the flag and the width."""
    return SimpleNamespace(workers=True, current=SimpleNamespace(engines=dict.fromkeys(SLOTS)))


@pytest.fixture()
def started(monkeypatch):
    """Names of the threads started while the test runs."""
    names: list[str] = []
    start = threading.Thread.start

    def recording_start(thread):
        names.append(thread.name)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return names


def test_an_in_process_fan_out_runs_in_the_callers_thread(config, clock, started):
    topology = Topology(config, "dispatch", VNodeRing.for_count(4))
    assert not topology.workers
    dispatch = Dispatch(topology, "dispatch")
    seen = []

    def probe(engine):
        held = [sid for sid, lock in topology.current.locks.items() if lock._is_owned()]
        seen.append((threading.get_ident(), held))
        return engine

    results = dispatch.fan_out(probe)
    assert list(results) == list(SLOTS)
    assert list(results.values()) == list(topology.current.engines.values())
    assert seen == [(threading.get_ident(), [slot]) for slot in SLOTS]

    # and through every fan-out the cluster's public surface makes
    cluster = CuratorCluster(config, shards=4)
    patients = [p for group in sample_patients(cluster.ring, 2).values() for p in group]
    notes = [make_note(f"rec-{i}", p, clock.now()) for i, p in enumerate(patients)]
    assert cluster.store_many(notes, "dr-cluster") == 8
    assert len(cluster.search("cardiology", actor_id="dr-cluster")) == 8
    assert cluster.verify_integrity().ok and cluster.verify_audit_trail().ok
    cluster.tier_stats()
    cluster.close()
    assert not [name for name in started if "-fanout" in name]


def test_every_call_runs_and_the_first_failure_in_slot_order_is_raised(config):
    topology = Topology(config, "dispatch", VNodeRing.for_count(4))
    dispatch = Dispatch(topology, "dispatch")
    ran = []

    def probe(engine):
        slot = len(ran)
        ran.append(slot)
        if slot == 1:
            raise ValueError("shard 2 failed")
        if slot == 3:
            raise KeyError("shard 4 failed too")
        return slot

    with pytest.raises(ValueError, match="shard 2 failed"):
        dispatch.fan_out(probe)
    assert ran == [0, 1, 2, 3]


def test_process_worker_fan_outs_still_overlap():
    dispatch = Dispatch(_worker_topology(), "workers")
    began = time.perf_counter()
    results = dispatch.parallel({slot: lambda slot=slot: time.sleep(0.2) or slot for slot in SLOTS})
    elapsed = time.perf_counter() - began
    dispatch.close()
    assert results == {slot: slot for slot in SLOTS}
    assert elapsed < 0.4, f"four 0.2 s calls took {elapsed:.2f} s: no overlap"


def test_the_pool_path_waits_for_every_call_before_raising():
    dispatch = Dispatch(_worker_topology(), "workers")
    finished = []

    def fail():
        raise ValueError("first shard failed")

    def slow(slot):
        time.sleep(0.2)
        finished.append(slot)
        return slot

    calls = {SLOTS[0]: fail, **{slot: (lambda slot=slot: slow(slot)) for slot in SLOTS[1:]}}
    with pytest.raises(ValueError, match="first shard failed"):
        dispatch.parallel(calls)
    assert sorted(finished) == list(SLOTS[1:])
    dispatch.close()
