"""Process-backed shard workers: protocol, equivalence, and the
deliberately unsupported device surface."""

import os
import re
import signal
import time

import pytest

from repro.cluster import CuratorCluster
from repro.cluster.ring import sample_patients
from repro.cluster.workers import ShardWorkerProxy
from repro.core.config import CuratorConfig
from repro.crypto.ed25519 import generate_ed25519_keypair
from repro.errors import AccessDeniedError, ClusterError, RecordNotFoundError
from repro.util import SimulatedClock

from tests.cluster.conftest import MASTER_KEY, make_note

ED_KEYPAIR = generate_ed25519_keypair(seed=bytes(range(32)))


@pytest.fixture()
def worker_cluster():
    config = CuratorConfig(
        master_key=MASTER_KEY,
        clock=SimulatedClock(start=1.17e9),
        signing_keypair=ED_KEYPAIR,
    )
    cluster = CuratorCluster(config, shards=3, workers=3)
    yield cluster
    cluster.close()


def test_worker_cluster_reports_workers(worker_cluster):
    assert worker_cluster.worker_count == 3
    assert all(
        isinstance(engine, ShardWorkerProxy) for engine in worker_cluster.shards
    )


def test_store_read_search_round_trip_through_workers(worker_cluster):
    notes = [
        make_note(f"rec-{i:02d}", f"pat-{i:02d}", 1.17e9, text="cardiac mri study")
        for i in range(6)
    ]
    assert worker_cluster.store_many(notes, "dr-cluster") == 6
    note = worker_cluster.read("rec-03", actor_id="dr-cluster")
    assert note.record_id == "rec-03"
    assert sorted(worker_cluster.search("cardiac", actor_id="dr-cluster")) == [
        f"rec-{i:02d}" for i in range(6)
    ]
    assert worker_cluster.record_ids() == [f"rec-{i:02d}" for i in range(6)]


def test_records_land_on_ring_assigned_worker(worker_cluster):
    groups = sample_patients(worker_cluster.ring, 2)
    placed = {}
    n = 0
    for shard, patients in groups.items():
        for patient_id in patients:
            record_id = f"rec-{n:03d}"
            worker_cluster.store(make_note(record_id, patient_id, 1.17e9), "dr-cluster")
            placed.setdefault(shard, []).append(record_id)
            n += 1
    for shard, record_ids in placed.items():
        held = worker_cluster.shards[shard].record_ids()
        assert set(record_ids) <= set(held)
        assert all(worker_cluster.shard_of_record(r) == shard for r in record_ids)


def test_errors_cross_the_pipe_typed(worker_cluster):
    worker_cluster.store(make_note("rec-1", "pat-1", 1.17e9), "dr-cluster")
    with pytest.raises(RecordNotFoundError):
        worker_cluster.read("no-such-record", actor_id="dr-cluster")
    with pytest.raises(AccessDeniedError):
        # An unknown actor is denied by the policy engine inside the
        # worker process; the typed denial must surface unchanged.
        worker_cluster.read("rec-1", actor_id="complete-stranger")


def test_verification_fans_out_across_workers(worker_cluster):
    worker_cluster.store_many(
        [make_note(f"rec-{i}", f"pat-{i}", 1.17e9) for i in range(5)], "dr-cluster"
    )
    assert worker_cluster.verify_integrity().ok
    assert worker_cluster.verify_audit_trail().ok


def test_device_surface_refuses_in_worker_mode(worker_cluster):
    with pytest.raises(ClusterError):
        worker_cluster.devices()
    with pytest.raises(ClusterError):
        worker_cluster.audit_devices()


def test_engine_internals_unreachable_through_proxy(worker_cluster):
    with pytest.raises(AttributeError):
        worker_cluster.shards[0]._clock


def test_a_name_outside_the_call_table_is_refused_on_both_sides(worker_cluster):
    proxy = worker_cluster.shards[0]
    with pytest.raises(AttributeError):
        proxy.insider_keys  # a real engine name the cluster never calls
    with pytest.raises(ClusterError, match="insider_keys"):
        proxy._call("insider_keys")
    # a part path is checked against the table before it is resolved:
    # neither a part's state nor a path through it is served
    for path in ("transfer.segments", "_dir.chains", "transfer.home.worm.put"):
        with pytest.raises(ClusterError, match=re.escape(path)):
            proxy._call(path)
    with pytest.raises(AttributeError):
        proxy.transfer.segments
    assert proxy.record_ids() == []  # the pipe is still in step
    assert proxy.transfer.imported_segment("pat-1") is None


def test_a_killed_worker_is_a_typed_error_not_a_hang(worker_cluster):
    worker_cluster.store(make_note("rec-1", "pat-1", 1.17e9), "dr-cluster")
    victim = worker_cluster.shards[worker_cluster.shard_of_record("rec-1")]
    os.kill(victim._process.pid, signal.SIGKILL)
    victim._process.join(timeout=10)
    assert not victim._process.is_alive()

    started = time.monotonic()
    with pytest.raises(ClusterError, match="died"):
        worker_cluster.read("rec-1", actor_id="dr-cluster")
    worker_cluster.close()
    assert time.monotonic() - started < 10
    assert not any(shard._process.is_alive() for shard in worker_cluster.shards)


def test_close_is_idempotent_and_blocks_further_calls(worker_cluster):
    worker_cluster.close()
    worker_cluster.close()
    with pytest.raises(ClusterError):
        worker_cluster.shards[0].record_ids()


def test_in_process_cluster_close_is_safe(worker_cluster):
    config = CuratorConfig(
        master_key=MASTER_KEY,
        clock=SimulatedClock(start=1.17e9),
        signing_keypair=ED_KEYPAIR,
    )
    local = CuratorCluster(config, shards=2, workers=0)
    assert local.worker_count == 0
    local.store(make_note("rec-1", "pat-1", 1.17e9), "dr-cluster")
    local.close()  # reaps only the lazy thread pool
