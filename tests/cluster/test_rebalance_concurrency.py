"""Writers against a cluster that is being reshaped under them.

Threads store, correct and dispose for displaced and undisplaced
patients alike while the main thread grows the cluster 2 -> 4 and then
shrinks it to 3.  The write gate (one ticket per moving patient, the
home re-checked under the shard lock) is what makes the invariants
below hold; a lost update, a write landing on a shard the patient has
left, or a patient resident twice would each break one of them.
"""

import dataclasses
import sys
import threading

import pytest

from repro.cluster import CuratorCluster
from repro.errors import RecordNotFoundError

from tests.cluster.conftest import make_note

WRITERS = 4  # more threads than this box has cores
PATIENTS_PER_WRITER = 4


def test_acknowledged_writes_survive_a_grow_and_a_shrink(config, clock):
    cluster = CuratorCluster(config, shards=2)
    patients = {
        w: [f"pat-{w}-{n}" for n in range(PATIENTS_PER_WRITER)] for w in range(WRITERS)
    }
    for w, owned in patients.items():
        for patient_id in owned:
            cluster.store(make_note(f"old-{patient_id}", patient_id, clock.now()), "dr-cluster")
    clock.advance_years(8)  # the seeded records are now past retention

    final = cluster.ring.with_added("shard-02").with_added("shard-03")
    everyone = [p for owned in patients.values() for p in owned]
    displaced = set(cluster.ring.diff(final).displaced(everyone))
    assert displaced and displaced != set(everyone)  # both kinds are written to

    stop = threading.Event()
    stored: dict[str, str] = {}  # record id -> its latest acknowledged text
    versions: dict[str, int] = {}
    disposed: list[str] = []
    failures: list[BaseException] = []

    def writer(w: int) -> None:
        try:
            i = 0
            while not stop.is_set():
                patient_id = patients[w][i % PATIENTS_PER_WRITER]
                record_id = f"new-{w}-{i}"
                note = make_note(record_id, patient_id, clock.now(), text=f"visit {i}")
                cluster.store(note, "dr-cluster")
                stored[record_id], versions[record_id] = f"visit {i}", 1
                if i % 2:
                    amended = dataclasses.replace(
                        note, body={**note.body, "text": f"visit {i} amended"}
                    )
                    cluster.correct(amended, "dr-cluster", "review")
                    stored[record_id], versions[record_id] = f"visit {i} amended", 2
                if i < PATIENTS_PER_WRITER:
                    cluster.dispose(f"old-{patient_id}", actor_id="records-manager")
                    disposed.append(f"old-{patient_id}")
                i += 1
        except BaseException as exc:  # noqa: BLE001 — reported by the main thread
            failures.append(exc)

    threads = [threading.Thread(target=writer, args=(w,)) for w in range(WRITERS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for thread in threads:
            thread.start()
        grow = cluster.rebalance(target_shards=4, actor_id="ops", pace_s=0.02)
        clock.advance(5.0)
        shrink = cluster.rebalance(target_shards=3, actor_id="ops", pace_s=0.02)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures
    assert grow.moved and shrink.moved
    assert len(stored) > WRITERS * PATIENTS_PER_WRITER  # writers kept going throughout

    for record_id, text in stored.items():
        assert cluster.read(record_id, actor_id="dr-cluster").body["text"] == text
        assert cluster.version_count(record_id) == versions[record_id]
    assert len(disposed) == len(everyone)
    for record_id in disposed:
        with pytest.raises(RecordNotFoundError):
            cluster.read(record_id, actor_id="dr-cluster")

    homes: dict[str, int] = {}
    for slot, shard in enumerate(cluster.shards):
        for patient_id in shard.patient_ids():
            assert patient_id not in homes, f"{patient_id} is resident twice"
            homes[patient_id] = slot
    assert sorted(homes) == sorted(everyone)
    assert all(cluster.shard_for(p) == slot for p, slot in homes.items())
    assert cluster.shard_count == 3 and cluster.recover_interrupted_moves() == []
    assert cluster.verify_integrity().ok
    assert cluster.verify_audit_trail().ok
