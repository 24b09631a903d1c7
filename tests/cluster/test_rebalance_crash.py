"""Rebalance-under-fire: kill the rebalancer at every stage boundary.

The move stage machine (export -> import -> verify -> cutover -> retire
-> proof) fires its hook *before* each stage; raising
:class:`~repro.errors.CrashError` there models the mover process dying
at that boundary.  Whatever the boundary, the invariant is the same:

* **one home** — no patient is ever durably resident on two shards
  after salvage;
* **right home** — a move killed before cutover lands back on the
  source, one killed after cutover completes forward to the
  destination;
* **no data loss** — every record, version, and audit obligation
  survives, and a resumed rebalance finishes the job.

Two recovery paths are exercised: the in-process salvage
(``recover_interrupted_moves``, the ticket is still visible) and the
from-devices path (``recover_from_devices`` on images cloned with
:func:`repro.verify.crashpoint.surviving_image`, modelling a true
process death where only media survive).
"""

import pytest

from repro.cluster import ClusterManifest, CuratorCluster
from repro.cluster.rebalancer import STAGES
from repro.errors import CrashError
from repro.verify.crashpoint import surviving_image

from tests.cluster.conftest import make_note

PATIENTS = [f"pat-{n:03d}" for n in range(8)]


def build(config, clock):
    cluster = CuratorCluster(config, shards=2)
    for n, patient_id in enumerate(PATIENTS):
        cluster.store(
            make_note(f"rec-{n:03d}", patient_id, clock.now()), "dr-cluster"
        )
        clock.advance(1.0)
    return cluster


def single_homes(cluster) -> dict[str, str]:
    """patient_id -> shard id, failing the test on any dual residence."""
    homes: dict[str, str] = {}
    for slot in range(cluster.shard_count):
        shard_id = cluster.shard_ids[slot]
        for patient_id in cluster.shards[slot].patient_ids():
            assert patient_id not in homes, (
                f"{patient_id} resident on both {homes[patient_id]} "
                f"and {shard_id}"
            )
            homes[patient_id] = shard_id
    return homes


def crash_once_at(stage_to_kill):
    state = {"patient": None}

    def hook(stage: str, patient_id: str) -> None:
        if stage == stage_to_kill and state["patient"] is None:
            state["patient"] = patient_id
            raise CrashError(f"killed at {stage} boundary for {patient_id}")

    return hook, state


@pytest.mark.parametrize("stage", STAGES)
def test_crash_at_every_stage_boundary_keeps_one_home(config, clock, stage):
    cluster = build(config, clock)
    hook, state = crash_once_at(stage)
    with pytest.raises(CrashError):
        cluster.rebalance(target_shards=4, actor_id="ops", hook=hook)
    victim = state["patient"]
    assert victim is not None

    actions = cluster.recover_interrupted_moves(actor_id="ops")
    assert [a["patient"] for a in actions] == [victim]
    resolution = actions[0]["resolution"]

    homes = single_homes(cluster)
    assert sorted(homes) == sorted(PATIENTS)
    # Killed before cutover -> the source is still authoritative; at or
    # after cutover -> the move completes forward to the destination.
    if stage in ("export", "import", "verify", "cutover"):
        assert resolution == "aborted"
        assert homes[victim] == actions[0]["source"]
    else:
        assert resolution == "completed"
        assert homes[victim] == actions[0]["destination"]
    record_id = f"rec-{PATIENTS.index(victim):03d}"
    assert cluster.read(record_id, actor_id="dr-cluster")
    assert cluster.verify_integrity().ok
    assert cluster.verify_audit_trail().ok

    # the cluster is still elastic: a resumed rebalance finishes the job
    clock.advance(5.0)
    cluster.rebalance(target_shards=4, actor_id="ops")
    homes = single_homes(cluster)
    assert sorted(homes) == sorted(PATIENTS)
    for patient_id in PATIENTS:
        assert homes[patient_id] == cluster.shard_ids[
            cluster.shard_for(patient_id)
        ]
    assert cluster.verify_integrity().ok
    assert cluster.verify_audit_trail().ok


@pytest.mark.parametrize("stage", ("cutover", "retire"))
def test_device_level_salvage_after_crash(config, clock, stage):
    """True process death at the dual-residence boundaries: only media
    survive, and from-devices recovery must salvage the half-moved
    patient to exactly one durable home."""
    cluster = build(config, clock)
    hook, state = crash_once_at(stage)
    with pytest.raises(CrashError):
        cluster.rebalance(target_shards=4, actor_id="ops", hook=hook)
    victim = state["patient"]

    manifest = ClusterManifest.from_bytes(cluster.manifest.to_bytes())
    sets = {
        shard_id: {
            name: surviving_image(device)
            for name, device in devices.items()
        }
        for shard_id, devices in cluster.device_sets().items()
    }
    recovered = CuratorCluster.recover_from_devices(config, manifest, sets)

    homes = single_homes(recovered)
    assert sorted(homes) == sorted(PATIENTS)
    if stage == "cutover":
        # import marker on the destination, export marker absent on the
        # source: the dual residence was real and salvage resolved it
        assert any(
            entry["patient"] == victim for entry in recovered.salvage_report
        )
    record_id = f"rec-{PATIENTS.index(victim):03d}"
    assert recovered.read(record_id, actor_id="system")
    assert recovered.verify_integrity().ok
    assert recovered.verify_audit_trail().ok
