"""Shard-aware recovery: manifest-gated, loud about missing shards."""

import dataclasses

import pytest

from repro.cluster import ClusterManifest, CuratorCluster
from repro.cluster.ring import sample_patients
from repro.errors import ClusterError

from tests.cluster.conftest import make_note


def _populated(config, clock, shards=3):
    cluster = CuratorCluster(config, shards=shards)
    groups = sample_patients(cluster.ring, 2)
    n = 0
    for patients in groups.values():
        for patient_id in patients:
            cluster.store(
                make_note(f"rec-{n:03d}", patient_id, clock.now()), "dr-cluster"
            )
            n += 1
    return cluster


def test_full_round_trip_restores_every_shard(config, clock):
    cluster = _populated(config, clock)
    before = cluster.record_ids()
    recovered = CuratorCluster.recover_from_devices(
        config, cluster.manifest, cluster.device_sets()
    )
    assert recovered.record_ids() == before
    assert recovered.verify_integrity().ok
    assert recovered.verify_audit_trail().ok
    # records are readable again, and still routed correctly
    for record_id in before:
        note = recovered.read(record_id, actor_id="system")
        assert recovered.shard_of_record(record_id) == \
            recovered.shard_for(note.patient_id)
    reports = recovered.recovery_reports
    assert set(reports) == set(recovered.shard_ids)
    assert all(report is not None for report in reports.values())


def test_missing_shard_devices_detected_not_dropped(config, clock):
    cluster = _populated(config, clock)
    device_sets = cluster.device_sets()
    device_sets.pop("shard-01")
    with pytest.raises(ClusterError, match="shard-01"):
        CuratorCluster.recover_from_devices(config, cluster.manifest, device_sets)


def test_unknown_extra_shard_rejected(config, clock):
    cluster = _populated(config, clock)
    device_sets = cluster.device_sets()
    device_sets["shard-99"] = device_sets["shard-00"]
    with pytest.raises(ClusterError, match="shard-99"):
        CuratorCluster.recover_from_devices(config, cluster.manifest, device_sets)


def test_tampered_manifest_refuses_recovery(config, clock):
    cluster = _populated(config, clock)
    device_sets = cluster.device_sets()
    # an attacker shrinks the topology to hide a shard they emptied
    shrunk = dataclasses.replace(
        cluster.manifest, shard_ids=cluster.manifest.shard_ids[:2]
    )
    with pytest.raises(ClusterError):
        CuratorCluster.recover_from_devices(config, shrunk, device_sets)


def test_unsealed_manifest_refuses_recovery(config, clock):
    cluster = _populated(config, clock)
    bare = ClusterManifest(
        cluster_id=cluster.manifest.cluster_id,
        site_id=cluster.manifest.site_id,
        shard_ids=cluster.manifest.shard_ids,
    )
    with pytest.raises(ClusterError):
        CuratorCluster.recover_from_devices(config, bare, cluster.device_sets())


def test_a_modulo_ring_manifest_is_refused_typed(config, clock):
    """``sha256-ring`` named the retired ``hash % shards`` placement;
    routing its shards by the vnode ring would send patients to shards
    that do not hold them, so recovery refuses before touching a device."""
    cluster = _populated(config, clock)
    legacy = dataclasses.replace(
        cluster.manifest, algorithm="sha256-ring"
    ).sealed(config.master_key)
    with pytest.raises(ClusterError, match="sha256-ring"):
        CuratorCluster.recover_from_devices(config, legacy, cluster.device_sets())
