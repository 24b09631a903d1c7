"""Cross-shard semantics of the :class:`CuratorCluster` router."""

import pytest

from repro.cluster.ring import sample_patients
from repro.core.engine import CuratorStore
from repro.errors import ClusterError, RecordNotFoundError
from repro.util.metrics import METRICS

from tests.cluster.conftest import make_note


def _populate(cluster, clock, per_shard=2):
    """Two records on every shard; returns {shard_index: [record_ids]}."""
    groups = sample_patients(cluster.ring, per_shard)
    placed: dict[int, list[str]] = {}
    n = 0
    for shard, patients in groups.items():
        for patient_id in patients:
            record_id = f"rec-{n:03d}"
            cluster.store(
                make_note(record_id, patient_id, clock.now()), "dr-cluster"
            )
            placed.setdefault(shard, []).append(record_id)
            n += 1
    return placed


def test_records_land_on_the_ring_assigned_shard(cluster, clock):
    placed = _populate(cluster, clock)
    for shard, record_ids in placed.items():
        engine_ids = cluster.shards[shard].record_ids()
        for record_id in record_ids:
            assert record_id in engine_ids
            assert cluster.shard_of_record(record_id) == shard
        # and on no other shard
        for other, engine in enumerate(cluster.shards):
            if other != shard:
                assert not set(record_ids) & set(engine.record_ids())


def test_reads_route_and_count_per_shard(cluster, clock):
    placed = _populate(cluster, clock)
    METRICS.reset()
    for record_ids in placed.values():
        for record_id in record_ids:
            note = cluster.read(record_id, actor_id="dr-cluster")
            assert note.record_id == record_id
    routed = METRICS.labelled("cluster_reads")
    assert sum(routed.values()) == sum(len(v) for v in placed.values())
    assert set(routed) == set(cluster.shard_ids)


def test_search_merges_and_dedupes_across_shards(cluster, clock):
    placed = _populate(cluster, clock)
    everything = sorted(rid for rids in placed.values() for rid in rids)
    # every note shares the word "cardiology"; hits span all shards
    assert cluster.search("cardiology", actor_id="dr-cluster") == everything
    assert cluster.search("nonexistent-term", actor_id="dr-cluster") == []


def test_store_many_groups_by_shard_atomically(cluster, clock):
    groups = sample_patients(cluster.ring, 2)
    records = [
        make_note(f"bulk-{shard}-{n}", patient_id, clock.now())
        for shard, patients in groups.items()
        for n, patient_id in enumerate(patients)
    ]
    assert cluster.store_many(records, "dr-cluster") == len(records)
    for shard, patients in groups.items():
        on_shard = cluster.shards[shard].record_ids()
        assert {f"bulk-{shard}-{n}" for n in range(len(patients))} <= set(on_shard)


def test_author_enrollment_replicates_cluster_wide(cluster, clock):
    """Storing one record must make the author a known principal on
    every shard (as it would engine-wide on a monolith) — otherwise a
    fan-out search dies on the shards the author never wrote to."""
    groups = sample_patients(cluster.ring, 1)
    patient_id = groups[0][0]  # lands on shard 0 only
    cluster.store(make_note("rec-solo", patient_id, clock.now()), "dr-new")
    assert cluster.search("cardiology", actor_id="dr-new") == ["rec-solo"]
    assert cluster.records_in_window(0.0, clock.now() + 1) == ["rec-solo"]


def test_records_in_window_unions_shards(cluster, clock):
    _populate(cluster, clock)
    window = cluster.records_in_window(0.0, clock.now() + 1)
    assert window == cluster.record_ids()


def test_disposal_on_owning_shard_only(cluster, clock):
    placed = _populate(cluster, clock)
    shard, victim = next(
        (shard, rids[0]) for shard, rids in placed.items() if rids
    )
    before = {
        index: list(engine.record_ids())
        for index, engine in enumerate(cluster.shards)
    }
    clock.advance_years(8)  # past the 7-year clinical retention term
    certificates = cluster.dispose(victim, actor_id="records-manager")
    assert certificates and all(
        cert.shred_report.key_shredded for cert in certificates
    )
    # the certified hole exists on the owning shard...
    assert victim not in cluster.shards[shard].record_ids()
    with pytest.raises(RecordNotFoundError):
        cluster.read(victim, actor_id="dr-cluster")
    # ...and every other shard is untouched
    for index, engine in enumerate(cluster.shards):
        if index != shard:
            assert engine.record_ids() == before[index]
    # the disposal shard still verifies end to end
    assert cluster.verify_integrity().ok
    assert cluster.verify_audit_trail().ok


def test_break_glass_honored_on_owning_shard(cluster, clock):
    from repro.access import Role, User

    placed = _populate(cluster, clock)
    shard = next(iter(placed))
    record_id = placed[shard][0]
    patient_id = cluster.read(record_id, actor_id="dr-cluster").patient_id

    cluster.register_user(User.make("dr-er", "ER Doc", [Role.PHYSICIAN]))
    grant = cluster.break_glass("dr-er", patient_id, "unresponsive arrival")
    assert cluster.read(record_id, actor_id="dr-er").record_id == record_id

    cluster.revoke_break_glass(grant.grant_id)
    with pytest.raises(ClusterError):
        cluster.revoke_break_glass("no-such-grant")


def test_merged_verification_carries_shard_blame(cluster, clock):
    _populate(cluster, clock)
    report = cluster.verify_integrity()
    assert report.ok
    # the merged coverage names every shard
    for shard_id in cluster.shard_ids:
        assert shard_id in report.coverage
    audit = cluster.verify_audit_trail()
    assert audit.ok and audit.mode == "full"


def test_merged_verification_localizes_tamper(cluster, clock):
    placed = _populate(cluster, clock)
    shard = next(iter(placed))
    victim = placed[shard][0]
    engine = cluster.shards[shard]
    # rot the record's first sealed version on the raw WORM device
    from repro.storage.journal import Journal

    device = engine.worm.device
    marker = f"{victim}@v0".encode()
    for offset, payload, _ok in Journal.walk_frames(device):
        if marker in payload:
            Journal.forge_frame(
                device, offset, payload[:-1] + bytes([payload[-1] ^ 0x5A])
            )
            break
    else:
        pytest.fail("sealed version frame not found on the shard device")
    report = cluster.verify_integrity()
    assert not report.ok
    shard_id = cluster.shard_ids[shard]
    assert any(v.startswith(f"{shard_id}:") for v in report.violations)
    # no other shard is blamed
    for other in cluster.shard_ids:
        if other != shard_id:
            assert not any(v.startswith(f"{other}:") for v in report.violations)


def test_audit_events_merge_in_time_order(cluster, clock):
    _populate(cluster, clock)
    events = cluster.audit_events()
    assert len(events) == sum(
        len(engine.audit_events()) for engine in cluster.shards
    )
    timestamps = [event["timestamp"] for event in events]
    assert timestamps == sorted(timestamps)


def test_accounting_of_disclosures_is_single_shard(cluster, clock):
    placed = _populate(cluster, clock)
    shard = next(iter(placed))
    record_id = placed[shard][0]
    patient_id = cluster.read(record_id, actor_id="dr-cluster").patient_id
    disclosures = cluster.accounting_of_disclosures(
        patient_id, actor_id="system"
    )
    assert any(event.subject_id == record_id for event in disclosures)


def test_backup_round_trip_routes_to_owning_shard(cluster, clock):
    placed = _populate(cluster, clock)
    snapshots = cluster.create_backup(actor_id="backup-operator")
    assert set(snapshots) == set(cluster.shard_ids)
    # every shard's manager counts its snapshots from one: the ids must
    # still tell the shards apart, or a restore lands on the wrong one
    for snapshot in snapshots.values():
        cluster.restore_from_backup(snapshot.snapshot_id, actor_id="backup-operator")
    for engine in cluster.shards:
        events = [e["action"] for e in engine.audit_events()]
        assert events.count("backup_restored") == 1
    with pytest.raises(ClusterError):
        cluster.restore_from_backup("snap-unknown", actor_id="backup-operator")


def test_unknown_record_raises_not_found(cluster):
    with pytest.raises(RecordNotFoundError):
        cluster.read("rec-missing", actor_id="dr-cluster")


def test_phi_methods_require_keyword_actor_id(cluster, clock):
    """The cluster API carries no legacy shims: actor_id is mandatory
    and keyword-only on every PHI-touching method."""
    _populate(cluster, clock, per_shard=1)
    record_id = cluster.record_ids()[0]
    with pytest.raises(TypeError):
        cluster.read(record_id)
    with pytest.raises(TypeError):
        cluster.read(record_id, "dr-cluster")  # positional actor rejected
    with pytest.raises(TypeError):
        cluster.search("cardiology")
    with pytest.raises(TypeError):
        cluster.dispose(record_id)
    with pytest.raises(TypeError):
        cluster.accounting_of_disclosures("pat-000")
    with pytest.raises(TypeError):
        cluster.create_backup()


# -- mirrors: one answer whether the records sit on one engine or three shards

def _demoted(model):
    return sorted(model.demotion_sweep(actor_id="ops"))


def _cold_after_sweep(model):
    model.demotion_sweep(actor_id="ops")
    return model.cold_record_ids()


def _tier_counts_after_sweep(model):
    model.demotion_sweep(actor_id="ops")
    stats = model.tier_stats()
    # bytes and segment counts depend on how many devices the records
    # are spread over; the record counts do not
    return stats["warm_records"], stats["cold_records"]


MIRRORS = {
    "read_view": lambda model: model.read_view("rec-000", "dr-cluster"),
    "attachments_of": lambda model: model.attachments_of("rec-000"),
    "declared_features": lambda model: model.declared_features(),
    "retention_sweep": lambda model: model.retention_sweep(),
    "demotion_sweep": _demoted,
    "cold_record_ids": _cold_after_sweep,
    "tier_stats": _tier_counts_after_sweep,
}


@pytest.mark.parametrize("name", MIRRORS)
def test_a_cluster_mirror_answers_as_one_engine_would(name, cluster, config, clock):
    engine = CuratorStore(config)
    patients = [p for group in sample_patients(cluster.ring, 2).values() for p in group]
    for model in (engine, cluster):
        for n, patient_id in enumerate(patients):
            model.store(make_note(f"rec-{n:03d}", patient_id, clock.now()), "dr-cluster")
        model.attach("rec-000", "scan-1", b"dicom", actor_id="dr-cluster")
    clock.advance_years(8)  # past retention, and idle long enough to demote
    answer = MIRRORS[name](cluster)
    assert answer == MIRRORS[name](engine)
    assert answer  # a mirror that returned nothing would agree trivially
