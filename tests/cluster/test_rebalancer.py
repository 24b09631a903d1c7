"""Online elastic resharding: the rebalancer's functional contract.

A grow or shrink must move exactly the ring-displaced patients, carry
their whole compliance surface (versions, attachments, holds, consent,
disclosure accounting) to the new home, emit a verifier-accepted
:class:`MigrationProof` per move, and leave the cluster's own
verification paths green.
"""

import dataclasses

import pytest

from repro.access.policies import ConsentDirective
from repro.access.principals import Role, User
from repro.cluster import CuratorCluster, MigrationProof
from repro.errors import (
    AccessDeniedError,
    ConsentError,
    CuratorError,
    RecordError,
    RetentionError,
)
from repro.verify.crashpoint import surviving_image

from tests.cluster.conftest import make_note

PATIENTS = [f"pat-{n:03d}" for n in range(10)]


def build(config, clock, shards=2):
    cluster = CuratorCluster(config, shards=shards)
    cluster.register_user(
        User.make("po-1", "Privacy Officer", [Role.PRIVACY_OFFICER])
    )
    for n, patient_id in enumerate(PATIENTS):
        cluster.store(
            make_note(f"rec-{n:03d}", patient_id, clock.now()), "dr-cluster"
        )
        clock.advance(1.0)
    return cluster


def displaced_by_grow(cluster, target_shards=4):
    ring = cluster.ring
    final = ring
    candidate = ring.shard_count
    while final.shard_count < target_shards:
        final = final.with_added(f"shard-{candidate:02d}")
        candidate += 1
    return ring.diff(final).moves(PATIENTS)


def test_grow_moves_exactly_the_displaced_patients(config, clock):
    cluster = build(config, clock)
    expected = displaced_by_grow(cluster)
    report = cluster.rebalance(target_shards=4, actor_id="ops")
    assert report.from_shards == ("shard-00", "shard-01")
    assert report.to_shards == (
        "shard-00", "shard-01", "shard-02", "shard-03",
    )
    assert sorted(p.patient_id for p in report.proofs) == sorted(expected)
    assert report.moved == len(expected)
    # placement now follows the grown ring, and the manifest sealed the
    # transition epoch and the final epoch
    for patient_id, (_, destination) in expected.items():
        assert cluster.shard_ids[cluster.shard_for(patient_id)] == destination
    assert cluster.manifest.epoch == 2
    assert report.epoch == 2
    assert cluster.verify_integrity().ok
    assert cluster.verify_audit_trail().ok


def test_every_move_proof_reverifies_from_the_report(config, clock):
    cluster = build(config, clock)
    report = cluster.rebalance(target_shards=4, actor_id="ops")
    assert report.proofs
    for proof in report.proofs:
        cluster.verify_move_proof(proof)


def test_a_worker_cluster_moves_patients_through_the_pipe(config, clock):
    """The move protocol crosses the worker pipe as part paths
    (``transfer.*``): a 2 -> 3 grow over process shards re-verifies."""
    cluster = CuratorCluster(config, shards=2, workers=2)
    try:
        for n, patient_id in enumerate(PATIENTS):
            cluster.store(make_note(f"rec-{n:03d}", patient_id, clock.now()), "dr-cluster")
        report = cluster.rebalance(target_shards=3, actor_id="ops")
        assert report.proofs
        for proof in report.proofs:
            cluster.verify_move_proof(proof)
        assert cluster.verify_integrity().ok
        assert cluster.verify_audit_trail().ok
    finally:
        cluster.close()


def test_a_rebalance_leaves_every_shard_within_one_anchor_cadence(config, clock):
    """Export, import and retire markers reach each chain through its
    anchor schedule: after a 2 -> 4 grow that moves about half of 400
    patients, no shard holds more than one cadence of events beyond its
    witness's latest anchor (a tail a raw-device insider could cut
    unnoticed, ``CUSTODY_TRANSFERRED`` markers included)."""
    cluster = CuratorCluster(config, shards=2)
    cluster.store_many(
        [make_note(f"rec-{n:03d}", f"pat-{n:03d}", clock.now()) for n in range(400)],
        "dr-cluster",
    )
    cluster.rebalance(target_shards=4, actor_id="ops")
    every = config.anchor_every_events
    for engine in cluster.shards:
        assert len(engine.audit_log) - engine.witness.latest().log_size <= every
    assert cluster.verify_audit_trail().ok


def test_a_forged_proof_is_rejected(config, clock):
    cluster = build(config, clock)
    report = cluster.rebalance(target_shards=4, actor_id="ops")
    proof = report.proofs[0]
    other = "pat-none"
    forged = dataclasses.replace(proof, patient_id=other)
    with pytest.raises(CuratorError):
        cluster.verify_move_proof(forged)
    assert isinstance(proof, MigrationProof)


def test_shrink_drains_the_removed_shards(config, clock):
    cluster = build(config, clock)
    cluster.rebalance(target_shards=4, actor_id="ops")
    clock.advance(5.0)
    report = cluster.rebalance(target_shards=2, actor_id="ops")
    assert cluster.shard_ids == ("shard-00", "shard-01")
    assert report.removed == ("shard-03", "shard-02") or set(
        report.removed
    ) == {"shard-02", "shard-03"}
    seen = {}
    for slot in range(cluster.shard_count):
        for patient_id in cluster.shards[slot].patient_ids():
            assert patient_id not in seen
            seen[patient_id] = slot
    assert sorted(seen) == sorted(PATIENTS)
    for n in range(len(PATIENTS)):
        assert cluster.read(f"rec-{n:03d}", actor_id="dr-cluster")
    assert cluster.verify_integrity().ok
    assert cluster.verify_audit_trail().ok


def test_full_history_survives_the_move(config, clock):
    cluster = build(config, clock)
    moves = displaced_by_grow(cluster)
    patient_id = next(iter(moves))
    record_id = f"rec-{PATIENTS.index(patient_id):03d}"
    original = cluster.read(record_id, actor_id="dr-cluster")
    corrected = dataclasses.replace(
        original, body={**original.body, "text": "amended after review"}
    )
    cluster.correct(corrected, author_id="dr-cluster", reason="review")
    cluster.attach(
        record_id, "scan-1", b"\x89PNG not really",
        content_type="image/png", actor_id="dr-cluster",
    )
    cluster.place_hold(record_id, "case-11", actor_id="po-1")
    disclosures_before = len(
        cluster.accounting_of_disclosures(patient_id, actor_id="po-1")
    )
    cluster.rebalance(target_shards=4, actor_id="ops")

    assert cluster.version_count(record_id) == 2
    assert cluster.read_version(record_id, 0, actor_id="dr-cluster") == original
    assert (
        cluster.read_attachment(record_id, "scan-1", actor_id="dr-cluster")
        == b"\x89PNG not really"
    )
    # the litigation hold crossed shards: disposal still refuses, and
    # releasing the migrated hold succeeds (an unknown hold would raise)
    with pytest.raises(RetentionError):
        cluster.dispose(record_id, actor_id="po-1")
    cluster.release_hold(record_id, "case-11", actor_id="po-1")
    disclosures_after = len(
        cluster.accounting_of_disclosures(patient_id, actor_id="po-1")
    )
    assert disclosures_after >= disclosures_before > 0


def test_a_read_served_mid_move_reaches_the_accounting_after_a_restart(
    config, clock
):
    """A read the source serves between export and cutover is in the
    cutover tail the destination adopts, so the patient's accounting of
    disclosures lists it after the move and after the destination
    restarts from its surviving images."""
    cluster = build(config, clock)
    patient_id = next(iter(displaced_by_grow(cluster)))
    record_id = f"rec-{PATIENTS.index(patient_id):03d}"
    cluster.register_user(
        User.make("dr-mid", "Dr Mid", [Role.PHYSICIAN], treating={patient_id})
    )

    def read_mid_move(stage, moving):
        if stage == "verify" and moving == patient_id:
            cluster.read(record_id, actor_id="dr-mid")

    cluster.rebalance(target_shards=4, actor_id="ops", hook=read_mid_move)

    def mid_move_reads(surface):
        return [
            event
            for event in surface.accounting_of_disclosures(patient_id, actor_id="po-1")
            if event.actor_id == "dr-mid" and event.action.value == "record_read"
        ]

    assert [event.subject_id for event in mid_move_reads(cluster)] == [record_id]
    restarted = CuratorCluster.recover_from_devices(
        config,
        cluster.manifest,
        {
            shard_id: {name: surviving_image(device) for name, device in devices.items()}
            for shard_id, devices in cluster.device_sets().items()
        },
    )
    # the workforce is process memory: the privacy officer re-enrols
    restarted.register_user(
        User.make("po-1", "Privacy Officer", [Role.PRIVACY_OFFICER])
    )
    assert [event.subject_id for event in mid_move_reads(restarted)] == [record_id]


def test_consent_directives_survive_the_move(config, clock):
    cluster = build(config, clock)
    moves = displaced_by_grow(cluster)
    patient_id = next(iter(moves))
    record_id = f"rec-{PATIENTS.index(patient_id):03d}"
    home = cluster.shards[cluster.shard_for(patient_id)]
    home.consent.add_directive(
        patient_id,
        ConsentDirective(
            "d-rb", blocked_roles=frozenset({Role.PRIVACY_OFFICER})
        ),
    )
    cluster.rebalance(target_shards=4, actor_id="ops")
    with pytest.raises(ConsentError):
        cluster.read(record_id, actor_id="po-1")
    assert cluster.read(record_id, actor_id="dr-cluster")


def test_the_source_keeps_no_consent_directive_of_a_moved_patient(config, clock):
    cluster = build(config, clock)
    patient_id = next(iter(displaced_by_grow(cluster)))
    source = cluster.shards[cluster.shard_for(patient_id)]
    source.consent.add_directive(patient_id, ConsentDirective("d-left"))
    cluster.rebalance(target_shards=4, actor_id="ops")
    assert cluster.shards[cluster.shard_for(patient_id)] is not source
    assert source.consent.directives_for(patient_id) == []


def test_a_directive_revoked_after_a_move_stays_revoked_on_return(config, clock):
    cluster = build(config, clock)
    patient_id = next(iter(displaced_by_grow(cluster)))
    record_id = f"rec-{PATIENTS.index(patient_id):03d}"
    source = cluster.shards[cluster.shard_for(patient_id)]
    source.consent.add_directive(
        patient_id,
        ConsentDirective("d-rb", blocked_roles=frozenset({Role.PRIVACY_OFFICER})),
    )
    cluster.rebalance(target_shards=4, actor_id="ops")
    cluster.shards[cluster.shard_for(patient_id)].consent.revoke_directive(
        patient_id, "d-rb"
    )
    clock.advance(5.0)
    cluster.rebalance(target_shards=2, actor_id="ops")
    assert cluster.shards[cluster.shard_for(patient_id)] is source
    assert cluster.read(record_id, actor_id="po-1")


def test_a_live_break_glass_grant_follows_its_patient(config, clock):
    """The grant is the patient's, not the shard's: it keeps authorizing
    after a grow displaces the patient, keeps its id, expiry and review
    deadline, and can still be revoked after a shrink has dropped the
    shard that issued it."""
    cluster = build(config, clock)
    cluster.register_user(User.make("dr-er", "ER Doc", [Role.PHYSICIAN]))
    patient_id = next(iter(displaced_by_grow(cluster)))
    record_id = f"rec-{PATIENTS.index(patient_id):03d}"
    grant = cluster.break_glass("dr-er", patient_id, "unresponsive arrival")
    assert cluster.read(record_id, actor_id="dr-er")

    cluster.rebalance(target_shards=4, actor_id="ops")
    assert cluster.read(record_id, actor_id="dr-er")
    home = cluster.shards[cluster.shard_for(patient_id)]
    assert grant in home.breakglass.grants()
    # ... and no longer on the books of the shard it left
    assert sum(grant in shard.breakglass.grants() for shard in cluster.shards) == 1

    clock.advance(5.0)
    cluster.rebalance(target_shards=1, actor_id="ops")
    assert cluster.read(record_id, actor_id="dr-er")
    assert cluster.revoke_break_glass(grant.grant_id).grant_id == grant.grant_id
    with pytest.raises(AccessDeniedError):
        cluster.read(record_id, actor_id="dr-er")


def test_grants_issued_on_different_shards_never_share_an_id(config, clock):
    cluster = build(config, clock)
    cluster.register_user(User.make("dr-er", "ER Doc", [Role.PHYSICIAN]))
    by_shard = {cluster.shard_for(p): p for p in PATIENTS}
    assert len(by_shard) == 2
    grants = [
        cluster.break_glass("dr-er", patient_id, "unresponsive arrival")
        for patient_id in by_shard.values()
    ]
    assert len({grant.grant_id for grant in grants}) == 2
    # each revocation reaches its own patient's grant
    for grant in grants:
        assert cluster.revoke_break_glass(grant.grant_id).patient_id == grant.patient_id


def test_a_record_id_names_one_patient_for_good(config, clock):
    """One engine refuses a second store under a used record id; across
    shards only the router's record table can."""
    cluster = build(config, clock)
    other = next(
        p for p in PATIENTS if cluster.shard_for(p) != cluster.shard_for(PATIENTS[0])
    )
    with pytest.raises(RecordError):
        cluster.store(make_note("rec-000", other, clock.now()), "dr-cluster")
    with pytest.raises(RecordError):
        cluster.store_many([make_note("rec-000", other, clock.now())], "dr-cluster")
    assert cluster.shard_of_record("rec-000") == cluster.shard_for(PATIENTS[0])


def test_explicit_add_and_remove_shards(config, clock):
    cluster = build(config, clock)
    report = cluster.rebalance(add=("shard-aux",), actor_id="ops")
    assert report.added == ("shard-aux",)
    assert "shard-aux" in cluster.shard_ids
    clock.advance(5.0)
    report = cluster.rebalance(remove=("shard-aux",), actor_id="ops")
    assert report.removed == ("shard-aux",)
    assert "shard-aux" not in cluster.shard_ids
    assert cluster.verify_integrity().ok


def test_writes_land_correctly_after_the_grow(config, clock):
    cluster = build(config, clock)
    cluster.rebalance(target_shards=4, actor_id="ops")
    cluster.store(make_note("rec-new", "pat-new", clock.now()), "dr-cluster")
    slot = cluster.shard_for("pat-new")
    assert "rec-new" in cluster.shards[slot].records_of_patient("pat-new")
    assert cluster.read("rec-new", actor_id="dr-cluster")


def test_recover_interrupted_moves_is_a_noop_when_idle(config, clock):
    cluster = build(config, clock)
    assert cluster.recover_interrupted_moves() == []
    cluster.rebalance(target_shards=4, actor_id="ops")
    assert cluster.recover_interrupted_moves() == []
