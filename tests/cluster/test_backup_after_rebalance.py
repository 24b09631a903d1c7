"""A shard that received a migrated patient holds that patient's audit
segment as a keyless WORM object; backing the cluster up must not trip
over it."""

from repro.access.principals import Role, User
from repro.cluster import CuratorCluster

from tests.cluster.conftest import make_note


def test_create_backup_after_a_rebalance(config, clock):
    cluster = CuratorCluster(config, shards=2)
    cluster.register_user(User.make("ops", "Ops", [Role.SYSTEM_ADMIN]))
    for n in range(12):
        cluster.store(make_note(f"rec-{n:03d}", f"pat-{n}", clock.now()), "dr-cluster")
        clock.advance(1.0)
    report = cluster.rebalance(target_shards=3, actor_id="ops")
    assert report.moved > 0
    snapshots = cluster.create_backup(actor_id="ops")
    assert set(snapshots) == set(cluster.shard_ids)
    backed_up = [oid for snap in snapshots.values() for oid in snap.objects]
    assert sum(oid.startswith("~segment/") for oid in backed_up) == report.moved
    assert sum(len(snap.wrapped_keys) for snap in snapshots.values()) == 12
    cluster.close()
