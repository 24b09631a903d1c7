"""The cross-shard detection-equivalence oracle: sharding must lose no
detection power.  Every raw-device tamper from the single-engine oracle
is re-planted on each shard of a live cluster and must surface through
the cluster's merged fan-out verification.  Both tests read their rows
from the session's one run of the scenario table."""

from repro.verify.equivalence import TAMPERS

SHARDS = ("shard-00", "shard-01")


def test_cluster_detection_equivalence_holds(scenario_table):
    by_name = {case.name: case for case in scenario_table.cases}
    fresh = {
        name: case
        for name, case in by_name.items()
        if name.startswith(tuple(f"{shard}/fresh/" for shard in SHARDS))
    }
    assert not [case for case in fresh.values() if case.violation]
    # a clean control + every tamper but the move's against each target shard
    for shard in SHARDS:
        tampers = {name.split("/")[2] for name in fresh if name.startswith(shard)}
        assert tampers == {t.name for t in TAMPERS} - {"stale_source_rot"}
        assert not by_name[f"{shard}/fresh/no_tamper_control"].tampered
    exact_blame_tampers = (
        "worm_dirty_object_rot",  # written alone by store()
        "worm_clean_object_rot",  # likewise, and already swept clean
        "worm_batch_member_rot",
        "worm_batch_member_decay",  # frame checksum left broken
        "cold_segment_body_rot",
        "cold_manifest_rot",
        "cold_recall_truncation",
    )
    for shard in SHARDS:
        for tamper in exact_blame_tampers:
            case = by_name[f"{shard}/fresh/{tamper}"]
            # the merged fan-out report implicated exactly the tampered
            # member on the attacked shard — no sibling smear across shards
            assert case.tampered
            assert case.flagged == (case.expected_flag,)
            assert case.expected_flag.startswith(f"{shard}:")
        for tamper in ("index_chunk_rot", "index_tail_rollback"):
            case = by_name[f"{shard}/fresh/{tamper}"]
            # blame carries the shard label: the attacked shard's index,
            # and no other shard's, from the incremental and the full pass
            assert case.tampered and case.caught_by == "incremental"
            assert case.flagged == (f"{shard}:<index>",)


def test_rebalance_detection_equivalence_holds(scenario_table):
    """Tamper staged around an online elastic rebalance: mid-move rot
    aborts or is blamed on the source, post-move rot is blamed on the
    destination, and extents the move retired draw no blame at all."""
    by_name = {case.name: case for case in scenario_table.cases}
    control = by_name["shard-00/grown/no_tamper_control"]
    mid = by_name["shard-00/crashed_move/worm_clean_object_rot"]
    post = by_name["shard-00/grown/worm_clean_object_rot"]
    abort = by_name["shard-00/rotted_arrival/worm_clean_object_rot"]
    stale = by_name["shard-00/grown/stale_source_rot"]
    for case in (control, mid, post, abort, stale):
        assert not case.violation, case
    assert mid.tampered and mid.flagged == (mid.expected_flag,)
    assert post.tampered and post.flagged == (post.expected_flag,)
    # blame followed the patient: source shard pre-salvage, new home after
    assert mid.expected_flag.split(":")[0] != post.expected_flag.split(":")[0]
    assert abort.tampered and abort.caught_by == "migration-verify"
    assert stale.flagged == ()
