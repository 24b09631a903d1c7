"""The cross-shard detection-equivalence oracle: sharding must lose no
detection power.  Every raw-device tamper from the single-engine oracle
is re-planted on each shard of a live cluster and must surface through
the cluster's merged fan-out verification."""

from repro.verify import (
    run_cluster_detection_equivalence,
    run_rebalance_detection_equivalence,
)


def test_cluster_detection_equivalence_holds():
    report = run_cluster_detection_equivalence()
    assert report.ok, report.summary()
    # one clean control + every tamper case against each target shard
    assert len(report.cases) == 1 + 2 * 14
    control = next(c for c in report.cases if c.name.endswith("no_tamper_control"))
    assert not control.tampered
    shard_names = {case.name.split(":")[0] for case in report.cases}
    assert {"shard-00", "shard-01"} <= shard_names
    exact_blame_suffixes = (
        "worm_dirty_object_rot",  # written alone by store()
        "worm_clean_object_rot",  # likewise, and already swept clean
        "worm_batch_member_rot",
        "cold_segment_body_rot",
        "cold_manifest_rot",
        "cold_recall_truncation",
    )
    for suffix in exact_blame_suffixes:
        cases = [c for c in report.cases if c.name.endswith(suffix)]
        assert len(cases) == 2
        for case in cases:
            # the merged fan-out report implicated exactly the tampered
            # member on the attacked shard — no sibling smear across shards
            assert case.tampered
            assert case.flagged == (case.expected_flag,)
    for suffix in ("index_chunk_rot", "index_tail_rollback"):
        for case in (c for c in report.cases if c.name.endswith(suffix)):
            # blame carries the shard label: the attacked shard's index,
            # and no other shard's, from the incremental and the full pass
            attacked = case.name.split(":")[0]
            assert case.tampered and case.caught_by == "incremental"
            assert case.flagged == (f"{attacked}:<index>",)


def test_rebalance_detection_equivalence_holds():
    """Tamper staged around an online elastic rebalance: mid-move rot
    aborts or is blamed on the source, post-move rot is blamed on the
    destination, and extents the move retired draw no blame at all."""
    report = run_rebalance_detection_equivalence()
    assert report.ok, report.summary()
    by_name = {case.name: case for case in report.cases}
    assert len(by_name) == 5
    mid = by_name["rebalance:mid_move_source_rot"]
    assert mid.tampered and mid.flagged == (mid.expected_flag,)
    post = by_name["rebalance:post_move_dest_rot"]
    assert post.tampered and post.flagged == (post.expected_flag,)
    # blame followed the patient: source shard pre-salvage, new home after
    assert mid.expected_flag.split(":")[0] != post.expected_flag.split(":")[0]
    abort = by_name["rebalance:mid_move_dest_tamper_aborts"]
    assert abort.tampered and abort.caught_by == "migration-verify"
    stale = by_name["rebalance:stale_source_rot"]
    assert stale.flagged == ()
