"""A read-through recall does each piece of work once, with the same
checks.

The segment's Merkle tree is derived once per trusted manifest (a
manifest is frozen), so each recall's inclusion proof reads off it in
O(log^2 n) node hashes instead of rebuilding the tree from every member.
The read is served from the versions the recall verified and re-sealed,
not read back off the WORM device it just wrote.  The proof is still
checked: a root forged on the device before a restart is adopted with
the manifest, and every member it covers then fails its proof."""

import pytest

from repro.archive.segment import parse_segment, reforge_manifest
from repro.crypto import merkle
from repro.crypto.merkle import MerkleTree
from repro.errors import RecordNotFoundError
from repro.records.model import HealthRecord
from repro.storage.journal import HEADER_SIZE, Journal

from tests.core.test_swap_and_recovery import make_store, note, recover


def test_recalls_from_one_segment_build_no_tree_and_hash_a_proof(monkeypatch):
    store, clock, _ = make_store()
    store.store_many([note(f"rec-{n:03d}", "pat-1", clock) for n in range(128)], "dr-a")
    store.demote_records(store.record_ids())
    assert len(store.cold.segment_of("rec-000").manifest.members) == 128
    # count node hashes and leaf pushes inside the cold check only, so
    # the audit tree's appends for the same reads are not counted
    inside: list[dict[str, int]] = []
    checks: list[dict[str, int]] = []
    node_hash, push_leaf = merkle._node_hash, MerkleTree._push_leaf
    verify_sealed = store.cold.verify_sealed

    def counted_hash(left, right):
        if inside:
            inside[-1]["hashes"] += 1
        return node_hash(left, right)

    def counted_push(tree, digest):
        if inside:
            inside[-1]["leaves"] += 1
        return push_leaf(tree, digest)

    def counted_check(record_id, sealed):
        inside.append({"hashes": 0, "leaves": 0})
        try:
            verify_sealed(record_id, sealed)
        finally:
            checks.append(inside.pop())

    monkeypatch.setattr(merkle, "_node_hash", counted_hash)
    monkeypatch.setattr(MerkleTree, "_push_leaf", counted_push)
    monkeypatch.setattr(store.cold, "verify_sealed", counted_check)
    for record_id in ("rec-005", "rec-100"):
        assert store.read(record_id, actor_id="dr-a").record_id == record_id
    assert len(checks) == 2
    for check in checks:
        # rebuilding the 128-leaf tree alone is 127 node hashes
        assert check["leaves"] == 0
        assert check["hashes"] < 64


def test_a_recall_serves_what_a_later_warm_read_returns():
    store, clock, _ = make_store()
    store.store(note("rec-0", "pat-1", clock, "first entry"), "dr-a")
    store.store(note("rec-1", "pat-1", clock, "second entry"), "dr-a")
    current = store.read("rec-0", actor_id="dr-a")
    store.correct(
        HealthRecord(
            record_id="rec-0", record_type=current.record_type,
            patient_id=current.patient_id, created_at=clock.now(),
            body={**current.body, "text": "amended entry"},
        ),
        "dr-a", "amend",
    )
    before = [store.read_version("rec-0", n, actor_id="dr-a") for n in range(2)]
    store.demote_records(["rec-0", "rec-1"])
    # each read recalls its record and is served from what it verified
    recalled = [
        store.read_version("rec-0", 0, actor_id="dr-a"),
        store.read("rec-1", actor_id="dr-a"),
    ]
    assert store.cold_record_ids() == []
    for record_id in ("rec-0", "rec-1"):
        store._dir.purge(record_id)
    warm = [store.read_version("rec-0", n, actor_id="dr-a") for n in range(2)]
    assert warm == before
    assert recalled == [warm[0], store.read("rec-1", actor_id="dr-a")]
    assert recalled[1].body["text"] == "second entry"
    report = store.verify_integrity()
    assert report.ok and report.violations == []


def test_a_root_forged_before_a_restart_fails_every_member_it_covers():
    store, clock, config = make_store()
    for n in range(4):
        store.store(note(f"rec-{n}", "pat-1", clock, f"entry {n}"), "dr-a")
    store.demote_records(["rec-0", "rec-1", "rec-2"])
    # a refreshed medium carries no warm copy of a cold record: the cold
    # members are the only copies left
    store.refresh_media()
    segment = store.cold.segment_of("rec-1")
    payload = store.cold.device.raw_read(
        segment.frame_offset + HEADER_SIZE, segment.payload_length
    )
    forged = reforge_manifest(payload, lambda manifest: {**manifest, "merkle_root": bytes(32)})
    # every entry is intact; only the root the restart adopts is forged
    assert parse_segment(forged)[0].members == segment.manifest.members
    Journal.forge_frame(store.cold.device, segment.frame_offset, forged)
    recovered = recover(store, config)
    assert recovered.recovery_report.damaged == ("rec-0", "rec-1", "rec-2")
    with pytest.raises(RecordNotFoundError):
        recovered.read("rec-1", actor_id="system")
    assert recovered.read("rec-3", actor_id="system").body["text"] == "entry 3"
