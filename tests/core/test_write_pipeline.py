"""The fast write path: batched ingest, read LRU, cache-vs-shred.

The performance machinery must be *invisible* to every security
property: there is one write path (``store(r)`` is ``store_many([r])``),
so N batches of one and one batch of N must leave the same audit chain
(to the byte); the read cache must never serve a disposed or superseded
version, and no cache may outlive a shredded key.  These tests attack
exactly those seams.
"""

from collections import Counter

import pytest

from repro.audit.events import AuditAction
from repro.core import CuratorConfig, CuratorStore
from repro.errors import (
    AccessDeniedError,
    AuditError,
    RecordError,
    RecordNotFoundError,
)
from repro.index.tokenizer import unique_terms
from repro.index.trustworthy import CHUNK_CAPACITY
from repro.records.model import ClinicalNote, HealthRecord
from repro.util.clock import SimulatedClock
from repro.util.metrics import METRICS
from repro.workload.generator import WorkloadGenerator

MASTER = bytes(range(32))


def make_store(**overrides):
    clock = SimulatedClock(start=1.17e9)
    store = CuratorStore(CuratorConfig(master_key=MASTER, clock=clock, **overrides))
    return store, clock


def make_note(record_id="rec-1", text="biopsy shows metastatic carcinoma"):
    return ClinicalNote.create(
        record_id=record_id,
        patient_id="pat-1",
        created_at=100.0,
        author="dr-a",
        specialty="oncology",
        text=text,
    )


def _workload(n):
    """One deterministic record stream, shared by both ingest paths."""
    clock = SimulatedClock(start=1.17e9)
    generator = WorkloadGenerator(2007, clock)
    generator.create_population(10)
    return [g.record for g in generator.mixed_stream(n)]


# ---------------------------------------------------------------------------
# store_many == N x store, to the byte
# ---------------------------------------------------------------------------


def test_store_many_matches_looped_audit_chain_exactly():
    # 70 records crosses the anchor_every_events=64 boundary, so the
    # mid-batch ANCHOR_PUBLISHED event must also land identically.
    records = _workload(70)
    looped, _ = make_store()
    for record in records:
        looped.store(record, "dr-batch")
    batched, _ = make_store()
    assert batched.store_many(records, "dr-batch") == len(records)

    assert looped.audit_log.head_digest == batched.audit_log.head_digest
    assert [e.to_dict() for e in looped.audit_log.events()] == [
        e.to_dict() for e in batched.audit_log.events()
    ]
    # Even the *persisted* audit bytes are identical: 70 commits of one
    # frame and one commit of 70 frames put the same bytes on the device.
    assert looped.audit_log.device.raw_dump() == batched.audit_log.device.raw_dump()
    assert any(
        e.action == AuditAction.ANCHOR_PUBLISHED for e in batched.audit_log.events()
    )


def test_store_many_matches_looped_index_state():
    records = _workload(40)
    looped, _ = make_store()
    for record in records:
        looped.store(record, "dr-batch")
    batched, _ = make_store()
    batched.store_many(records, "dr-batch")

    assert looped.record_ids() == batched.record_ids()
    # Same logical index: every term that hits in one hits identically
    # in the other, and both indexes authenticate cleanly.
    probe_terms = set()
    for record in records:
        probe_terms.update(record.searchable_text().split()[:3])
    for term in sorted(probe_terms):
        assert looped.search(term, actor_id="dr-batch") == batched.search(
            term, actor_id="dr-batch"
        ), term
    assert batched.index.verify() == []
    assert len(batched.index) == len(records)


def test_store_many_security_properties_hold():
    records = _workload(30)
    store, _ = make_store()
    store.store_many(records, "dr-batch")
    assert store.verify_audit_trail().ok
    assert store.verify_integrity().ok
    assert store.audit_log.verify_chain().ok
    # every record readable and correct
    for record in records:
        assert store.read(record.record_id, actor_id="dr-batch") == record


def test_store_many_amortizes_journal_flushes():
    records = _workload(20)
    looped, _ = make_store()
    for record in records:
        looped.store(record, "dr-batch")
    batched, _ = make_store()
    batched.store_many(records, "dr-batch")
    looped_flushes = (
        looped.audit_log._journal.flush_count  # noqa: SLF001
        + looped.index._journal.flush_count  # noqa: SLF001
    )
    batched_flushes = (
        batched.audit_log._journal.flush_count  # noqa: SLF001
        + batched.index._journal.flush_count  # noqa: SLF001
    )
    assert batched_flushes < looped_flushes / 3


def test_store_many_validation_is_atomic():
    store, _ = make_store()
    good = make_note("rec-ok")
    dup = make_note("rec-ok", text="duplicate id in same batch")
    with pytest.raises(RecordError, match="duplicated"):
        store.store_many([good, dup], "dr-a")
    # nothing stored, nothing audited, no key minted
    assert store.record_ids() == []
    assert len(store.audit_log) == 0
    store.store(good, "dr-a")  # id still free

    with pytest.raises(RecordError, match="already exists"):
        store.store_many([make_note("rec-ok")], "dr-a")
    assert not store.audit_log.in_batch  # batch closed on the error path


def test_store_many_empty_batch_is_noop():
    store, _ = make_store()
    assert store.store_many([], "dr-a") == 0
    assert len(store.audit_log) == 0


def test_audit_batch_cannot_nest():
    store, _ = make_store()
    store.audit_log.begin_batch()
    with pytest.raises(AuditError, match="already open"):
        store.audit_log.begin_batch()
    assert store.audit_log.commit() == 0


# ---------------------------------------------------------------------------
# store(r) IS store_many([r]): one write path, three device writes plus
# one when a posting list folds
# ---------------------------------------------------------------------------


def _device_writes(store):
    return {device.device_id: device.stats.writes for device in store.devices()}


def test_store_and_store_many_of_one_are_the_same_write():
    note = make_note()
    single, _ = make_store()
    batched, _ = make_store()
    single.store(note, "dr-a")
    assert batched.store_many([note], "dr-a") == 1

    assert single.audit_log.head_digest == batched.audit_log.head_digest
    assert single.audit_log.device.raw_dump() == batched.audit_log.device.raw_dump()
    assert _device_writes(single) == _device_writes(batched)
    # nonces are random, so index and WORM bytes differ — their shape may not
    extents = [
        {
            trapdoor: [(e.journal_sequence, e.device_offset, e.size) for e in chain]
            for trapdoor, chain in store.index.chunk_extents().items()
        }
        for store in (single, batched)
    ]
    assert extents[0] == extents[1]
    # one note folds no list: its postings are pending, in memory
    assert single.index.device.used == batched.index.device.used == 0
    assert single.index.search("carcinoma") == batched.index.search("carcinoma") == ["rec-1"]
    object_id = "rec-1@v0"
    assert single.worm.physical_extent(object_id) == batched.worm.physical_extent(
        object_id
    )
    for store in (single, batched):
        origin = store.custody.chain_for(object_id).events()[0]
        assert origin.signed.leaf_count == 1
        assert store.read("rec-1", actor_id="dr-a") == note
        assert store.verify_integrity().ok and store.verify_audit_trail().ok


def test_every_store_is_three_device_writes_plus_one_per_fold():
    """Escrow, WORM, audit — and the index only when one of the
    record's posting lists reaches a multiple of CHUNK_CAPACITY ids and
    folds: a count, not a timing.  Even a store that falls on an anchor:
    nothing is pending when the anchor is cut (every earlier event is
    already durable), and its ANCHOR_PUBLISHED frame rides the same
    audit flush as the RECORD_CREATED behind it."""
    store, _ = make_store()
    expected = {
        store.worm.device.device_id: 1,
        store.audit_log.device.device_id: 1,
        store._keystore.device.device_id: 1,  # noqa: SLF001
    }
    posted: Counter[str] = Counter()
    folds = 0
    for record in _workload(200):
        terms = unique_terms(record.searchable_text())
        posted.update(terms)
        fold = any(posted[term] % CHUNK_CAPACITY == 0 for term in terms)
        folds += fold
        before = _device_writes(store)
        store.store(record, "dr-batch")
        after = _device_writes(store)
        delta = {name: after[name] - before[name] for name in after}
        assert {name: n for name, n in delta.items() if n} == (
            {**expected, store.index.device.device_id: 1} if fold else expected
        ), record.record_id
    assert 0 < folds < 200 / 4
    anchors = sum(
        e.action == AuditAction.ANCHOR_PUBLISHED for e in store.audit_log.events()
    )
    assert anchors == 200 // 64
    assert store.verify_audit_trail().ok


def test_a_tampered_single_store_origin_is_the_only_custody_finding():
    import dataclasses

    from repro.compliance.operations import operational_findings

    store, _ = make_store()
    for n in range(3):
        store.store(make_note(f"rec-{n}"), "dr-a")
    assert store.custody.verify_all() == {}
    chain = store.custody.chain_for("rec-1@v0")
    origin = chain._events[0]  # noqa: SLF001
    chain._events[0] = dataclasses.replace(  # noqa: SLF001
        origin,
        signed=dataclasses.replace(
            origin.signed, payload={**origin.signed.payload, "reason": "edited"}
        ),
    )
    assert list(store.custody.verify_all()) == ["rec-1@v0"]
    findings = [f for f in operational_findings(store) if f.area == "provenance"]
    assert len(findings) == 1 and "['rec-1@v0']" in findings[0].message


# ---------------------------------------------------------------------------
# read LRU: purges on every state change that invalidates plaintext
# ---------------------------------------------------------------------------


def test_read_cache_serves_hits_and_still_audits():
    store, _ = make_store()
    note = make_note()
    store.store(note, author_id="dr-a")
    METRICS.reset()
    assert store.read("rec-1", actor_id="dr-a") == note
    events_before = len(store.audit_log)
    assert store.read("rec-1", actor_id="dr-a") == note
    assert METRICS.get("read_cache_hits") == 1
    # the cached read is still fully audited (grant + read events)
    reads = [
        e for e in store.audit_log.events()[events_before:]
        if e.action == AuditAction.RECORD_READ
    ]
    assert len(reads) == 1


def test_read_cache_never_serves_superseded_version():
    store, _ = make_store()
    note = make_note()
    store.store(note, author_id="dr-a")
    store.read("rec-1", actor_id="dr-a")  # cache v0
    corrected = HealthRecord(
        record_id="rec-1",
        record_type=note.record_type,
        patient_id="pat-1",
        created_at=100.0,
        body={**note.body, "text": "amended: margins clear"},
    )
    store.correct(corrected, author_id="dr-a", reason="pathology addendum")
    got = store.read("rec-1", actor_id="dr-a")
    assert got == corrected
    assert got.body["text"] == "amended: margins clear"


def test_read_cache_never_serves_disposed_record():
    store, clock = make_store()
    store.store(make_note(), author_id="dr-a")
    store.read("rec-1", actor_id="dr-a")  # pin plaintext in the LRU
    clock.advance_years(8)
    store.dispose("rec-1", actor_id="records-manager")
    # the attack: a cached copy surviving disposal would defeat key
    # shredding — the read path must refuse, and the cache must be empty
    with pytest.raises(RecordNotFoundError):
        store.read("rec-1", actor_id="dr-a")
    assert "rec-1" not in store._dir.read_cache  # noqa: SLF001


def test_read_cache_disabled_by_config():
    store, _ = make_store(read_cache_size=0)
    note = make_note()
    store.store(note, author_id="dr-a")
    METRICS.reset()
    store.read("rec-1", actor_id="dr-a")
    store.read("rec-1", actor_id="dr-a")
    assert METRICS.get("read_cache_hits") == 0
    assert len(store._dir.read_cache) == 0  # noqa: SLF001


def test_read_cache_evicts_least_recent():
    store, _ = make_store(read_cache_size=2)
    for i in range(3):
        store.store(make_note(f"rec-{i}"), author_id="dr-a")
        store.read(f"rec-{i}", actor_id="dr-a")
    assert "rec-0" not in store._dir.read_cache  # noqa: SLF001
    assert {"rec-1", "rec-2"} <= set(store._dir.read_cache)  # noqa: SLF001


# ---------------------------------------------------------------------------
# break-glass revocation purges the cache
# ---------------------------------------------------------------------------


def test_break_glass_revocation_cuts_access_and_purges_cache():
    from repro.access.principals import Role, User

    store, _ = make_store()
    store.store(make_note(), author_id="dr-a")
    store.register_user(User.make("dr-er", "ER", [Role.PHYSICIAN]))
    with pytest.raises(AccessDeniedError):
        store.read("rec-1", actor_id="dr-er")
    grant = store.break_glass("dr-er", "pat-1", "unconscious patient in ER")
    store.read("rec-1", actor_id="dr-er")  # emergency read caches plaintext
    assert "rec-1" in store._dir.read_cache  # noqa: SLF001

    store.revoke_break_glass(grant.grant_id)
    assert "rec-1" not in store._dir.read_cache  # noqa: SLF001
    with pytest.raises(AccessDeniedError):
        store.read("rec-1", actor_id="dr-er")
    # revocation is itself audited
    revocations = [
        e for e in store.audit_log.events()
        if e.action == AuditAction.EMERGENCY_ACCESS and e.detail.get("revoked")
    ]
    assert len(revocations) == 1


# ---------------------------------------------------------------------------
# shredded keys are unrecoverable through any cache
# ---------------------------------------------------------------------------


def test_disposal_leaves_no_cached_key_material():
    store, clock = make_store()
    store.store(make_note(), author_id="dr-a")
    handle = store._dir.keys["rec-1"]  # noqa: SLF001
    # warm the cipher memo
    store._keystore.cipher_for(handle)  # noqa: SLF001
    store.read("rec-1", actor_id="dr-a")
    clock.advance_years(8)
    store.dispose("rec-1", actor_id="records-manager")

    from repro.crypto.keys import ShreddedKeyError

    with pytest.raises(ShreddedKeyError):
        store._keystore.cipher_for(handle)  # noqa: SLF001
    assert handle.key_id not in store._keystore._cipher_cache  # noqa: SLF001


def test_shred_without_warm_memo_never_unwraps():
    """Shredding a key whose cipher was never memoized (or was evicted)
    destroys it without unwrapping it first — there is no derived
    material left anywhere that only the unwrapped key could find."""
    from repro.crypto.keys import KeyStore, ShreddedKeyError

    keystore = KeyStore(MASTER)
    handle = keystore.create_key(label="cold")
    cipher = keystore.cipher_for(handle)
    box = cipher.encrypt(b"protected health information")
    assert cipher.decrypt(box) == b"protected health information"
    # simulate memo eviction, then shred
    keystore._cipher_cache.clear()  # noqa: SLF001
    keystore.shred(handle)
    assert handle.key_id not in keystore._cipher_cache  # noqa: SLF001
    with pytest.raises(ShreddedKeyError):
        keystore.cipher_for(handle)
