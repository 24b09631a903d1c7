"""Verifiable migration: manifests, loss/tamper/injection detection."""

import pytest

from repro.crypto.rsa import generate_keypair
from repro.crypto.signatures import Signer, TrustStore
from repro.errors import MigrationError
from repro.migration.engine import MigrationEngine
from repro.migration.manifest import build_manifest, verify_manifest
from repro.provenance.chain import CustodyRegistry
from repro.storage.block import MemoryDevice
from repro.util.clock import SimulatedClock
from repro.worm.retention_lock import RetentionTerm
from repro.worm.store import WormStore

KP_A = generate_keypair(768)
KP_B = generate_keypair(768)


def make_world(n_objects=5):
    clock = SimulatedClock(start=0.0)
    source = WormStore(device=MemoryDevice("src", 1 << 20), clock=clock)
    destination = WormStore(device=MemoryDevice("dst", 1 << 20), clock=clock)
    signer_a = Signer("site-A", keypair=KP_A)
    trust = TrustStore()
    trust.add(signer_a.verifier())
    for i in range(n_objects):
        source.put(f"obj-{i}", f"payload-{i}".encode(), retention=RetentionTerm(0.0, 1000.0))
    engine = MigrationEngine(trust, clock=clock)
    return clock, source, destination, signer_a, trust, engine


def test_manifest_commits_contents():
    clock, source, _, signer, trust, _ = make_world(3)
    manifest = build_manifest(source, signer, clock.now())
    verify_manifest(manifest, trust)
    assert manifest.object_count == 3
    assert manifest.object_ids() == ["obj-0", "obj-1", "obj-2"]


def test_manifest_digest_lookup():
    clock, source, _, signer, _, _ = make_world(2)
    manifest = build_manifest(source, signer, clock.now())
    assert len(manifest.digest_for("obj-0")) == 32
    with pytest.raises(MigrationError):
        manifest.digest_for("ghost")


def test_manifest_forgery_detected():
    import dataclasses

    clock, source, _, signer, trust, _ = make_world(2)
    manifest = build_manifest(source, signer, clock.now())
    forged = dataclasses.replace(
        manifest, entries=(("obj-0", bytes(32)), manifest.entries[1])
    )
    with pytest.raises(MigrationError):
        verify_manifest(forged, trust)


def test_clean_migration_succeeds():
    clock, source, destination, signer, _, engine = make_world(5)
    result = engine.migrate(source, destination, signer, "site-B")
    assert result.ok
    assert result.copied == 5
    for i in range(5):
        assert destination.get(f"obj-{i}") == f"payload-{i}".encode()


def test_retention_preserved_across_migration():
    clock, source, destination, signer, _, engine = make_world(1)
    engine.migrate(source, destination, signer, "site-B")
    term = destination.retention.term_for("obj-0")
    assert term.expires_at == 1000.0


def test_dropped_object_detected():
    clock, source, destination, signer, _, engine = make_world(5)

    def drop_obj2(object_id, data):
        return None if object_id == "obj-2" else data

    result = engine.migrate(source, destination, signer, "site-B", transit_hook=drop_obj2)
    assert not result.ok
    assert result.missing == ("obj-2",)


def test_corrupted_object_detected():
    clock, source, destination, signer, _, engine = make_world(5)

    def corrupt_obj1(object_id, data):
        return b"GARBAGE" if object_id == "obj-1" else data

    result = engine.migrate(source, destination, signer, "site-B", transit_hook=corrupt_obj1)
    assert not result.ok
    assert result.corrupted == ("obj-1",)


def test_injected_object_detected():
    clock, source, destination, signer, _, engine = make_world(2)
    destination.put("smuggled", b"not in the manifest")
    result = engine.migrate(source, destination, signer, "site-B")
    assert not result.ok
    assert result.unexpected == ("smuggled",)


def test_custody_transfers_only_on_success():
    clock, source, destination, signer, trust, _ = make_world(2)
    registry = CustodyRegistry(trust)
    registry.register_custodian(signer)
    for object_id in source.object_ids():
        registry.record_origin(
            object_id, signer, source.metadata(object_id).content_digest, 0.0
        )
    engine = MigrationEngine(trust, clock=clock, custody=registry)
    result = engine.migrate(source, destination, signer, "site-B")
    assert result.ok
    for object_id in source.object_ids():
        assert registry.chain_for(object_id).current_custodian() == "site-B"


def test_custody_not_transferred_on_failure():
    clock, source, destination, signer, trust, _ = make_world(2)
    registry = CustodyRegistry(trust)
    registry.register_custodian(signer)
    for object_id in source.object_ids():
        registry.record_origin(
            object_id, signer, source.metadata(object_id).content_digest, 0.0
        )
    engine = MigrationEngine(trust, clock=clock, custody=registry)
    result = engine.migrate(
        source, destination, signer, "site-B",
        transit_hook=lambda oid, d: None if oid == "obj-0" else d,
    )
    assert not result.ok
    for object_id in source.object_ids():
        assert registry.chain_for(object_id).current_custodian() == "site-A"


def test_chained_migration_multiple_hops():
    clock, source, _, signer_a, trust, _ = make_world(3)
    signer_b = Signer("site-B", keypair=KP_B)
    trust.add(signer_b.verifier())
    store_b = WormStore(device=MemoryDevice("b", 1 << 20), clock=clock)
    store_c = WormStore(device=MemoryDevice("c", 1 << 20), clock=clock)
    engine = MigrationEngine(trust, clock=clock)
    results = engine.chained_migration(
        [(source, signer_a, "site-A"), (store_b, signer_b, "site-B"), (store_c, None, "site-C")][:2]
        + [(store_c, None, "site-C")]
    )
    assert len(results) == 2
    assert all(r.ok for r in results)
    assert store_c.get("obj-0") == b"payload-0"


def test_chained_migration_needs_two_stores():
    clock, source, _, signer, trust, engine = make_world(1)
    with pytest.raises(MigrationError):
        engine.chained_migration([(source, signer, "site-A")])


def test_chained_migration_stops_at_failed_hop():
    clock, source, _, signer_a, trust, _ = make_world(2)
    signer_b = Signer("site-B", keypair=KP_B)
    trust.add(signer_b.verifier())
    store_b = WormStore(device=MemoryDevice("b", 1 << 20), clock=clock)
    store_c = WormStore(device=MemoryDevice("c", 1 << 20), clock=clock)
    engine = MigrationEngine(trust, clock=clock)

    calls = {"n": 0}

    def fail_second_hop(object_id, data):
        # First hop copies 2 objects cleanly; drop everything afterwards.
        calls["n"] += 1
        return data if calls["n"] <= 2 else None

    results = engine.chained_migration(
        [(source, signer_a, "site-A"), (store_b, signer_b, "site-B"), (store_c, None, "site-C")],
        transit_hook=fail_second_hop,
    )
    assert len(results) == 2
    assert results[0].ok
    assert not results[1].ok


def test_migration_visits_each_manifest_entry_a_bounded_number_of_times(monkeypatch):
    """Verification and the custody loop look digests up in one mapping:
    a migration of n objects visits O(n) manifest entries, not O(n^2)."""
    import dataclasses

    from repro.migration import engine as migration_engine

    n = 2_000
    clock, source, destination, signer, trust, _ = make_world(n)
    registry = CustodyRegistry(trust)
    registry.register_custodian(signer)
    for object_id in source.object_ids():
        registry.record_origin(
            object_id, signer, source.metadata(object_id).content_digest, 0.0
        )
    engine = MigrationEngine(trust, clock=clock, custody=registry)
    visits = 0

    class CountedEntries(tuple):
        def __iter__(self):
            nonlocal visits
            for entry in super().__iter__():
                visits += 1
                yield entry

    build = migration_engine.build_manifest

    def counted_manifest(*args):
        manifest = build(*args)
        entries = CountedEntries(manifest.entries)
        return dataclasses.replace(manifest, entries=entries)

    monkeypatch.setattr(migration_engine, "build_manifest", counted_manifest)
    assert engine.migrate(source, destination, signer, "site-B").ok
    assert visits <= 8 * n
