"""E5 — secure deletion and media sanitization (HIPAA §164.310(d)(2)(i-ii)).

Paper claim: records must be disposed of trustworthily at the end of
retention, and media must be sanitized before re-use; naive deletion
leaves recoverable residue.  Expected shape: unconditional DELETE on the
relational baseline leaves the record recoverable from the journal; the
Curator disposition pipeline (key shred + extent overwrite + index
forgetting + coordinated backup shred) leaves nothing, at a measurable
but modest cost.  Ablation: key shredding without vault coordination
leaves backups readable.
"""

from benchmarks.common import MODEL_FACTORIES, print_table, seeded_model
from repro.threats.attacks import AttackOutcome, disposal_residue_scan
from repro.util.clock import SECONDS_PER_YEAR


def _phi_for(stored, record_id):
    for g in stored:
        if g.record.record_id == record_id:
            words = [w for w in g.record.searchable_text().split() if len(w) >= 6]
            return words[:3] or ["unfindable"]
    return ["unfindable"]


def test_e5_disposal_residue(benchmark):
    rows = []
    verdicts = {}
    for name in MODEL_FACTORIES:
        model, clock, generator, stored = seeded_model(name, n_records=15)
        target = stored[0].record.record_id
        phi = _phi_for(stored, target)
        if clock is not None:
            clock.advance(31 * SECONDS_PER_YEAR)
        result = disposal_residue_scan(model, target, phi)
        verdicts[name] = result.outcome
        rows.append([name, result.outcome.value, result.detail[:60]])
    print_table("E5 disposal residue scan", ["model", "outcome", "detail"], rows)

    assert verdicts["relational"] is AttackOutcome.UNDETECTED  # residue found
    assert verdicts["curator"] is AttackOutcome.PREVENTED  # residue-free

    def dispose_one():
        model, clock, generator, stored = seeded_model("curator", n_records=5)
        clock.advance(31 * SECONDS_PER_YEAR)
        model.dispose(stored[0].record.record_id, actor_id="records-manager")

    benchmark.pedantic(dispose_one, rounds=1, iterations=1)


def test_e5_ablation_epoch_drop_vs_per_document(benchmark):
    """Cohort expiry: dropping a whole index epoch vs securely deleting
    its documents one by one.  Long-retention archives expire in
    cohorts, so this is the operation that actually runs in year 30."""
    import time

    from repro.index.epochs import EpochedIndex
    from repro.workload.generator import WorkloadGenerator
    from benchmarks.common import new_clock

    MASTER = bytes(range(32))
    YEAR = 365.25 * 86400
    N_DOCS = 30

    def build():
        index = EpochedIndex(MASTER, epoch_seconds=YEAR)
        generator = WorkloadGenerator(55, new_clock())
        generator.create_population(10)
        doc_ids = []
        for i in range(N_DOCS):
            g = generator.note_record(phi_in_text_probability=0.0)
            index.add_document(g.record.record_id, g.record.body["text"], 0.5 * YEAR)
            doc_ids.append(g.record.record_id)
        return index, doc_ids

    index, doc_ids = build()
    start = time.perf_counter()
    for doc_id in doc_ids:
        index.delete_document(doc_id)
    per_doc_seconds = time.perf_counter() - start

    index, doc_ids = build()
    start = time.perf_counter()
    destroyed = index.drop_epoch(0)
    drop_seconds = time.perf_counter() - start
    assert destroyed == N_DOCS
    assert index.search("assessment") == []

    def drop():
        idx, _ = build()
        idx.drop_epoch(0)

    benchmark.pedantic(drop, rounds=1, iterations=1)
    print_table(
        f"E5 ablation: expiring a {N_DOCS}-document cohort",
        ["strategy", "seconds", "speedup"],
        [
            ["per-document secure deletion", f"{per_doc_seconds:8.3f}", "1.0x"],
            ["epoch drop (segmented index)", f"{drop_seconds:8.3f}",
             f"{per_doc_seconds / max(drop_seconds, 1e-9):6.0f}x"],
        ],
    )
    assert drop_seconds < per_doc_seconds


def test_e5_ablation_shred_vs_overwrite_cost(benchmark):
    """DESIGN §6 ablation: cryptographic deletion (key shred) is O(1) in
    record size; physical overwrite is O(size) × passes.  Both are used
    together in Curator (defense in depth); this quantifies why key
    shredding is the one that scales — and why overwrite-only deletion
    cannot reach backups at all."""
    import time

    from repro.crypto.keys import KeyStore
    from repro.storage.block import SCRUB_PASSES, MemoryDevice
    from repro.util.clock import SimulatedClock

    MASTER = bytes(range(32))
    ESCROW = 1 << 16  # every keystore escrows its wrapped keys to a device
    rows = []
    for size_kb in (16, 256, 2048):
        size = size_kb * 1024
        keystore = KeyStore(
            MASTER, clock=SimulatedClock(), device=MemoryDevice("keys", ESCROW)
        )
        handle = keystore.create_key()
        device = MemoryDevice("d", size + 1024)
        device.allocate(size)

        start = time.perf_counter()
        keystore.shred(handle)
        shred_seconds = time.perf_counter() - start

        start = time.perf_counter()
        device.scrub(0, size)
        overwrite_seconds = time.perf_counter() - start
        rows.append(
            [f"{size_kb} KiB", f"{shred_seconds * 1e6:8.1f}",
             f"{overwrite_seconds * 1e6:10.1f}",
             f"{overwrite_seconds / max(shred_seconds, 1e-9):8.0f}x"]
        )

    def shred_one():
        keystore = KeyStore(
            MASTER, clock=SimulatedClock(), device=MemoryDevice("keys", ESCROW)
        )
        handle = keystore.create_key()
        keystore.shred(handle)

    benchmark.pedantic(shred_one, rounds=10, iterations=1)
    print_table(
        f"E5 ablation: key shred (O(1)) vs {SCRUB_PASSES}-pass overwrite (O(n))",
        ["record size", "shred us", "overwrite us", "ratio"],
        rows,
    )


def test_e5_ablation_backup_coordination(benchmark):
    """Key shredding must reach the vault: primary-only shredding leaves
    historical backups decryptable (the classic compliance pitfall)."""
    from repro.backup.manager import BackupManager
    from repro.backup.vault import BackupVault
    from repro.crypto.aead import AeadCiphertext
    from repro.crypto.keys import KeyStore
    from repro.storage.block import MemoryDevice
    from repro.util.clock import SimulatedClock
    from repro.worm.store import WormStore

    MASTER = bytes(range(32))
    ESCROW = 1 << 16  # every keystore escrows its wrapped keys to a device

    def build():
        clock = SimulatedClock(start=0.0)
        keystore = KeyStore(MASTER, clock=clock, device=MemoryDevice("k", ESCROW))
        store = WormStore(device=MemoryDevice("p", 1 << 20), clock=clock)
        vault = BackupVault("offsite")
        manager = BackupManager(vault, clock=clock)
        handle = keystore.create_key()
        box = keystore.cipher_for(handle).encrypt(b"PHI: oncology biopsy result")
        store.put("rec-1", box.to_bytes())
        snapshot = manager.create_full(store, keystore, {"rec-1": handle})
        return clock, keystore, vault, manager, handle, snapshot

    benchmark.pedantic(build, rounds=1, iterations=1)

    # Uncoordinated: shred at primary only.
    clock, keystore, vault, manager, handle, snapshot = build()
    keystore.shred(handle)
    restored_keys = KeyStore(MASTER, clock=clock, device=MemoryDevice("k", ESCROW))
    target = WormStore(device=MemoryDevice("r1", 1 << 20), clock=clock)
    manager.restore(snapshot.snapshot_id, target, restored_keys)
    cipher = restored_keys.cipher_for(handle)  # key survived in backup
    plaintext = cipher.decrypt(AeadCiphertext.from_bytes(target.get("rec-1")))
    uncoordinated_readable = b"biopsy" in plaintext

    # Coordinated: shred at primary AND vault.
    clock, keystore, vault, manager, handle, snapshot = build()
    keystore.shred(handle)
    vault.shred_key(handle.key_id)
    restored_keys = KeyStore(MASTER, clock=clock, device=MemoryDevice("k", ESCROW))
    target = WormStore(device=MemoryDevice("r2", 1 << 20), clock=clock)
    report = manager.restore(snapshot.snapshot_id, target, restored_keys)
    coordinated_readable = report.keys_restored > 0

    print_table(
        "E5 ablation: key-shredding coordination",
        ["strategy", "disposed record readable from backup?"],
        [
            ["shred at primary only", "YES (violation)" if uncoordinated_readable else "no"],
            ["shred primary + vault", "YES (violation)" if coordinated_readable else "no"],
        ],
    )
    assert uncoordinated_readable
    assert not coordinated_readable
