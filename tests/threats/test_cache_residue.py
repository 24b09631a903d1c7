"""Attack test: no derived-material cache survives a dispose.

The raw-speed write path added several memos that hold (or can
regenerate) key-derived material: the ed25519 key-expansion memo, the
verifier's aggregated-signature root memo, the keystore's cipher memo
and the index's per-list cipher memo.  (The ChaCha20 kernel itself keeps
nothing between calls.)  A disposal that destroys a record's
key must leave NONE of them holding anything — otherwise an adversary
who gains process memory after the shred could still reconstruct
destroyed plaintext or resurrect signature state the shred was meant
to retire.
"""

from repro.core import CuratorConfig, CuratorStore
from repro.crypto.ed25519 import _KEY_MEMO, generate_ed25519_keypair
from repro.crypto.signatures import _ROOT_MEMO
from repro.index.trustworthy import CHUNK_CAPACITY
from repro.records.model import ClinicalNote
from repro.util.clock import SimulatedClock

MASTER = bytes(range(32))


def make_note(record_id):
    return ClinicalNote.create(
        record_id=record_id,
        patient_id="pat-1",
        created_at=100.0,
        author="dr-a",
        specialty="oncology",
        text="biopsy shows metastatic carcinoma",
    )


def make_ed25519_store():
    clock = SimulatedClock(start=1.17e9)
    keypair = generate_ed25519_keypair(seed=bytes(range(32)))
    store = CuratorStore(
        CuratorConfig(master_key=MASTER, clock=clock, signing_keypair=keypair)
    )
    return store, clock


def test_dispose_purges_every_derived_material_cache():
    store, clock = make_ed25519_store()
    store.store_many([make_note(f"rec-{i}") for i in range(4)], author_id="dr-a")

    # Populate every memo the fast path uses: signing filled the ed25519
    # key-expansion memo; verification fills the aggregate root memo;
    # reads warm the cipher memos.
    assert store.custody.verify_all() == {}
    store.read("rec-0", actor_id="dr-a")
    assert len(_KEY_MEMO) > 0
    assert len(_ROOT_MEMO) > 0

    clock.advance_years(8)  # clinical notes: 7-year schedule
    certificates = store.dispose("rec-0", actor_id="records-manager")
    assert certificates and certificates[0].shred_report.key_shredded

    # Nothing derived survives the dispose.
    assert len(_KEY_MEMO) == 0
    assert len(_ROOT_MEMO) == 0
    assert len(store._keystore._cipher_cache) == 0 or all(
        "rec-0" not in key_id for key_id in store._keystore._cipher_cache
    )


def test_no_cipher_memo_holds_the_destroyed_key_after_dispose():
    store, clock = make_ed25519_store()
    # enough notes that their shared lists fold: the index seals chunks
    # (and a search opens them) under its list ciphers
    store.store_many([make_note(f"rec-{i}") for i in range(CHUNK_CAPACITY)], author_id="dr-a")
    handle = store._dir.keys["rec-0"]
    # The data key's derived cipher is memoized from create_keys.
    destroyed = store._keystore.cipher_for(handle)
    key_material = {destroyed._enc_key, destroyed._mac_key}
    store.read("rec-0", actor_id="dr-a")
    store.search("carcinoma", actor_id="dr-a")  # warms the index's list ciphers

    clock.advance_years(8)
    store.dispose("rec-0", actor_id="records-manager")

    # The attack: scrape every cipher memo in the process for the
    # destroyed key's derived encryption and MAC keys.
    assert handle.key_id not in store._keystore._cipher_cache
    memos = [store._keystore._cipher_cache, store.index._cipher_cache]
    assert all(len(memo) > 0 for memo in memos)  # warm, so the scrape means something
    for memo in memos:
        for cipher in memo.values():
            assert cipher is not destroyed
            assert not key_material & {cipher._enc_key, cipher._mac_key}
