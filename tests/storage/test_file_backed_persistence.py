"""File-backed devices end to end: state survives handle re-open.

The simulated substrate's durability claim: everything the stack writes
goes through the device, so reopening the backing file reconstructs the
store — and the file holds only what the adversary would see (for the
Curator-style encrypted layers: ciphertext).
"""

import pytest

from repro.audit.events import AuditAction
from repro.audit.log import AuditLog
from repro.crypto.aead import AeadCipher
from repro.storage.block import FileBackedDevice
from repro.storage.journal import Journal
from repro.util.clock import SimulatedClock
from repro.worm.store import WormStore

MASTER = bytes(range(32))
CAPACITY = 1 << 18


def test_journal_survives_reopen(tmp_path):
    path = str(tmp_path / "journal.img")
    device = FileBackedDevice("fj", CAPACITY, path)
    journal = Journal(device)
    for i in range(6):
        journal.append(f"entry-{i}".encode())

    reopened = FileBackedDevice("fj", CAPACITY, path)
    reopened.reset_allocation(device.used)  # simulate superblock bookkeeping
    recovered = Journal(reopened)
    assert recovered.read_all() == [f"entry-{i}".encode() for i in range(6)]


def test_audit_log_survives_reopen(tmp_path):
    path = str(tmp_path / "audit.img")
    clock = SimulatedClock(start=5.0)
    device = FileBackedDevice("fa", CAPACITY, path)
    log = AuditLog(device=device, clock=clock)
    for i in range(8):
        log.append(AuditAction.RECORD_READ, "dr-a", f"rec-{i}")
    head = log.head_digest

    reopened = FileBackedDevice("fa", CAPACITY, path)
    reopened.reset_allocation(device.used)
    recovered = AuditLog(reopened, clock=clock)
    assert recovered.head_digest == head
    assert len(recovered) == 8
    assert recovered.verify_chain().ok


def test_worm_ciphertext_only_in_backing_file(tmp_path):
    path = str(tmp_path / "worm.img")
    device = FileBackedDevice("fw", CAPACITY, path)
    store = WormStore(device=device, clock=SimulatedClock())
    cipher = AeadCipher(MASTER)
    plaintext = b"diagnosis: metastatic carcinoma of the lung"
    store.put("rec-1", cipher.encrypt(plaintext).to_bytes())

    with open(path, "rb") as handle:
        raw = handle.read()
    assert b"carcinoma" not in raw
    assert b"rec-1" in raw  # object ids are metadata, not PHI content
    # and the round trip still works
    from repro.crypto.aead import AeadCiphertext

    assert cipher.decrypt(AeadCiphertext.from_bytes(store.get("rec-1"))) == plaintext


def test_plaintext_store_leaks_into_backing_file(tmp_path):
    # The contrast: an unencrypted payload is readable straight from disk.
    path = str(tmp_path / "plain.img")
    device = FileBackedDevice("fp", CAPACITY, path)
    store = WormStore(device=device, clock=SimulatedClock())
    store.put("rec-1", b"diagnosis: metastatic carcinoma")
    with open(path, "rb") as handle:
        assert b"carcinoma" in handle.read()
