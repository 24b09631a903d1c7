"""The trustworthy keyword index (after Mitra, Hsu & Winslett's
trustworthy-index line of work; DESIGN.md §15 has the layout, what each
binding stops and what leaks).

* **Trapdoors, not terms.**  A term's identity is
  ``HMAC(index_key, term)``, and it is held only in memory: on the
  device a posting list is AEAD boxes with no clear header, so a stolen
  medium shows neither the vocabulary nor which boxes form one list.
* **Only full chunks reach the device.**  A list's pending ids (fewer
  than :data:`CHUNK_CAPACITY`) are held in memory.  When they reach
  ``CHUNK_CAPACITY``, the write that filled them *folds* them into a
  sealed chunk; all the chunks one write seals are ONE journal frame,
  and no later add reads or rewrites them.  A write that folds nothing
  writes nothing.
* **One check, then crypto.**  Every chunk is sealed under its list's
  key with trapdoor ‖ the write's journal sequence as associated data,
  and the table keeps the SHA-256 of the bytes written.  Every use
  re-reads and re-hashes the chunk against that digest before it is
  decrypted.
* **Padding.**  A chunk's ids are sorted and padded with empty entries
  to the next power-of-two count, so a chunk a deletion shrank keeps a
  full chunk's entry count until it holds half as many ids.
* **Secure deletion** (after Mitra & Winslett, StorageSS'06).
  :meth:`TrustworthyIndex.delete_document` drops a pending id from
  memory, and rewrites each sealed chunk holding the id without it, in
  one frame, then scrubs the replaced chunks;
  :meth:`TrustworthyIndex.forensic_residue` is the auditor's check.

The index is derived data: a restarted engine re-posts it on a blank
device, so no frame is ever read back from an older device image.
"""

from __future__ import annotations

import struct
import sys
from collections import OrderedDict
from dataclasses import dataclass

from repro.crypto.aead import AeadCipher, AeadCiphertext, decrypt_many, encrypt_many
from repro.crypto.hashing import sha256
from repro.crypto.hmac_utils import hmac_sha256
from repro.crypto.kdf import derive_key
from repro.errors import CuratorError, IndexError_, IntegrityError
from repro.index.tokenizer import unique_terms
from repro.storage.block import BlockDevice, MemoryDevice
from repro.storage.journal import HEADER_SIZE, Journal
from repro.util.encoding import canonical_bytes, canonical_loads
from repro.util.metrics import METRICS

_CIPHER_CACHE_CAPACITY = 4096

_PAD_DOC = ""  # padding entries are empty strings, dropped on decrypt

#: Document ids per sealed chunk, and the pending ids at which a list
#: folds them into one.  A search pays one re-hash and one MAC per
#: sealed chunk; capacity 8 / 16 / 32 / 64 read ``read_tiered``
#: query_p50_ms 2.02 / 1.79 / 1.66 / 1.62 against 1.68 for whole lists
#: (8 seeds): 32 is the smallest that searched as fast.
CHUNK_CAPACITY = 32

# every chunk's associated data: trapdoor (raw HMAC) | the write's journal sequence
_BOX_AD = struct.Struct(">32sI")


def _padded_length(count: int) -> int:
    """Next power of two >= max(count, 1)."""
    length = 1
    while length < count:
        length *= 2
    return length


def _padded(documents: list[str]) -> bytes:
    """A chunk's plaintext: the ids sorted, padded to a power of two."""
    pad = [_PAD_DOC] * (_padded_length(len(documents)) - len(documents))
    return canonical_bytes(sorted(documents) + pad)


@dataclass(frozen=True)
class BoxExtent:
    """One sealed chunk: the write (journal sequence) that put it on the
    device, where it lies, and the SHA-256 of the bytes written there."""

    journal_sequence: int
    device_offset: int
    size: int
    digest: bytes


@dataclass(frozen=True)
class DeletionCertificate:
    """Evidence of a completed secure deletion."""

    document_id: str
    lists_rewritten: int
    versions_scrubbed: int
    bytes_scrubbed: int


class TrustworthyIndex:
    """Encrypted, tamper-evident, low-leakage keyword index."""

    def __init__(self, master_key: bytes, device: BlockDevice | None = None) -> None:
        if len(master_key) != 32:
            raise IndexError_("index master key must be 32 bytes")
        self._trapdoor_key = derive_key(master_key, "index/trapdoor")
        self._list_key_root = derive_key(master_key, "index/lists")
        self._journal = Journal(device or MemoryDevice("tidx-dev", 1 << 23))
        # trapdoor(hex) -> sealed chunks, in order
        self._chunks: dict[str, list[BoxExtent]] = {}
        # trapdoor(hex) -> pending ids, fewer than CHUNK_CAPACITY, held
        # only here; every list ever posted to has an entry, emptied or not
        self._pending: dict[str, list[str]] = {}
        # trapdoor(hex) -> replaced chunks (secure deletion scrubs these)
        self._superseded: dict[str, list[BoxExtent]] = {}
        # document id -> {trapdoor (interned: one string per list) -> the
        # slot of the chunk holding it, None while pending}.  Derived: a
        # re-posted index rebuilds it.
        self._documents: dict[str, dict[str, int | None]] = {}
        # trapdoor(hex) -> AeadCipher memo.  Per-list keys are a pure
        # KDF of the master key and the trapdoor, so caching is safe;
        # it turns one KDF + cipher setup per list a fold or a search
        # touches into a dictionary hit.
        self._cipher_cache: OrderedDict[str, AeadCipher] = OrderedDict()

    @property
    def device(self) -> BlockDevice:
        return self._journal.device

    def __len__(self) -> int:
        return len(self._documents)

    @property
    def vocabulary_size(self) -> int:
        return len(self._pending)

    # -- crypto plumbing -----------------------------------------------------

    def trapdoor(self, term: str) -> str:
        """The keyed identity of a term."""
        return hmac_sha256(self._trapdoor_key, term.lower().encode("utf-8")).hex()

    def _cipher_for(self, trapdoor: str) -> AeadCipher:
        cached = self._cipher_cache.get(trapdoor)
        if cached is not None:
            self._cipher_cache.move_to_end(trapdoor)
            METRICS.incr("index_cipher_cache_hits")
            return cached
        METRICS.incr("index_cipher_cache_misses")
        key = derive_key(self._list_key_root, f"list/{trapdoor}")
        cipher = AeadCipher(key)
        self._cipher_cache[trapdoor] = cipher
        if len(self._cipher_cache) > _CIPHER_CACHE_CAPACITY:
            self._cipher_cache.popitem(last=False)
        return cipher

    # -- persistence: one check, one read path, one write path ----------------

    def _box(self, extent: BoxExtent) -> bytes:
        """Re-read one chunk; it must hash to the digest taken at write."""
        data = self.device.read(extent.device_offset, extent.size)
        if sha256(data) != extent.digest:
            raise IntegrityError("posting box altered on the device")
        return data

    def _open(self, items: list[tuple[str, BoxExtent]]) -> list[list[str]]:
        """Read ``(trapdoor, extent)`` chunks back as document-id lists:
        each re-read and re-hashed, then every MAC verified before
        anything is decrypted (one ``decrypt_many``)."""
        boxes = [
            (
                self._cipher_for(trapdoor),
                AeadCiphertext.from_bytes(self._box(extent)),
                _BOX_AD.pack(bytes.fromhex(trapdoor), extent.journal_sequence),
            )
            for trapdoor, extent in items
        ]
        return [
            [doc for doc in canonical_loads(plaintext) if doc != _PAD_DOC]
            for plaintext in decrypt_many(boxes)
        ]

    def _postings(self, trapdoors: list[str]) -> list[list[str]]:
        """Whole posting lists: every sealed chunk of every trapdoor
        through one :meth:`_open` pass, then the pending ids from
        memory.  Absent trapdoors yield empty lists."""
        chains = [self._chunks.get(trapdoor, ()) for trapdoor in trapdoors]
        opened = iter(
            self._open([(td, extent) for td, chain in zip(trapdoors, chains) for extent in chain])
        )
        return [
            [doc for _ in chain for doc in next(opened)] + self._pending.get(trapdoor, [])
            for trapdoor, chain in zip(trapdoors, chains)
        ]

    def _seal(self, chunks: list[tuple[str, int, list[str]]]) -> None:
        """Seal the ``(trapdoor, slot, ids)`` chunks in ONE vectorized
        AEAD pass, journal them as ONE frame (one device write), then
        put each in its list's slot: a slot the list already has is
        replaced (the old chunk kept for scrubbing); the next slot up
        appends.  No chunks, no write."""
        if not chunks:
            return
        sequence = len(self._journal)
        boxes = [
            box.to_bytes()
            for box in encrypt_many(
                [
                    (self._cipher_for(td), _padded(ids), _BOX_AD.pack(bytes.fromhex(td), sequence))
                    for td, _, ids in chunks
                ]
            )
        ]
        offset = self._journal.append_scattered(boxes).offset + HEADER_SIZE
        for (trapdoor, slot, _), box in zip(chunks, boxes):
            extent = BoxExtent(sequence, offset, len(box), sha256(box))
            offset += len(box)
            chain = self._chunks.setdefault(trapdoor, [])
            if slot < len(chain):
                self._superseded.setdefault(trapdoor, []).append(chain[slot])
                chain[slot] = extent
            else:
                chain.append(extent)

    # -- public API ---------------------------------------------------------------

    def add_document(self, document_id: str, text: str) -> int:
        """Index a document; returns the number of distinct terms."""
        return self.add_documents([(document_id, text)])[0]

    def add_documents(self, documents: list[tuple[str, str]]) -> list[int]:
        """Index a batch of ``(document_id, text)`` pairs.

        Each document's ids join the pending ids of its lists in memory.
        A list whose pending ids reach :data:`CHUNK_CAPACITY` folds them
        into full sealed chunks, and all the batch's folds are ONE
        journal frame; nothing on the device is read.  Returns the
        per-document distinct-term counts, in input order.

        Validation is all-or-nothing up front; the batch is rejected
        before any state changes if any id is empty, already indexed,
        or duplicated within the batch.
        """
        posted: dict[str, dict[str, int | None]] = {}
        # trapdoor -> new document ids, preserving batch order
        additions: dict[str, list[str]] = {}
        for document_id, text in documents:
            if not document_id:
                raise IndexError_("document id must not be empty")
            if document_id in self._documents:
                raise IndexError_(f"document {document_id} already indexed")
            if document_id in posted:
                raise IndexError_(f"document {document_id} duplicated in batch")
            trapdoors = [sys.intern(self.trapdoor(term)) for term in unique_terms(text)]
            posted[document_id] = dict.fromkeys(trapdoors)
            for trapdoor in trapdoors:
                additions.setdefault(trapdoor, []).append(document_id)
        chunks: list[tuple[str, int, list[str]]] = []
        pending: dict[str, list[str]] = {}
        for trapdoor, added in additions.items():
            ids = self._pending.get(trapdoor, []) + added
            full = len(ids) - len(ids) % CHUNK_CAPACITY
            first = len(self._chunks.get(trapdoor, ()))
            for start in range(0, full, CHUNK_CAPACITY):
                chunk = ids[start : start + CHUNK_CAPACITY]
                chunks.append((trapdoor, first + start // CHUNK_CAPACITY, chunk))
            pending[trapdoor] = ids[full:]
        self._seal(chunks)
        self._pending.update(pending)
        self._documents.update(posted)
        for trapdoor, slot, chunk in chunks:
            for document_id in chunk:
                self._documents[document_id][trapdoor] = slot
        return [len(slots) for slots in posted.values()]

    def search(self, term: str) -> list[str]:
        """Documents containing *term*; requires the index key by construction."""
        return sorted(self._postings([self.trapdoor(term)])[0])

    def search_all(self, terms: list[str]) -> list[str]:
        """Conjunctive query."""
        if not terms:
            return []
        lists = self._postings([self.trapdoor(term) for term in terms])
        return sorted(set(lists[0]).intersection(*lists[1:]))

    def verify(self) -> list[str]:
        """Re-read and re-hash every sealed chunk once, decrypting
        nothing, and return the trapdoors whose chunks fail (tampered,
        substituted, reordered, rolled back, replayed or missing)."""
        failures = []
        for trapdoor, chain in sorted(self._chunks.items()):
            try:
                for extent in chain:
                    self._box(extent)
            except CuratorError:
                failures.append(trapdoor)
        return failures

    # -- secure deletion ----------------------------------------------------------

    def delete_document(self, document_id: str) -> DeletionCertificate:
        """Forget a document: drop its pending ids, rewrite the sealed
        chunks holding it, then scrub the chunks those replaced."""
        if not document_id:
            raise IndexError_("document id must not be empty")
        affected = self._rewrite_lists_without(document_id)
        scrubbed = self._scrub_superseded(affected)
        return DeletionCertificate(
            document_id=document_id,
            lists_rewritten=len(affected),
            versions_scrubbed=len(scrubbed),
            bytes_scrubbed=sum(extent.size for extent in scrubbed),
        )

    def forensic_residue(self, document_id: str) -> list[str]:
        """Worst-case forensic check: with the index keys in hand,
        decrypt every current chunk and every unscrubbed superseded
        one, and report the trapdoors still naming the document.  Empty
        list == the index has verifiably forgotten it."""
        residue = set()
        for table in (self._chunks, self._superseded):
            for trapdoor, extents in table.items():
                for extent in extents:
                    try:
                        documents = self.open_extent(trapdoor, extent)
                    except CuratorError:
                        if table is self._chunks:
                            raise  # current chunks must verify
                        continue  # scrubbed or undecodable: no posting info left
                    if document_id in documents:
                        residue.add(trapdoor)
        return sorted(residue)

    def _rewrite_lists_without(self, document_id: str) -> list[str]:
        """Drop *document_id* from its lists' pending ids, and rewrite
        the one sealed chunk holding it in each other list without it,
        in one write; only those chunks are read.  Returns the trapdoors
        whose chunk was rewritten.  The replaced (still-decryptable)
        chunks are recorded for scrubbing."""
        slots = self._documents.get(document_id, {})
        sealed = [(trapdoor, slot) for trapdoor, slot in slots.items() if slot is not None]
        opened = self._open([(trapdoor, self._chunks[trapdoor][slot]) for trapdoor, slot in sealed])
        self._seal(
            [
                (trapdoor, slot, [doc for doc in documents if doc != document_id])
                for (trapdoor, slot), documents in zip(sealed, opened)
            ]
        )
        for trapdoor, slot in slots.items():
            if slot is None:
                self._pending[trapdoor].remove(document_id)
        self._documents.pop(document_id, None)
        return [trapdoor for trapdoor, _ in sealed]

    def _scrub_superseded(self, trapdoors: list[str]) -> list[BoxExtent]:
        """Pop the superseded chunks of *trapdoors* and scrub their
        device bytes; returns the scrubbed extents."""
        extents = [e for trapdoor in trapdoors for e in self._superseded.pop(trapdoor, [])]
        for extent in extents:
            self.device.scrub(extent.device_offset, extent.size)
        return extents

    # -- inspection (tests, oracles, the forensic check) ------------------------

    def chunk_extents(self) -> dict[str, list[BoxExtent]]:
        """Every current sealed chunk per trapdoor, in order."""
        return {trapdoor: list(chain) for trapdoor, chain in self._chunks.items()}

    def superseded_versions(self) -> dict[str, list[BoxExtent]]:
        return {trapdoor: list(metas) for trapdoor, metas in self._superseded.items()}

    def open_extent(self, trapdoor: str, extent: BoxExtent) -> list[str]:
        """The document ids one chunk (current or superseded) still
        yields to a holder of the index keys; raises like a query if it
        no longer verifies (scrubbed, tampered)."""
        return self._open([(trapdoor, extent)])[0]
