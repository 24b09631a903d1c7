"""The trustworthy keyword index (after Mitra, Hsu & Winslett's
trustworthy-index line of work; DESIGN.md §15 has the layout, what each
binding stops and what leaks).

* **Trapdoors, not terms.**  A term's on-disk identity is
  ``HMAC(index_key, term)``: without the key the stored vocabulary is
  random strings, so the "Cancer" inference is impossible from a stolen
  medium.
* **One frame per write, folded into sealed chunks.**  An add journals
  ONE frame: an AEAD box per touched posting list (a *delta*, holding
  this write's new ids for that list).  Nothing is read or re-encrypted.
  When a list's pending ids reach :data:`CHUNK_CAPACITY`, the first
  ``CHUNK_CAPACITY`` go, in the same device write, into a full *sealed*
  chunk that no later add reads or rewrites.
* **Checked against trusted state on every use.**  Boxes are sealed
  under the list's key and bound to their trapdoor and position.  A
  chunk must carry the header the in-memory table expects, then pass its
  MAC; a delta's bytes must hash to the SHA-256 taken at write, and its
  ids come from memory, so no query decrypts a delta.
* **Padding.**  A box's ids are sorted and padded with empty entries to
  the next power-of-two count (list length ≈ term rarity leaks only as
  log-granularity buckets).
* **Secure deletion** (after Mitra & Winslett, StorageSS'06).
  :meth:`TrustworthyIndex.delete_document` rewrites every box holding
  the id without it and scrubs every superseded box of the affected
  lists; :meth:`TrustworthyIndex.forensic_residue` is the auditor's check.

The index is derived data: a restarted engine re-posts it on a blank
device, so no frame is ever read back from an older device image.
"""

from __future__ import annotations

import struct
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

#: Document ids per sealed chunk, and the pending ids at which a list's
#: deltas fold into one.  A search pays one frame (checksum, header, MAC:
#: ~12 us warm) per sealed chunk; capacity 8 / 16 / 32 / 64 read
#: ``read_tiered`` query_p50_ms 2.02 / 1.79 / 1.66 / 1.62 against 1.68
#: for whole lists (8 seeds): 32 is the smallest that searched as fast.
CHUNK_CAPACITY = 32

# trapdoor (raw HMAC) | chunk number | chunk version
_FRAME_HEADER = struct.Struct(">32sII")
# a delta's associated data: trapdoor (raw HMAC) | the write's journal sequence
_DELTA_AD = struct.Struct(">32sI")


def _padded_length(count: int) -> int:
    """Next power of two >= max(count, 1)."""
    length = 1
    while length < count:
        length *= 2
    return length


def _padded(documents: list[str]) -> bytes:
    """A box's plaintext: the ids sorted, padded to a power of two."""
    pad = [_PAD_DOC] * (_padded_length(len(documents)) - len(documents))
    return canonical_bytes(sorted(documents) + pad)


@dataclass(frozen=True)
class ChunkExtent:
    """Where one version of one sealed posting-list chunk lives on the device."""

    journal_sequence: int
    device_offset: int
    size: int
    chunk: int
    version: int
    fill: int


@dataclass(frozen=True)
class DeltaExtent:
    """One write's box for one list: its place in the write's frame, the
    SHA-256 of the bytes written there, and its ids."""

    journal_sequence: int
    device_offset: int
    size: int
    digest: bytes
    documents: tuple[str, ...]


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
        # trapdoor(hex) -> current extent of every sealed chunk, in chunk order
        self._chunks: dict[str, list[ChunkExtent]] = {}
        # trapdoor(hex) -> pending deltas, fewer than CHUNK_CAPACITY ids
        # in all (an emptied list keeps its entry)
        self._pending: dict[str, list[DeltaExtent]] = {}
        # trapdoor(hex) -> superseded boxes (secure deletion scrubs these)
        self._superseded: dict[str, list[ChunkExtent | DeltaExtent]] = {}
        self._documents: set[str] = set()
        # trapdoor(hex) -> AeadCipher memo.  Per-list keys are a pure
        # KDF of the master key and the trapdoor, so caching is safe;
        # it turns the dominant ingest cost (one KDF + cipher setup per
        # touched list) into a dictionary hit.
        self._cipher_cache: OrderedDict[str, AeadCipher] = OrderedDict()

    @property
    def device(self) -> BlockDevice:
        return self._journal.device

    def __len__(self) -> int:
        return len(self._documents)

    @property
    def vocabulary_size(self) -> int:
        return len(self._chunks.keys() | self._pending.keys())

    # -- crypto plumbing -----------------------------------------------------

    def trapdoor(self, term: str) -> str:
        """The keyed on-disk identity of a term."""
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

    # -- persistence: one read path, one write path --------------------------

    def _open(self, items: list[tuple[str, ChunkExtent]]) -> list[list[str]]:
        """Read ``(trapdoor, extent)`` sealed chunks back as document-id lists.

        Per chunk: journal checksum, then the frame header must be the
        one the extent expects (trapdoor, chunk number, version), then
        the MAC over that header and the ciphertext.  Every MAC is
        verified before anything is decrypted (one ``decrypt_many``).
        """
        boxes = []
        for trapdoor, extent in items:
            frame = self._journal.read(extent.journal_sequence)
            header = _FRAME_HEADER.pack(bytes.fromhex(trapdoor), extent.chunk, extent.version)
            if frame[: _FRAME_HEADER.size] != header:
                raise IntegrityError(
                    "posting chunk substitution detected (trapdoor/chunk/version mismatch)"
                )
            box = AeadCiphertext.from_bytes(frame[_FRAME_HEADER.size :])
            boxes.append((self._cipher_for(trapdoor), box, header))
        return [
            [doc for doc in canonical_loads(plaintext) if doc != _PAD_DOC]
            for plaintext in decrypt_many(boxes)
        ]

    def _postings(self, trapdoors: list[str]) -> list[list[str]]:
        """Whole posting lists: every sealed chunk of every trapdoor
        through one :meth:`_open` pass, then every pending delta re-read
        and re-hashed, its ids taken from memory.  Absent trapdoors
        yield empty lists."""
        chains = [self._chunks.get(trapdoor, ()) for trapdoor in trapdoors]
        opened = iter(
            self._open([(td, extent) for td, chain in zip(trapdoors, chains) for extent in chain])
        )
        lists = [[doc for _ in chain for doc in next(opened)] for chain in chains]
        for trapdoor, documents in zip(trapdoors, lists):
            for delta in self._pending.get(trapdoor, ()):
                if sha256(self.device.read(delta.device_offset, delta.size)) != delta.digest:
                    raise IntegrityError("posting delta altered on the device")
                documents.extend(delta.documents)
        return lists

    def _write(
        self,
        chunks: list[tuple[str, int, list[str]]],
        deltas: dict[str, list[str]],
        retired: list[tuple[str, DeltaExtent]],
    ) -> None:
        """Seal ``(trapdoor, chunk number, document ids)`` chunks and the
        ``trapdoor -> ids`` deltas in ONE vectorized AEAD pass, journal
        one delta frame and a frame per chunk under ONE device write,
        then update the table: *retired* deltas and replaced chunk
        versions are kept for scrubbing, the new boxes take their
        place.  A chunk number the list already has is a new version of
        that chunk; the next number up starts a new chunk."""
        sequence = len(self._journal)  # the delta frame goes first
        items = [
            (self._cipher_for(td), _padded(ids), _DELTA_AD.pack(bytes.fromhex(td), sequence))
            for td, ids in deltas.items()
        ]
        staged: list[tuple[str, int, int, int, bytes]] = []
        for trapdoor, number, documents in chunks:
            chain = self._chunks.get(trapdoor, ())
            version = chain[number].version + 1 if number < len(chain) else 0
            header = _FRAME_HEADER.pack(bytes.fromhex(trapdoor), number, version)
            staged.append((trapdoor, number, version, len(documents), header))
            items.append((self._cipher_for(trapdoor), _padded(documents), header))
        boxes = [box.to_bytes() for box in encrypt_many(items)]
        frames = [header + box for (*_, header), box in zip(staged, boxes[len(deltas) :])]
        write = [b"".join(boxes[: len(deltas)])] if deltas else []
        entries = self._journal.append_many(write + frames)
        for trapdoor, delta in retired:
            self._pending[trapdoor].remove(delta)
            self._superseded.setdefault(trapdoor, []).append(delta)
        offset = entries[0].offset + HEADER_SIZE if deltas else 0
        for (trapdoor, ids), box in zip(deltas.items(), boxes):
            delta = DeltaExtent(sequence, offset, len(box), sha256(box), tuple(ids))
            self._pending.setdefault(trapdoor, []).append(delta)
            offset += len(box)
        for (trapdoor, number, version, fill, _), frame, entry in zip(
            staged, frames, entries[len(entries) - len(frames) :]
        ):
            offset = entry.offset + HEADER_SIZE
            extent = ChunkExtent(entry.sequence, offset, len(frame), number, version, fill)
            chain = self._chunks.setdefault(trapdoor, [])
            if number < len(chain):
                self._superseded.setdefault(trapdoor, []).append(chain[number])
                chain[number] = extent
            else:
                chain.append(extent)

    # -- public API ---------------------------------------------------------------

    def add_document(self, document_id: str, text: str) -> int:
        """Index a document; returns the number of distinct terms."""
        return self.add_documents([(document_id, text)])[0]

    def add_documents(self, documents: list[tuple[str, str]]) -> list[int]:
        """Index a batch of ``(document_id, text)`` pairs.

        The batch is one delta per touched list, all in ONE journal
        frame, and nothing on the device is read.  A list whose pending
        ids reach :data:`CHUNK_CAPACITY` folds them into full sealed
        chunks in the same device write.  Returns the per-document
        distinct-term counts, in input order.

        Validation is all-or-nothing up front; the batch is rejected
        before any state changes if any id is empty, already indexed,
        or duplicated within the batch.
        """
        seen: set[str] = set()
        for document_id, _ in documents:
            if not document_id:
                raise IndexError_("document id must not be empty")
            if document_id in self._documents:
                raise IndexError_(f"document {document_id} already indexed")
            if document_id in seen:
                raise IndexError_(f"document {document_id} duplicated in batch")
            seen.add(document_id)
        # trapdoor -> new document ids, preserving batch order
        additions: dict[str, list[str]] = {}
        term_counts: list[int] = []
        for document_id, text in documents:
            terms = unique_terms(text)
            term_counts.append(len(terms))
            for term in terms:
                additions.setdefault(self.trapdoor(term), []).append(document_id)
        chunks: list[tuple[str, int, list[str]]] = []
        deltas: dict[str, list[str]] = {}
        folded: list[tuple[str, DeltaExtent]] = []
        for trapdoor, added in additions.items():
            pending = self._pending.get(trapdoor, [])
            held = [doc for delta in pending for doc in delta.documents]
            ids = held + added
            full = len(ids) - len(ids) % CHUNK_CAPACITY
            first = len(self._chunks.get(trapdoor, ()))
            for start in range(0, full, CHUNK_CAPACITY):
                chunk = ids[start : start + CHUNK_CAPACITY]
                chunks.append((trapdoor, first + start // CHUNK_CAPACITY, chunk))
            folded += [(trapdoor, delta) for delta in pending] if full else []
            if rest := ids[max(full, len(held)) :]:
                deltas[trapdoor] = rest
        self._write(chunks, deltas, folded)
        self._documents.update(seen)
        return term_counts

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
        """Check every box once — each sealed chunk opened, each pending
        delta re-read and re-hashed — and return the trapdoors whose
        boxes fail (tampered, substituted, reordered, rolled back,
        replayed or missing)."""
        failures = []
        for trapdoor in sorted(self._chunks.keys() | self._pending.keys()):
            try:
                self._postings([trapdoor])
            except CuratorError:
                failures.append(trapdoor)
        return failures

    # -- secure deletion ----------------------------------------------------------

    def delete_document(self, document_id: str) -> DeletionCertificate:
        """Forget a document: rewrite the chunks and deltas holding it,
        then scrub every superseded box of the affected lists."""
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
        decrypt every current chunk, every pending delta and every
        unscrubbed superseded box, and report the trapdoors still naming
        the document.  Empty list == the index has verifiably forgotten it."""
        residue = set()
        for table in (self._chunks, self._pending, self._superseded):
            for trapdoor, extents in table.items():
                for extent in extents:
                    try:
                        documents = self.open_extent(trapdoor, extent)
                    except CuratorError:
                        if table is not self._superseded:
                            raise  # current boxes must verify
                        continue  # scrubbed or undecodable: no posting info left
                    if document_id in documents:
                        residue.add(trapdoor)
        return sorted(residue)

    def _rewrite_lists_without(self, document_id: str) -> list[str]:
        """Rewrite every chunk and delta that holds *document_id* without
        it, in one write; boxes that do not hold it are not touched.
        Returns the affected trapdoors.  The replaced (still-decryptable)
        boxes are recorded for scrubbing."""
        rewrites: list[tuple[str, int, list[str]]] = []
        for trapdoor in sorted(self._chunks):
            chain = self._chunks[trapdoor]
            opened = self._open([(trapdoor, extent) for extent in chain])
            for extent, documents in zip(chain, opened):
                if document_id in documents:
                    documents.remove(document_id)
                    rewrites.append((trapdoor, extent.chunk, documents))
        retired = [
            (trapdoor, delta)
            for trapdoor, pending in self._pending.items()
            for delta in pending
            if document_id in delta.documents
        ]
        survivors = {
            trapdoor: kept
            for trapdoor, delta in retired
            if (kept := [doc for doc in delta.documents if doc != document_id])
        }
        self._write(rewrites, survivors, retired)
        self._documents.discard(document_id)
        return [trapdoor for trapdoor, _, _ in rewrites] + [td for td, _ in retired]

    def _scrub_superseded(self, trapdoors: list[str]) -> list[ChunkExtent | DeltaExtent]:
        """Pop the superseded boxes of *trapdoors* and scrub their
        device bytes; returns the scrubbed extents."""
        extents = [e for trapdoor in trapdoors for e in self._superseded.pop(trapdoor, [])]
        for extent in extents:
            self.device.scrub(extent.device_offset, extent.size)
        return extents

    # -- inspection (tests, oracles, the forensic check) ------------------------

    def chunk_extents(self) -> dict[str, list[ChunkExtent]]:
        """Every current sealed chunk extent per trapdoor, in chunk order."""
        return {trapdoor: list(chain) for trapdoor, chain in self._chunks.items()}

    def delta_extents(self) -> dict[str, list[DeltaExtent]]:
        """Every pending delta per trapdoor, oldest first."""
        return {trapdoor: list(pending) for trapdoor, pending in self._pending.items()}

    def superseded_versions(self) -> dict[str, list[ChunkExtent | DeltaExtent]]:
        return {trapdoor: list(metas) for trapdoor, metas in self._superseded.items()}

    def open_extent(self, trapdoor: str, extent: ChunkExtent | DeltaExtent) -> list[str]:
        """The document ids one box (chunk or delta, current or
        superseded) still yields to a holder of the index keys; raises
        like a query if it no longer verifies (scrubbed, tampered)."""
        if isinstance(extent, ChunkExtent):
            return self._open([(trapdoor, extent)])[0]
        box = AeadCiphertext.from_bytes(self.device.read(extent.device_offset, extent.size))
        associated = _DELTA_AD.pack(bytes.fromhex(trapdoor), extent.journal_sequence)
        plaintext = self._cipher_for(trapdoor).decrypt(box, associated)
        return [doc for doc in canonical_loads(plaintext) if doc != _PAD_DOC]
