"""The trustworthy keyword index.

Design (after Mitra, Hsu & Winslett's trustworthy-index line of work,
re-expressed over this library's substrate):

* **Trapdoors, not terms.**  A term never touches the device.  Its
  on-disk identity is ``HMAC(index_key, term)`` — without the key, the
  stored vocabulary is indistinguishable from random strings, so the
  "Cancer" inference is impossible from a stolen medium.
* **Append-only chunked posting lists.**  A trapdoor's posting list is
  a chain of chunks of at most :data:`CHUNK_CAPACITY` document ids.  A
  full chunk is *sealed*: no later add reads or rewrites it.  Only the
  last chunk (the *tail*) is read, extended and re-encrypted by an add,
  so the bytes an add writes are bounded by the chunk capacity, not by
  the list length.  A list is read back as all of its chunks through
  one batched AEAD pass.
* **One AEAD box per chunk.**  Every chunk is encrypted under a key
  derived from the index master key and the trapdoor.  The frame on the
  device is ``trapdoor(32) | chunk number(4) | chunk version(4)``
  followed by the raw box (``nonce | tag | ciphertext``), and that same
  40-byte header is the box's associated data.
* **Versioned updates.**  Each rewrite of a chunk — an add extending
  the tail, a deletion rewriting whichever chunks held the document —
  journals a new frame with the chunk's version bumped.  The in-memory
  table ``trapdoor -> [chunk extent]`` holds the journal position,
  version and fill count of every chunk's current frame; a frame is
  accepted only if its header equals the one the table expects, and the
  MAC then binds the ciphertext to that header.  So a chunk moved to
  another position in its list (reorder, swap), copied from another
  trapdoor, or replaced by one of its own superseded versions
  (rollback) fails exactly as a flipped byte does, and a zeroed or
  missing chunk fails the journal checksum before that.
* **Padding.**  A chunk's ids are sorted and padded with empty entries
  to the next power-of-two entry count before encryption, blunting the
  frequency side channel (list length ≈ term rarity) to log-granularity
  buckets within a chunk.  The number of chunks, ⌈n / capacity⌉, is
  visible to an observer of the device (see DESIGN.md §15).
* **Secure deletion** (after Mitra & Winslett, StorageSS'06).  A record
  destroyed after retention must leave no posting-list copy of its
  vocabulary behind.  :meth:`TrustworthyIndex.delete_document` rewrites
  every chunk holding the id without it, then scrubs every superseded
  version of the affected lists, so even an adversary who later holds
  the index key cannot decrypt a stale chunk;
  :meth:`TrustworthyIndex.forensic_residue` is the auditor's check.

Queries decrypt one list; tampering anywhere in any of its chunks
surfaces as an :class:`~repro.errors.IntegrityError`-family failure at
query time.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from dataclasses import dataclass

from repro.crypto.aead import AeadCipher, AeadCiphertext, decrypt_many, encrypt_many
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

#: Document ids per posting-list chunk.  An add re-encrypts at most this
#: many ids per term; a search pays one more frame (journal checksum,
#: header check, MAC: ~12 us warm) per chunk.  Measured on the committed
#: benchmark (``bench/``), whole-list layout -> capacity 8 / 16 / 32 /
#: 64, medians at reference speed: ``ingest_single`` ops_per_s 126 ->
#: 339 / 292 / 262 / 260 and stored bytes per user byte 38.8 -> 9.9 /
#: 11.6 / 14.1 / 16.9 (3 seeds); ``read_tiered`` query_p50_ms 1.68 ->
#: 2.02 / 1.79 / 1.66 / 1.62 (8 seeds; 3 at capacity 8) against a 25 %
#: bound, verify_s 5.9 -> 5.7 / 5.5 / 5.8 / 5.7.  32 is the smallest
#: capacity whose search cost cannot be told from the whole-list
#: layout's; 16 would buy 11 % more ingest for 7 % on search p50.
CHUNK_CAPACITY = 32

# trapdoor (raw HMAC) | chunk number | chunk version
_FRAME_HEADER = struct.Struct(">32sII")


def _padded_length(count: int) -> int:
    """Next power of two >= max(count, 1)."""
    length = 1
    while length < count:
        length *= 2
    return length


@dataclass(frozen=True)
class ChunkExtent:
    """Where one version of one posting-list chunk lives on the device."""

    journal_sequence: int
    device_offset: int
    size: int
    chunk: int
    version: int
    fill: int


@dataclass(frozen=True)
class DeletionCertificate:
    """Evidence of a completed secure deletion."""

    document_id: str
    lists_rewritten: int
    versions_scrubbed: int
    bytes_scrubbed: int


class TrustworthyIndex:
    """Encrypted, tamper-evident, low-leakage keyword index."""

    def __init__(
        self,
        master_key: bytes,
        device: BlockDevice | None = None,
    ) -> None:
        if len(master_key) != 32:
            raise IndexError_("index master key must be 32 bytes")
        self._trapdoor_key = derive_key(master_key, "index/trapdoor")
        self._list_key_root = derive_key(master_key, "index/lists")
        self._journal = Journal(device or MemoryDevice("tidx-dev", 1 << 23))
        # trapdoor(hex) -> current extent of every chunk, in chunk order
        self._chunks: dict[str, list[ChunkExtent]] = {}
        # trapdoor(hex) -> superseded extents (secure deletion scrubs these)
        self._superseded: dict[str, list[ChunkExtent]] = {}
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
        return len(self._chunks)

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

    # -- chunk persistence: one read path, one write path --------------------

    def _open(self, items: list[tuple[str, ChunkExtent]]) -> list[list[str]]:
        """Read ``(trapdoor, extent)`` chunks back as document-id lists.

        Per chunk: journal checksum, then the frame header must be the
        one the extent expects (trapdoor, chunk number, version), then
        the MAC over that header and the ciphertext.  Every MAC is
        verified before anything is decrypted (one ``decrypt_many``).
        """
        boxes = []
        for trapdoor, extent in items:
            frame = self._journal.read(extent.journal_sequence)
            header = _FRAME_HEADER.pack(
                bytes.fromhex(trapdoor), extent.chunk, extent.version
            )
            if frame[: _FRAME_HEADER.size] != header:
                raise IntegrityError(
                    "posting chunk substitution detected "
                    "(trapdoor/chunk/version mismatch)"
                )
            boxes.append(
                (
                    self._cipher_for(trapdoor),
                    AeadCiphertext.from_bytes(frame[_FRAME_HEADER.size :]),
                    header,
                )
            )
        METRICS.incr("index_chunks_read", len(boxes))
        return [
            [doc for doc in canonical_loads(plaintext) if doc != _PAD_DOC]
            for plaintext in decrypt_many(boxes)
        ]

    def _postings(self, trapdoors: list[str]) -> list[list[str]]:
        """Whole posting lists: every chunk of every trapdoor through one
        :meth:`_open` pass.  Absent trapdoors yield empty lists."""
        chains = [self._chunks.get(trapdoor, ()) for trapdoor in trapdoors]
        opened = iter(
            self._open(
                [
                    (trapdoor, extent)
                    for trapdoor, chain in zip(trapdoors, chains)
                    for extent in chain
                ]
            )
        )
        return [[doc for _ in chain for doc in next(opened)] for chain in chains]

    def _write_chunks(self, chunks: list[tuple[str, int, list[str]]]) -> None:
        """Encrypt ``(trapdoor, chunk number, document ids)`` chunks in ONE
        vectorized AEAD pass, journal them under ONE device write, and
        point the table at the new frames.  A chunk number the list
        already has is a new version of that chunk (the old extent is
        kept for scrubbing); the next number up starts a new chunk.  At
        most one write per (trapdoor, chunk) in a call."""
        staged: list[tuple[str, int, int, int, bytes]] = []
        items: list[tuple[AeadCipher, bytes, bytes]] = []
        for trapdoor, number, documents in chunks:
            chain = self._chunks.get(trapdoor, ())
            version = chain[number].version + 1 if number < len(chain) else 0
            header = _FRAME_HEADER.pack(bytes.fromhex(trapdoor), number, version)
            padded = sorted(documents) + [_PAD_DOC] * (
                _padded_length(len(documents)) - len(documents)
            )
            staged.append((trapdoor, number, version, len(documents), header))
            items.append((self._cipher_for(trapdoor), canonical_bytes(padded), header))
        frames = [
            header + box.to_bytes()
            for (*_, header), box in zip(staged, encrypt_many(items))
        ]
        entries = self._journal.append_many(frames)
        for (trapdoor, number, version, fill, _), frame, entry in zip(
            staged, frames, entries
        ):
            extent = ChunkExtent(
                journal_sequence=entry.sequence,
                device_offset=entry.offset + HEADER_SIZE,
                size=len(frame),
                chunk=number,
                version=version,
                fill=fill,
            )
            chain = self._chunks.setdefault(trapdoor, [])
            if number < len(chain):
                self._superseded.setdefault(trapdoor, []).append(chain[number])
                chain[number] = extent
            else:
                chain.append(extent)
        METRICS.incr("index_chunks_written", len(frames))

    # -- public API ---------------------------------------------------------------

    def add_document(self, document_id: str, text: str) -> int:
        """Index a document; returns the number of distinct terms."""
        return self.add_documents([(document_id, text)])[0]

    def add_documents(self, documents: list[tuple[str, str]]) -> list[int]:
        """Index a batch of ``(document_id, text)`` pairs.

        Each affected posting list has its tail chunk read and
        re-encrypted ONCE for the whole batch (a full tail is not read
        at all: the new ids start the next chunk), and all new chunk
        versions land in a single journal device write.  Returns the
        per-document distinct-term counts, in input order.

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
        open_tails = [
            (trapdoor, chain[-1])
            for trapdoor in additions
            if (chain := self._chunks.get(trapdoor))
            and chain[-1].fill < CHUNK_CAPACITY
        ]
        tail_documents = dict(
            zip((trapdoor for trapdoor, _ in open_tails), self._open(open_tails))
        )
        chunks: list[tuple[str, int, list[str]]] = []
        for trapdoor, added in additions.items():
            first = len(self._chunks.get(trapdoor, ()))
            if trapdoor in tail_documents:
                first -= 1
                added = tail_documents[trapdoor] + added
            for start in range(0, len(added), CHUNK_CAPACITY):
                chunks.append(
                    (
                        trapdoor,
                        first + start // CHUNK_CAPACITY,
                        added[start : start + CHUNK_CAPACITY],
                    )
                )
        self._write_chunks(chunks)
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
        """Decrypt every current chunk of every posting list; returns the
        trapdoors that fail authentication (a tampered, substituted,
        reordered, rolled-back or missing chunk anywhere in the list)."""
        failures = []
        for trapdoor in sorted(self._chunks):
            try:
                self._postings([trapdoor])
            except CuratorError:
                failures.append(trapdoor)
        return failures

    # -- secure deletion ----------------------------------------------------------

    def delete_document(self, document_id: str) -> DeletionCertificate:
        """Forget a document: rewrite the chunks holding it, then scrub
        every superseded version of the affected lists."""
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

    def scrub_all_superseded(self) -> int:
        """Scrub every superseded chunk version (e.g. after bulk adds),
        returning bytes overwritten: no decryptable stale chunk stays on
        the device even outside deletions."""
        scrubbed = self._scrub_superseded(list(self._superseded))
        return sum(extent.size for extent in scrubbed)

    def forensic_residue(self, document_id: str) -> list[str]:
        """Worst-case forensic check: with the index keys in hand,
        decrypt every current and every unscrubbed superseded chunk
        version and report the trapdoors still naming the document.
        Empty list == the index has verifiably forgotten it."""
        residue = {  # current chunks must verify: a failure here raises
            trapdoor
            for trapdoor, chain in self._chunks.items()
            for documents in self._open([(trapdoor, extent) for extent in chain])
            if document_id in documents
        }
        for trapdoor, extents in self._superseded.items():
            for extent in extents:
                try:
                    documents = self.open_extent(trapdoor, extent)
                except CuratorError:
                    continue  # scrubbed or undecodable: no posting info left
                if document_id in documents:
                    residue.add(trapdoor)
        return sorted(residue)

    def _rewrite_lists_without(self, document_id: str) -> list[str]:
        """Rewrite every chunk that contains *document_id*, omitting it;
        chunks that do not hold it are not touched.  Returns the
        affected trapdoors.  The superseded (still-decryptable) old
        versions are recorded for scrubbing."""
        rewrites: list[tuple[str, int, list[str]]] = []
        for trapdoor in sorted(self._chunks):
            chain = self._chunks[trapdoor]
            opened = self._open([(trapdoor, extent) for extent in chain])
            for extent, documents in zip(chain, opened):
                if document_id in documents:
                    documents.remove(document_id)
                    rewrites.append((trapdoor, extent.chunk, documents))
        self._write_chunks(rewrites)
        self._documents.discard(document_id)
        return [trapdoor for trapdoor, _, _ in rewrites]

    def _scrub_superseded(self, trapdoors: list[str]) -> list[ChunkExtent]:
        """Pop the superseded versions of *trapdoors* and scrub their
        device bytes; returns the scrubbed extents."""
        extents = [
            extent
            for trapdoor in trapdoors
            for extent in self._superseded.pop(trapdoor, [])
        ]
        for extent in extents:
            self.device.scrub(extent.device_offset, extent.size)
        return extents

    # -- inspection (tests, oracles, the forensic check) ------------------------

    def current_versions(self) -> dict[str, ChunkExtent]:
        """The tail chunk's extent per trapdoor (the frame the next add
        to that list reads)."""
        return {trapdoor: chain[-1] for trapdoor, chain in self._chunks.items()}

    def chunk_extents(self) -> dict[str, list[ChunkExtent]]:
        """Every current chunk extent per trapdoor, in chunk order."""
        return {trapdoor: list(chain) for trapdoor, chain in self._chunks.items()}

    def superseded_versions(self) -> dict[str, list[ChunkExtent]]:
        return {trapdoor: list(metas) for trapdoor, metas in self._superseded.items()}

    def open_extent(self, trapdoor: str, extent: ChunkExtent) -> list[str]:
        """The document ids one chunk extent (current or superseded)
        still yields to a holder of the index keys; raises like a query
        if the frame no longer verifies (scrubbed, tampered, replaced)."""
        return self._open([(trapdoor, extent)])[0]
