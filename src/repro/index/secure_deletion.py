"""Secure deletion from inverted indexes.

Motivated by Mitra & Winslett (StorageSS'06): when a record passes its
retention period and is destroyed, the *index* must forget it too —
otherwise posting lists remain a forensic copy of the record's
vocabulary ("the record said Cancer") long after the record is gone.

:class:`SecureDeletionIndex` wraps a
:class:`~repro.index.trustworthy.TrustworthyIndex` and makes deletion a
two-step, verifiable operation:

1. **rewrite** — every posting-list chunk containing the document is
   re-encrypted without it (fresh nonce, bumped chunk version); chunks
   that never held it are left alone;
2. **scrub** — the superseded ciphertext versions' device extents are
   physically overwritten with zeros, so even the adversary who later
   obtains the index key cannot decrypt a stale chunk and learn the
   deleted document's terms.

:meth:`SecureDeletionIndex.forensic_residue` is the auditor's check:
given full raw-device access *and* the index keys (worst case), can the
deleted document still be associated with any term?
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CuratorError, IndexError_
from repro.index.trustworthy import ChunkExtent, TrustworthyIndex


@dataclass(frozen=True)
class DeletionCertificate:
    """Evidence of a completed secure deletion."""

    document_id: str
    lists_rewritten: int
    versions_scrubbed: int
    bytes_scrubbed: int


class SecureDeletionIndex:
    """Trustworthy index with physical, verifiable forgetting."""

    def __init__(self, index: TrustworthyIndex) -> None:
        self._index = index

    @property
    def index(self) -> TrustworthyIndex:
        return self._index

    def add_document(self, document_id: str, text: str) -> int:
        return self._index.add_document(document_id, text)

    def add_documents(self, documents: list[tuple[str, str]]) -> list[int]:
        return self._index.add_documents(documents)

    def search(self, term: str) -> list[str]:
        return self._index.search(term)

    def search_all(self, terms: list[str]) -> list[str]:
        return self._index.search_all(terms)

    def delete_document(self, document_id: str) -> DeletionCertificate:
        """Securely remove a document from the index."""
        if not document_id:
            raise IndexError_("document id must not be empty")
        affected = self._index.rewrite_lists_without(document_id)
        superseded = self._index.clear_superseded(affected)
        return DeletionCertificate(
            document_id=document_id,
            lists_rewritten=len(affected),
            versions_scrubbed=len(superseded),
            bytes_scrubbed=self._scrub(superseded),
        )

    def scrub_all_superseded(self) -> int:
        """Housekeeping: scrub every superseded version (e.g. after bulk
        updates), returning bytes overwritten.  Keeps the device free of
        decryptable stale chunks even outside deletions."""
        all_trapdoors = list(self._index.superseded_versions())
        return self._scrub(self._index.clear_superseded(all_trapdoors))

    def _scrub(self, extents: list[ChunkExtent]) -> int:
        """Zero the device bytes of *extents*; returns bytes overwritten."""
        device = self._index.device
        for extent in extents:
            device.raw_write(extent.device_offset, bytes(extent.size))
        return sum(extent.size for extent in extents)

    def forensic_residue(self, document_id: str) -> list[str]:
        """Worst-case forensic check: with the index keys in hand,
        decrypt every *current* and every *stale-but-unscrubbed* chunk
        version and report the terms' trapdoors still naming the
        document.  Empty list == the index has verifiably forgotten it.
        """
        residue: set[str] = set()
        # Current chunks (should have been rewritten).
        for trapdoor, extents in self._index.chunk_extents().items():
            for extent in extents:
                if document_id in self._index.open_extent(trapdoor, extent):
                    residue.add(trapdoor)
        # Stale versions: anything unscrubbed and still decryptable.
        for trapdoor, extents in self._index.superseded_versions().items():
            for extent in extents:
                try:
                    documents = self._index.open_extent(trapdoor, extent)
                except CuratorError:
                    continue  # scrubbed or undecodable: no posting info left
                if document_id in documents:
                    residue.add(trapdoor)
        return sorted(residue)
