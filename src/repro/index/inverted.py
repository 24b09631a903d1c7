"""Plaintext inverted index (the leaky baseline).

Term → sorted posting list of document ids, persisted to a journal in
cleartext.  Queries are fast; so is the adversary: a raw dump of the
device yields the full vocabulary and every (term, document) pair —
experiment E4's leakage probe demonstrates the "Cancer" inference the
paper warns about.
"""

from __future__ import annotations

from repro.errors import IndexError_
from repro.index.tokenizer import unique_terms
from repro.storage.block import BlockDevice, MemoryDevice
from repro.storage.journal import Journal
from repro.util.encoding import canonical_bytes


class InvertedIndex:
    """Conventional term → document-ids index, stored in cleartext."""

    def __init__(self, device: BlockDevice | None = None) -> None:
        self._journal = Journal(device or MemoryDevice("idx-dev", 1 << 22))
        self._postings: dict[str, set[str]] = {}
        self._documents: set[str] = set()

    @property
    def device(self) -> BlockDevice:
        return self._journal.device

    @property
    def vocabulary_size(self) -> int:
        return len(self._postings)

    def add_document(self, document_id: str, text: str) -> int:
        """Index a document; returns the number of distinct terms added."""
        if document_id in self._documents:
            raise IndexError_(f"document {document_id} already indexed")
        terms = unique_terms(text)
        for term in terms:
            self._postings.setdefault(term, set()).add(document_id)
            # Persist each (term, doc) pair in cleartext — this is the
            # leak surface the trustworthy index closes.
            self._journal.append(
                canonical_bytes({"op": "add", "term": term, "doc": document_id})
            )
        self._documents.add(document_id)
        return len(terms)

    def add_documents(self, documents: list[tuple[str, str]]) -> list[int]:
        """Index a batch of ``(document_id, text)`` pairs.

        Produces the same postings and the same cleartext journal
        frames as per-document :meth:`add_document` calls, but every
        (term, doc) frame lands in ONE batched device flush.  Returns
        the per-document distinct-term counts, in input order.
        """
        seen: set[str] = set()
        for document_id, _ in documents:
            if document_id in self._documents or document_id in seen:
                raise IndexError_(f"document {document_id} already indexed")
            seen.add(document_id)
        counts: list[int] = []
        payloads: list[bytes] = []
        for document_id, text in documents:
            terms = unique_terms(text)
            counts.append(len(terms))
            for term in terms:
                self._postings.setdefault(term, set()).add(document_id)
                payloads.append(
                    canonical_bytes({"op": "add", "term": term, "doc": document_id})
                )
            self._documents.add(document_id)
        if payloads:
            self._journal.append_many(payloads)
        return counts

    def search(self, term: str) -> list[str]:
        """Documents containing *term* (single-term lookup)."""
        return sorted(self._postings.get(term.lower(), set()))

    def search_all(self, terms: list[str]) -> list[str]:
        """Conjunctive query: documents containing every term."""
        if not terms:
            return []
        results: set[str] | None = None
        for term in terms:
            postings = self._postings.get(term.lower(), set())
            results = postings if results is None else results & postings
        return sorted(results or set())

    def remove_document(self, document_id: str, text: str) -> None:
        """Best-effort, idempotent removal.  Unknown documents and terms
        never indexed (or already removed) are no-ops — retry-safe, and
        only actual removals are journaled.  NOTE: the cleartext journal
        retains the historical (term, doc) pairs — deletion here is not
        secure, which is exactly what
        :meth:`repro.index.trustworthy.TrustworthyIndex.delete_document`
        fixes."""
        if document_id not in self._documents:
            return
        for term in unique_terms(text):
            postings = self._postings.get(term)
            if postings is None or document_id not in postings:
                continue
            postings.discard(document_id)
            if not postings:
                del self._postings[term]
            self._journal.append(
                canonical_bytes({"op": "del", "term": term, "doc": document_id})
            )
        self._documents.discard(document_id)

    def terms(self) -> list[str]:
        """The full vocabulary (trivially available to anyone)."""
        return sorted(self._postings)
