"""Epoch-partitioned trustworthy indexing.

Long-retention archives expire records in *cohorts*: everything written
in 1977 becomes disposable together in 2007.  A single monolithic index
makes that expensive — every posting list must be rewritten and
scrubbed per document.  The trustworthy-retention literature the paper
cites (Mitra, Hsu & Winslett) partitions the index by time instead:

* each *epoch* (e.g. a year) gets its own
  :class:`~repro.index.trustworthy.TrustworthyIndex` on its own device,
  keyed by an epoch-derived subkey;
* queries fan out across epochs (optionally restricted to a time
  window, which also makes time-scoped queries cheaper);
* when an epoch's retention expires, :meth:`EpochedIndex.drop_epoch`
  destroys the whole segment at once — shred the epoch key, zero the
  device — in O(segment) instead of O(documents × terms) rewrites.

``drop`` vs ``per-document delete`` is exactly the ablation
benchmarked in E5's epoch extension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.crypto.kdf import derive_key
from repro.errors import IndexError_
from repro.index.trustworthy import TrustworthyIndex
from repro.storage.block import BlockDevice, MemoryDevice


@dataclass(frozen=True)
class EpochStats:
    """Size/status of one epoch segment."""

    epoch: int
    documents: int
    vocabulary: int
    dropped: bool


class EpochedIndex:
    """A family of per-epoch trustworthy indexes with bulk expiry."""

    def __init__(
        self,
        master_key: bytes,
        epoch_seconds: float,
        segment_capacity: int = 1 << 22,
    ) -> None:
        if len(master_key) != 32:
            raise IndexError_("index master key must be 32 bytes")
        if epoch_seconds <= 0:
            raise IndexError_("epoch length must be positive")
        self._master_key = master_key
        self._epoch_seconds = float(epoch_seconds)
        self._segment_capacity = segment_capacity
        self._segments: dict[int, TrustworthyIndex] = {}
        self._dropped: set[int] = set()
        self._doc_epoch: dict[str, int] = {}

    # -- epoch plumbing -----------------------------------------------------

    def epoch_of(self, timestamp: float) -> int:
        return int(timestamp // self._epoch_seconds)

    def _segment_for(self, epoch: int) -> TrustworthyIndex:
        if epoch in self._dropped:
            raise IndexError_(f"epoch {epoch} was dropped; it cannot be reused")
        segment = self._segments.get(epoch)
        if segment is None:
            key = derive_key(self._master_key, f"epoch/{epoch}")
            segment = TrustworthyIndex(
                key, device=MemoryDevice(f"eidx-{epoch}", self._segment_capacity)
            )
            self._segments[epoch] = segment
        return segment

    def epochs(self) -> list[int]:
        """Live (non-dropped) epochs, sorted."""
        return sorted(set(self._segments) - self._dropped)

    def devices(self) -> list[BlockDevice]:
        return [self._segments[e].device for e in sorted(self._segments)]

    # -- document operations ----------------------------------------------------

    def add_document(self, document_id: str, text: str, timestamp: float) -> int:
        """Index a document into its creation epoch."""
        if document_id in self._doc_epoch:
            raise IndexError_(f"document {document_id} already indexed")
        epoch = self.epoch_of(timestamp)
        count = self._segment_for(epoch).add_document(document_id, text)
        self._doc_epoch[document_id] = epoch
        return count

    def delete_document(self, document_id: str):
        """Per-document secure deletion (the slow path the epoch design
        avoids for cohort expiry, still needed for one-off corrections)."""
        epoch = self._doc_epoch.get(document_id)
        if epoch is None or epoch in self._dropped:
            raise IndexError_(f"document {document_id} is not indexed")
        certificate = self._segments[epoch].delete_document(document_id)
        del self._doc_epoch[document_id]
        return certificate

    # -- queries --------------------------------------------------------------------

    def search(self, term: str) -> list[str]:
        """Fan-out query over all live epochs."""
        hits: list[str] = []
        for epoch in self.epochs():
            hits.extend(self._segments[epoch].search(term))
        return sorted(hits)

    def search_window(self, term: str, start: float, end: float) -> list[str]:
        """Query only the epochs overlapping ``[start, end)``."""
        if end <= start:
            return []
        first = self.epoch_of(start)
        # end is exclusive: step just below it so an end exactly on an
        # epoch boundary does not drag in the next epoch.
        last = self.epoch_of(math.nextafter(end, start))
        hits: list[str] = []
        for epoch in self.epochs():
            if first <= epoch <= last:
                hits.extend(self._segments[epoch].search(term))
        return sorted(hits)

    # -- bulk expiry -------------------------------------------------------------------

    def drop_epoch(self, epoch: int) -> int:
        """Destroy an entire epoch segment: zero its device and forget
        its documents.  Returns the number of documents destroyed.

        The segment's key material is derived (never stored), so once
        the ciphertext is gone there is nothing to decrypt; zeroing the
        device removes even the ciphertext.
        """
        segment = self._segments.get(epoch)
        if segment is None or epoch in self._dropped:
            raise IndexError_(f"epoch {epoch} has no live segment")
        segment.device.scrub(0, segment.device.used)
        dropped_docs = [
            doc for doc, doc_epoch in self._doc_epoch.items() if doc_epoch == epoch
        ]
        for doc in dropped_docs:
            del self._doc_epoch[doc]
        self._dropped.add(epoch)
        return len(dropped_docs)

    def expired_epochs(self, now: float, retention_seconds: float) -> list[int]:
        """Epochs whose *end* is older than the retention horizon."""
        return [
            epoch
            for epoch in self.epochs()
            if (epoch + 1) * self._epoch_seconds + retention_seconds <= now
        ]

    def stats(self) -> list[EpochStats]:
        """Per-epoch statistics (dropped epochs included, zeroed)."""
        rows = []
        for epoch in sorted(self._segments):
            if epoch in self._dropped:
                rows.append(EpochStats(epoch, 0, 0, dropped=True))
            else:
                segment = self._segments[epoch]
                rows.append(
                    EpochStats(
                        epoch,
                        len(segment),
                        segment.vocabulary_size,
                        dropped=False,
                    )
                )
        return rows
