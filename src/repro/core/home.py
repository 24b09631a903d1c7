"""The record home: where this engine's WORM objects live, and the one
way objects come to live there.

:class:`RecordHome` owns the three things that are replaced together —
the :class:`~repro.worm.store.WormStore`, the
:class:`~repro.storage.media.Medium` under it, and the
:class:`~repro.retention.disposition.DispositionWorkflow` bound to it
— and the three operations every path that writes or re-homes record
objects goes through:

* :meth:`write` — the one frame assembly: seal versions, ONE WORM
  frame (with any attachment chunks and keyless archives riding in
  it), ONE custody signature per distinct reason;
* :meth:`adopt` — "these records' objects now live here": the
  directory entry, ownership of every object the record owns (which is
  how the disposition workflow finds an object's data key), retention
  terms (the originals given at :meth:`write`, or re-derived
  extend-only when they were lost), the dirty mark, the index
  document.  Used by the store/correct write path, recall, patient
  import, device recovery (warm and cold) and :meth:`install`;
* :meth:`install` — the one swap of store + medium + workflow, for
  restore, media refresh and recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.directory import RecordDirectory
from repro.crypto.keys import KeyHandle
from repro.crypto.signatures import Signer
from repro.errors import RecordNotFoundError
from repro.index.trustworthy import TrustworthyIndex
from repro.provenance.chain import CustodyRegistry
from repro.records.attachments import (
    AttachmentManifest,
    load_attachment,
    store_attachment,
)
from repro.records.ids import attachment_object_id, check_id, version_id
from repro.records.model import RecordType
from repro.records.versioning import RecordVersion, VersionChain
from repro.retention.disposition import DispositionWorkflow
from repro.retention.policy import RetentionPolicy
from repro.retention.shredder import SecureShredder
from repro.storage.media import Medium
from repro.util.clock import Clock
from repro.util.encoding import canonical_bytes, canonical_loads
from repro.worm.retention_lock import RetentionTerm
from repro.worm.store import StoredObject, WormStore

#: One WORM batch item: ``(object_id, bytes, retention term)``.
Item = tuple[str, bytes, RetentionTerm | None]


@dataclass(eq=False, repr=False, kw_only=True)
class RecordHome:
    """The WORM store this engine is home to, and the adopt path."""

    site_id: str
    retention_policy: RetentionPolicy
    clock: Clock
    #: seals and opens record bytes under per-record data keys
    #: (``cipher_for`` / ``seal_many`` / ``open``)
    sealer: Any
    signer: Signer
    custody: CustodyRegistry
    shredder: SecureShredder
    index: TrustworthyIndex
    directory: RecordDirectory
    worm: WormStore
    medium: Medium
    disposition: DispositionWorkflow = field(init=False)

    def __post_init__(self) -> None:
        self.install(self.worm, self.medium)

    def install(self, worm: WormStore, medium: Medium) -> None:
        """Make *worm* (on *medium*) the home of every record the
        directory knows: a fresh disposition workflow bound to it, every
        record re-adopted (handles, extend-only retention terms rebuilt
        from the chains, cold-authoritative records' warm copies left
        expatriated), litigation holds carried over, everything dirty
        and no cached plaintext kept."""
        # litigation holds are controller metadata too: they follow
        # their objects onto the new store
        for object_id in worm.object_ids():
            for hold_id in self.worm.retention.holds_on(object_id):
                worm.retention.place_hold(object_id, hold_id)
        self.worm = worm
        self.medium = medium
        self.disposition = DispositionWorkflow(
            worm, self.shredder, self.directory.key_for, clock=self.clock
        )
        self.adopt(
            [(chain, self.directory.keys[rid]) for rid, chain in self.directory.chains.items()],
            index=False,
            rederive=True,
        )
        self.directory.mark_all_dirty()

    # -- sealing and retention ----------------------------------------------

    def term_for(self, record_type: RecordType, start: float) -> RetentionTerm:
        """The retention term the configured policy gives a record of
        this type from *start*."""
        return self.retention_policy.term_for(record_type, start)

    def open(self, record_id: str, version: int) -> RecordVersion:
        """Fetch, digest-check and decrypt one warm version object."""
        object_id = version_id(record_id, version)
        plaintext = self.sealer.open(
            self.directory.keys[record_id],
            self.worm.get(object_id),
            object_id.encode("utf-8"),
        )
        return RecordVersion.from_dict(canonical_loads(plaintext))

    def held(self, record_id: str) -> bool:
        """Whether a litigation hold rests on any version of a record."""
        return any(
            self.worm.retention.holds_on(object_id)
            for object_id in self.directory.version_ids(record_id)
        )

    # -- the one frame assembly ----------------------------------------------

    def write(
        self,
        pairs: list[tuple[RecordVersion, KeyHandle]],
        chunks: list[Item] = (),
        plain: list[Item] = (),
        *,
        terms: dict[str, RetentionTerm] | None = None,
        origin: str | None = "",
    ) -> list[StoredObject]:
        """Seal each version in one vectorized AEAD pass — under its
        record's data key and a fresh nonce, with its WORM object id as
        the associated data — and write them, the already-sealed
        attachment *chunks* and the keyless *plain* archives as ONE WORM
        frame: a crash that tears it drops everything in it at recovery
        (no surviving prefix).  A version's term is ``terms[object_id]``
        when given, else the policy's term from its creation time.

        Then ONE custody signature per distinct reason over the versions
        and chunks (each origin event carries the shared batch-root
        signature plus its own inclusion proof, so tampering is still
        detected per object).  *origin* overrides the versions' own
        reasons; ``None`` signs nothing — a recall re-seals objects
        whose custody chains already exist."""
        now = self.clock.now()
        object_ids = [
            version_id(version.record.record_id, version.version_number)
            for version, _ in pairs
        ]
        blobs = self.sealer.seal_many(
            [
                (handle, canonical_bytes(version.to_dict()), object_id.encode("utf-8"))
                for (version, handle), object_id in zip(pairs, object_ids)
            ]
        )
        terms = terms or {}
        items: list[Item] = [
            (
                object_id,
                blob,
                terms.get(object_id)
                or self.term_for(version.record.record_type, version.created_at),
            )
            for (version, _), object_id, blob in zip(pairs, object_ids, blobs)
        ]
        metas = self.worm.put_many([*items, *chunks, *plain])
        if origin is not None:
            reasons = [origin or version.reason for version, _ in pairs]
            reasons += [origin or "attachment"] * len(chunks)
            origins: dict[str, list[tuple[str, bytes]]] = {}
            for meta, reason in zip(metas, reasons):
                origins.setdefault(reason, []).append(
                    (meta.object_id, meta.content_digest)
                )
            for reason, entries in origins.items():
                self.custody.record_origins(entries, self.signer, now, reason=reason)
        return metas

    # -- the one adopt path --------------------------------------------------

    def adopt(
        self,
        entries: list[tuple[VersionChain, KeyHandle]],
        *,
        index: bool = True,
        rederive: bool = False,
    ) -> None:
        """These records' objects now live here.

        Per record: the directory entry and dirty mark; every object it
        owns that the WORM store holds is claimed in the directory
        (where the disposition workflow looks its key up); with
        *rederive* the retention term is rebuilt from the chain — a
        version's from its own type and creation time, a chunk's from
        the chain head — and applied extend-only (restore and recovery
        write placeholder terms); a cold-authoritative record's warm
        copies stay expatriated.  With *index* the current text is
        (re-)posted — one index flush for the whole batch."""
        documents: list[tuple[str, str]] = []
        for chain, handle in entries:
            record_id = chain.record_id
            known = self.directory.own(chain, handle)
            object_ids = self.directory.objects_of(record_id)
            versions = len(chain)  # object_ids[:versions] are the versions
            if record_id in self.directory.cold:
                for object_id in object_ids[:versions]:
                    if object_id in self.worm:
                        self.worm.expatriate(object_id)
            present = [
                (n, oid) for n, oid in enumerate(object_ids) if oid in self.worm
            ]
            self.directory.claim(record_id, [oid for _, oid in present])
            if rederive:
                for n, object_id in present:
                    reference = chain.version(n) if n < versions else chain.latest()
                    term = self.term_for(
                        reference.record.record_type, reference.created_at
                    )
                    held = self.worm.retention.term_for(object_id)
                    if term.expires_at > held.expires_at:
                        self.worm.retention.extend_term(object_id, term.expires_at)
            if index:
                if known:
                    # the record's current text changes; old terms must
                    # not linger (secure deletion of the prior postings)
                    self.index.delete_document(record_id)
                documents.append(
                    (record_id, chain.latest().record.searchable_text())
                )
        if documents:
            self.index.add_documents(documents)

    # -- attachments ----------------------------------------------------------

    def stage_attachment(
        self,
        record_id: str,
        handle: KeyHandle,
        attachment_id: str,
        data: bytes,
        content_type: str,
        term: RetentionTerm,
    ) -> tuple[AttachmentManifest, list[Item]]:
        """Chunk and seal an attachment in memory under the record's
        data key; returns its manifest and the chunk items, ready to
        ride one :meth:`write` frame (a torn attach leaves nothing)."""
        check_id(attachment_id, "attachment id")
        chunks: list[Item] = []
        manifest = store_attachment(
            attachment_id,
            data,
            self.sealer.cipher_for(handle),
            lambda chunk_id, blob: chunks.append(
                (attachment_object_id(record_id, chunk_id), blob, term)
            ),
            content_type=content_type,
        )
        return manifest, chunks

    def read_attachment(self, record_id: str, attachment_id: str) -> bytes:
        """Fetch, decrypt and verify one attachment end to end."""
        manifest = self.directory.attachments.get(record_id, {}).get(attachment_id)
        if manifest is None:
            raise RecordNotFoundError(
                f"record {record_id} has no attachment {attachment_id}"
            )
        return load_attachment(
            manifest,
            self.sealer.cipher_for(self.directory.keys[record_id]),
            lambda chunk_id: self.worm.get(attachment_object_id(record_id, chunk_id)),
        )

    def handles(self) -> dict[str, KeyHandle]:
        """``object id -> key handle`` for every live WORM object a
        record owns (keyless archives have no entry)."""
        return {
            object_id: handle
            for object_id in self.worm.object_ids()
            if (handle := self.directory.key_for(object_id)) is not None
        }
