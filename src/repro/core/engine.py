"""The Curator storage engine.

Composition (bottom-up): a media pool provides the active device; a
WORM store holds one write-once object per *record version*, each AEAD-
encrypted under its own per-record key; a trustworthy index covers the
current versions; every operation (including denials) lands in the
hash-chained audit log, periodically anchored to an external witness;
custody chains record origin and transfers; retention terms from the
regulation schedules gate disposal, which runs the identify→approve→
execute workflow and ends in key shredding + extent overwrite + index
forgetting.

Trust model: the engine process and the master key (HSM) are trusted;
every byte on every device is not — the insider adversary reads and
writes devices at will, and all guarantees are stated against that.

The engine implements the common
:class:`~repro.baselines.interface.StorageModel` interface so the E1
harness evaluates it exactly as it evaluates the baselines, plus the
richer native API (versions, break-glass, disposition, backup, media
refresh) the examples and experiments use.

:class:`CuratorStore` itself holds construction (one wiring, shared by
``__init__`` and device recovery: every store opens its device, blank
or surviving) and the write, read and disposal paths: ``store`` /
``store_many``, one audited read behind ``read`` and ``read_version``,
``correct``, ``search``, ``dispose``, attachments, holds.  What is *not*
in this file any more, and where it lives — each part built from the
collaborators it uses, none handed the store:

* the shapes of object ids — :mod:`repro.records.ids`;
* what the engine knows per record (chains, key handles, manifests,
  tier, dirty set, read cache, patient and ownership indexes) —
  :mod:`repro.core.directory`;
* the WORM store / medium / disposition workflow, the frame assembly,
  the adopt path and the swap — :mod:`repro.core.home`;
* demote / recall / candidates / sweep and the tier-aware version
  reads — :mod:`repro.core.tiering`;
* patient export / import / retire and imported audit segments —
  :mod:`repro.core.transfer`, which the cluster calls as ``transfer``;
* backup / restore / media refresh / device recovery —
  :mod:`repro.core.recovery`;
* every access decision, break-glass — :mod:`repro.core.access`;
* integrity and audit-trail verdicts, the accounting of disclosures,
  audit-event proofs — :mod:`repro.core.verification`;
* the anchor cadence and witness quorum —
  :class:`repro.audit.anchors.AnchorSchedule`, whose ``append`` is how
  every event of this file and the parts above reaches the chain.
"""

from __future__ import annotations

from typing import Any

from repro.access.breakglass import BreakGlassController
from repro.access.policies import ConsentRegistry, minimum_necessary_view
from repro.access.principals import User, Workforce
from repro.access.rbac import Permission, Purpose
from repro.archive import ColdStore, DemotionPolicy
from repro.audit.anchors import AnchorSchedule, AnchorWitness
from repro.audit.checkpoint import CheckpointStore
from repro.audit.events import AuditAction
from repro.audit.log import AuditLog
from repro.audit.query import AuditQuery
from repro.backup.manager import BackupManager, RestoreReport
from repro.backup.vault import BackupVault
from repro.baselines.interface import StorageModel, VerificationReport
from repro.core.access import Access
from repro.core.config import CuratorConfig
from repro.core.directory import RecordDirectory
from repro.core.home import RecordHome
from repro.core.recovery import Recovery, RecoveryReport, certified_hole
from repro.core.tiering import Tiering
from repro.core.transfer import PatientTransfer
from repro.core.verification import Verification
from repro.crypto.aead import AeadCipher, AeadCiphertext
from repro.crypto.aead import encrypt_many as aead_encrypt_many
from repro.crypto.ed25519 import purge_ed25519_memo
from repro.crypto.hmac_utils import hmac_sha256
from repro.crypto.kdf import derive_key
from repro.crypto.keys import KeyHandle, KeyStore
from repro.crypto.signatures import Signer, TrustStore, purge_signature_memo
from repro.errors import RecordError
from repro.index.trustworthy import TrustworthyIndex
from repro.policy import PolicyEngine, PolicyEnv
from repro.policy.rules import DEFAULT_RULES
from repro.provenance.chain import CustodyRegistry
from repro.records.ids import SEARCH, attachment_object_id
from repro.records.model import HealthRecord
from repro.records.phi import deidentify
from repro.records.versioning import VersionChain
from repro.retention.disposition import DispositionCertificate
from repro.retention.shredder import SecureShredder
from repro.storage.block import BlockDevice, MemoryDevice
from repro.storage.media import MediaPool, Medium
from repro.util.metrics import METRICS
from repro.worm.store import WormStore

SIGNATURE_BITS = 768  # simulation-scale; see crypto.rsa docs


class Sealer:
    """AEAD under per-record data keys: the one place record bytes are
    sealed and opened.  Every sealed object names what it is in its
    associated data (a version's WORM object id, a cold member's
    segment and record), so a blob moved to another slot fails its tag."""

    def __init__(self, keystore: KeyStore) -> None:
        self._keystore = keystore

    def cipher_for(self, handle: KeyHandle) -> AeadCipher:
        return self._keystore.cipher_for(handle)

    def seal_many(self, items: list[tuple[KeyHandle, bytes, bytes]]) -> list[bytes]:
        """Seal ``(key handle, plaintext, associated data)`` items in
        one vectorized pass, each under a fresh random nonce."""
        boxes = aead_encrypt_many(
            [(self.cipher_for(handle), data, ad) for handle, data, ad in items]
        )
        return [box.to_bytes() for box in boxes]

    def open(self, handle: KeyHandle, blob: bytes, associated_data: bytes) -> bytes:
        return self.cipher_for(handle).decrypt(
            AeadCiphertext.from_bytes(blob), associated_data=associated_data
        )


class CuratorStore(StorageModel):
    """The hybrid compliant store (see package docstring)."""

    model_name = "curator"

    def __init__(self, config: CuratorConfig) -> None:
        self._wire(config)

    def _wire(
        self,
        config: CuratorConfig,
        *,
        worm_device: BlockDevice | None = None,
        key_device: BlockDevice | None = None,
        audit_device: BlockDevice | None = None,
        checkpoint_device: BlockDevice | None = None,
        cold_device: BlockDevice | None = None,
        signer: Signer | None = None,
        witnesses: list[AnchorWitness] | None = None,
    ) -> None:
        """The one construction wiring: every device-backed store opens
        its device.  ``__init__`` passes none, so each opens a blank
        device (and the WORM store a freshly provisioned medium);
        :meth:`recover_from_devices` passes the surviving images under
        the :meth:`device_set` names, plus the signer and witnesses that
        outlive a process crash.  Collaborators are plain attributes,
        set once here; ``worm``, ``medium`` and ``witness`` are
        properties, as a swap or the anchor schedule moves them."""
        self._config = config
        self._clock = config.clock
        capacity = config.device_capacity
        # crypto / keys — the keystore escrows every wrapped key to its
        # own device, replayed on open under the HSM-held master key
        self._keystore = KeyStore(
            config.master_key,
            clock=self._clock,
            device=key_device or MemoryDevice("curator-keys", capacity),
        )
        self.signer = signer or Signer(
            config.site_id,
            keypair=config.signing_keypair,
            bits=SIGNATURE_BITS,
        )
        self._trust = TrustStore()
        self._trust.add(self.signer.verifier())
        # index — derived data: a recovered engine re-posts it from the
        # decrypted current versions
        index_key = derive_key(config.master_key, "curator/index")
        self.index = TrustworthyIndex(
            index_key, device=MemoryDevice("curator-idx", capacity)
        )
        # audit — the checkpoint store persists verified watermarks on
        # its own device, MAC-sealed under a key derived from the HSM-
        # held master key (forge-proof against the raw-device insider);
        # the log replays and verifies its chain on open
        self.checkpoints = CheckpointStore(
            device=checkpoint_device or MemoryDevice("curator-ckpt", capacity),
            key=derive_key(config.master_key, "curator/audit-checkpoint"),
            clock=self._clock,
        )
        self.audit_log = AuditLog(
            device=audit_device or MemoryDevice("curator-audit", capacity),
            clock=self._clock,
            checkpoints=self.checkpoints,
            spot_checks=config.audit_spot_checks,
            full_rescan_every=config.audit_full_rescan_every,
        )
        self._anchors = AnchorSchedule(
            self.audit_log,
            self.signer,
            self._clock,
            witnesses
            or [
                AnchorWitness(self.signer.verifier())
                for _ in range(config.witness_count)
            ],
            every=config.anchor_every_events,
        )
        # access control — one declarative policy engine decides every
        # allow-or-deny (RBAC, consent, treating relationship, break-
        # glass) with an explainable trace; the registries below only
        # answer facts for its conditions
        self._workforce = Workforce()
        self.consent = ConsentRegistry()
        self.breakglass = BreakGlassController(clock=self._clock)
        self.policy = PolicyEngine(
            DEFAULT_RULES,
            env=PolicyEnv(
                consent=self.consent,
                breakglass=self.breakglass,
                clock=self._clock,
            ),
        )
        # provenance: the signed custody chains
        self.custody = CustodyRegistry(self._trust)
        # cold tier: compacted segments on their own device
        self.cold = ColdStore(
            device=cold_device
            or MemoryDevice("curator-cold", config.cold_device_capacity),
            clock=self._clock,
        )
        # retention / disposal
        self._shredder = SecureShredder(self._keystore)
        # Derived-material memos die with every shred: the verifier's
        # aggregated-signature root memo, the ed25519 key-expansion memo
        # (both regenerate from material a destruction may cover) and
        # the cold store's decrypted member plaintexts.
        self._shredder.bind_cache(purge_signature_memo)
        self._shredder.bind_cache(purge_ed25519_memo)
        self._shredder.bind_cache(self.cold.purge_cache)
        # backup
        self.vault = BackupVault(f"{config.site_id}-offsite")
        # the parts (see the module docstring)
        self._dir = RecordDirectory(config.read_cache_size)
        self.media_pool = MediaPool(
            clock=self._clock, default_capacity=config.device_capacity
        )
        medium = (
            self.media_pool.adopt(worm_device)
            if worm_device is not None
            else self.media_pool.provision()
        )
        self._home = RecordHome(
            site_id=config.site_id,
            retention_policy=config.retention_policy,
            clock=self._clock,
            sealer=Sealer(self._keystore),
            signer=self.signer,
            custody=self.custody,
            shredder=self._shredder,
            index=self.index,
            directory=self._dir,
            worm=WormStore(
                device=medium.device,
                clock=self._clock,
                salvage_check=certified_hole(self._keystore),
            ),
            medium=medium,
        )
        self._tiering = Tiering(home=self._home, cold=self.cold, anchors=self._anchors)
        self._access = Access(
            workforce=self._workforce,
            breakglass=self.breakglass,
            policy=self.policy,
            anchors=self._anchors,
            directory=self._dir,
        )
        self.transfer = PatientTransfer(
            home=self._home,
            tiering=self._tiering,
            keystore=self._keystore,
            audit=self.audit_log,
            anchors=self._anchors,
            consent=self.consent,
            breakglass=self.breakglass,
            workforce=self._workforce,
        )
        self._verification = Verification(
            home=self._home,
            tiering=self._tiering,
            transfer=self.transfer,
            access=self._access,
            audit=self.audit_log,
            anchors=self._anchors,
            clean_sample=config.integrity_clean_sample,
        )
        self._recovery = Recovery(
            home=self._home,
            tiering=self._tiering,
            transfer=self.transfer,
            keystore=self._keystore,
            audit=self.audit_log,
            anchors=self._anchors,
            media_pool=self.media_pool,
            backup=BackupManager(self.vault, clock=self._clock),
            trust=self._trust,
        )
        # Populated only on engines built by recover_from_devices().
        self.recovery_report: RecoveryReport | None = None

    # ------------------------------------------------------------------
    # principals
    # ------------------------------------------------------------------

    def register_user(self, user: User) -> None:
        """Enroll a workforce member."""
        self._workforce.register(user)

    def principal(self, actor_id: str) -> User | None:
        """The enrolled workforce member behind *actor_id* (``None`` if
        unknown here) — lets a frontend replicate enrollment."""
        return self._workforce.resolve(actor_id)

    def break_glass(self, actor_id: str, patient_id: str, justification: str):
        """Emergency access: grant + mandatory audit event."""
        return self._access.break_glass(actor_id, patient_id, justification)

    def revoke_break_glass(self, grant_id: str):
        """Revoke an emergency grant; purge what its reads cached."""
        return self._access.revoke_break_glass(grant_id)

    # ------------------------------------------------------------------
    # cold tier (see repro.core.tiering)
    # ------------------------------------------------------------------

    def _recall(self, record_id: str, actor_id: str) -> None:
        """Bring a cold record back to the warm tier before an operation
        that needs every version in one tier (no-op when warm)."""
        if record_id in self._dir.cold:
            self._tiering.recall(record_id, actor_id=actor_id)

    def demote_records(
        self, record_ids: list[str], *, actor_id: str = "archive-tiering"
    ) -> list[str]:
        """Compact *record_ids* into one cold segment (skipping records
        under litigation hold, already cold, or disposed); returns the
        ones demoted.  See :meth:`repro.core.tiering.Tiering.demote` for
        the commit protocol."""
        return self._tiering.demote(record_ids, actor_id=actor_id)

    def demotion_sweep(
        self,
        policy: DemotionPolicy | None = None,
        *,
        actor_id: str = "archive-tiering",
    ) -> list[str]:
        """Evaluate the demotion policy and compact every eligible
        record into cold segments (one per ``max_segment_records``)."""
        return self._tiering.sweep(policy, actor_id=actor_id)

    def cold_record_ids(self) -> list[str]:
        return sorted(self._dir.cold)

    def tier_stats(self) -> dict[str, int]:
        """Per-tier occupancy and on-device footprint."""
        return self._tiering.stats()

    # ------------------------------------------------------------------
    # StorageModel interface
    # ------------------------------------------------------------------

    def store(self, record: HealthRecord, author_id: str) -> None:
        """Store one new record: a batch of one."""
        self.store_many([record], author_id)

    def store_many(self, records: list[HealthRecord], author_id: str) -> int:
        """Store new records — the only ingest path; returns how many.

        A batch costs four device writes however many records it holds:
        one escrow flush (a frame per wrapped key), one WORM frame, one
        index frame (a box per touched list, and one per chunk it seals)
        and one audit flush (``begin_batch`` / ``commit``, a frame per event).
        Per record the chain digest, Merkle leaf and anchor cadence are
        computed one event at a time, so N batches of one and one batch
        of N leave byte-identical audit chains.  Validation is
        all-or-nothing before any state changes.
        """
        seen: set[str] = set()
        for record in records:
            if record.record_id in self._dir.chains:
                raise RecordError(f"record {record.record_id} already exists")
            if record.record_id in seen:
                raise RecordError(f"record {record.record_id} duplicated in batch")
            seen.add(record.record_id)
        if not records:
            return 0
        self.audit_log.begin_batch()
        try:
            handles = self._keystore.create_keys(
                [record.record_id for record in records]
            )
            chains = []
            for record in records:
                self._workforce.note_author(author_id, record.patient_id)
                chain = VersionChain(record.record_id)
                chain.append_initial(record, author_id, self._clock.now())
                chains.append(chain)
            self._home.write(
                [(chain.latest(), handle) for chain, handle in zip(chains, handles)]
            )
            for record in records:
                self._dir.last_access[record.record_id] = self._clock.now()
                self._anchors.append(
                    AuditAction.RECORD_CREATED, author_id, record.record_id,
                    {"type": record.record_type.value, "patient": record.patient_id},
                )
            self._home.adopt(list(zip(chains, handles)))
        finally:
            self.audit_log.commit()
        METRICS.incr("store_many_batches")
        METRICS.incr("store_many_records", len(records))
        return len(records)

    def _read(
        self,
        record_id: str,
        version: int | None,
        actor_id: str,
        purpose: Purpose | None = None,
    ) -> HealthRecord:
        """The one audited read: decide first (so a denied actor learns
        nothing, not even how many versions a record has), then bound
        the version (``None`` = current), then serve it — from the read
        cache when it is the cached current version, else from its tier."""
        with self._access.audited_record(
            AuditAction.RECORD_READ, record_id, actor_id, Permission.READ_RECORD, purpose
        ) as (chain, detail):
            current = len(chain) - 1
            if version is None:
                version = current
            elif not 0 <= version <= current:
                raise RecordError(f"record {record_id} has no version {version}")
            record = self._dir.cached(record_id, version)
            if record is not None:
                METRICS.incr("read_cache_hits")
                METRICS.incr("tier_hot_hits")
            else:
                METRICS.incr("read_cache_misses")
                if record_id in self._dir.cold:
                    METRICS.incr("tier_cold_reads")
                else:
                    METRICS.incr("tier_warm_reads")
                record = self._tiering.open_version(record_id, version).record
                if version == current:
                    self._dir.cache(record_id, version, record)
            self._dir.last_access[record_id] = self._clock.now()
            detail["version"] = version
            return record

    def read(
        self,
        record_id: str,
        *,
        actor_id: str,
        purpose: Purpose | None = None,
    ) -> HealthRecord:
        return self._read(record_id, None, actor_id, purpose)

    def read_view(self, record_id: str, actor_id: str) -> dict[str, Any]:
        """Read with the minimum-necessary projection for the actor's role."""
        record = self.read(record_id, actor_id=actor_id)
        user = self._workforce.resolve(actor_id)
        assert user is not None  # read() would have raised
        role = next(iter(sorted(user.roles, key=lambda r: r.value)))
        return minimum_necessary_view(record, role)

    def read_version(
        self, record_id: str, version: int, *, actor_id: str
    ) -> HealthRecord:
        """Read one historical version, under the same authorization and
        audit as :meth:`read`."""
        return self._read(record_id, version, actor_id)

    def correct(self, corrected: HealthRecord, author_id: str, reason: str) -> None:
        record_id = corrected.record_id
        with self._access.audited_record(
            AuditAction.RECORD_CORRECTED, record_id, author_id,
            Permission.CORRECT_RECORD, Purpose.TREATMENT,
        ) as (chain, detail):
            # a correction makes the record active again: recall first,
            # so every version lives in one tier
            self._recall(record_id, "system")
            version = chain.append_correction(corrected, author_id, reason, self._clock.now())
            handle = self._dir.keys[record_id]
            self._home.write([(version, handle)])
            self._dir.last_access[record_id] = self._clock.now()
            # Re-adopting purges the superseded version from the read
            # cache and re-indexes the record's current text.
            self._home.adopt([(chain, handle)])
            detail.update(version=version.version_number, reason=reason,
                          previous_digest=version.previous_digest)

    def search(self, term: str, *, actor_id: str) -> list[str]:
        # Audit the keyed trapdoor, never the plaintext term: the audit
        # log persists to a device, and a cleartext term there would be
        # exactly the "Cancer" leak the trustworthy index closes.  The
        # privacy officer can recompute the trapdoor to match queries.
        commitment = self.index.trapdoor(term)[:16]
        subject = f"{SEARCH}{commitment}"
        with self._access.audited(
            AuditAction.RECORD_SEARCHED, actor_id, Permission.SEARCH_RECORDS, "",
            Purpose.TREATMENT, subject,
        ) as detail:
            hits = self.index.search(term)
            detail["hits"] = len(hits)
        return [record_id for record_id in hits if record_id not in self._dir.disposed]

    def dispose(
        self, record_id: str, *, actor_id: str
    ) -> list[DispositionCertificate]:
        """Full compliant disposal of every version of a record,
        attributed to the workforce member who approved it.  A cold
        record is recalled first so the identify→approve→execute
        workflow (and its certificates) runs against warm extents, then
        its cold residue — every segment extent the member ever
        occupied, plus the member cache — is scrubbed."""
        self._dir.chain_for(record_id)
        self._recall(record_id, actor_id)
        now = self._clock.now()
        # attachment chunks share the record's fate: the directory names
        # every object the record owns
        object_ids = self._dir.objects_of(record_id)
        # every version and chunk must be past retention and hold-free
        for object_id in object_ids:
            self.worm.retention.check_deletable(object_id, now)
        disposition = self._home.disposition
        disposition.identify()
        certificates = []
        for object_id in object_ids:
            if object_id in disposition.pending():
                disposition.approve(object_id, actor_id)
                certificates.append(disposition.execute(object_id))
        # index must forget the record, verifiably
        self.index.delete_document(record_id)
        # coordinated cryptographic deletion in backups
        if not self.vault.destroyed:
            self.vault.shred_key(self._dir.keys[record_id].key_id)
        # cold residue: the key shredding above already killed any
        # sealed member cryptographically; zero the extents too (and the
        # bind_cache hook purged the decrypted member cache with it)
        cold_extents = self.cold.scrub_record(record_id)
        # ... and so must the read cache: a disposed record served from
        # memory would defeat the key shredding above.
        self._dir.mark_disposed(record_id)
        self._anchors.append(
            AuditAction.RECORD_DISPOSED, actor_id, record_id,
            {
                "versions": len(object_ids),
                "certificates": len(certificates),
                "cold_extents": len(cold_extents),
            },
        )
        return certificates

    def export_deidentified(
        self, record_id: str, *, actor_id: str
    ) -> HealthRecord:
        """Research export: Safe-Harbor de-identification, audited.  The
        pseudonym is a keyed digest of the patient id under a key
        derived from the master key — stable across processes, wide
        enough not to collide, and not dictionary-matchable from a
        low-entropy patient id."""
        with self._access.audited_record(
            AuditAction.RECORD_EXPORTED, record_id, actor_id,
            Permission.EXPORT_DEIDENTIFIED, Purpose.RESEARCH,
        ) as (chain, _):
            record = self._tiering.open_version(record_id, len(chain) - 1).record
        key = derive_key(self._config.master_key, "curator/pseudonym")
        tag = hmac_sha256(key, record.patient_id.encode("utf-8"))[:8]
        return deidentify(record, pseudonym=f"case-{tag.hex()}")

    def record_ids(self) -> list[str]:
        return self._dir.record_ids()

    def version_count(self, record_id: str) -> int:
        return len(self._dir.chain_for(record_id))

    # ------------------------------------------------------------------
    # harness surfaces
    # ------------------------------------------------------------------

    def devices(self) -> list[BlockDevice]:
        return [
            self.worm.device,
            self.index.device,
            self.audit_log.device,
            self._keystore.device,
            self.checkpoints.device,
            self.cold.device,
        ]

    def device_set(self) -> dict[str, BlockDevice]:
        """The devices a restart opens, under the keyword names
        :meth:`_wire` and :meth:`recover_from_devices` take (the index
        is derived data, rebuilt on a fresh device)."""
        return {
            "worm_device": self.worm.device,
            "key_device": self._keystore.device,
            "audit_device": self.audit_log.device,
            "checkpoint_device": self.checkpoints.device,
            "cold_device": self.cold.device,
        }

    def verify_integrity(self, incremental: bool = False) -> VerificationReport:
        """Integrity verdict (see :class:`repro.core.verification.Verification`)."""
        return self._verification.verify_integrity(incremental)

    def audit_events(self) -> list[dict[str, Any]]:
        return [event.to_dict() for event in self.audit_log.events()]

    def audit_devices(self) -> list[BlockDevice]:
        return [self.audit_log.device]

    def verify_audit_trail(self, incremental: bool = False) -> VerificationReport:
        return self._verification.verify_audit_trail(incremental)

    def audit_query(self) -> AuditQuery:
        """Forensic query interface (verifies the chain first)."""
        return AuditQuery(self.audit_log)

    # ------------------------------------------------------------------
    # binary attachments (imaging, scanned documents)
    # ------------------------------------------------------------------

    def attach(
        self,
        record_id: str,
        attachment_id: str,
        data: bytes,
        *,
        actor_id: str,
        content_type: str = "application/octet-stream",
    ):
        """Attach a binary payload (e.g. imaging) to a record.

        Chunks are AEAD-encrypted under the record's data key and stored
        as WORM objects — ONE frame however many chunks, so a torn
        attach leaves nothing — carrying the record's retention term, so
        the attachment inherits retention, integrity, and key-shredding
        disposal from its record.
        """
        chain = self._dir.chain_for(record_id)
        handle = self._dir.keys[record_id]
        term = self._home.term_for(
            chain.latest().record.record_type, self._clock.now()
        )
        manifest, chunks = self._home.stage_attachment(
            record_id, handle, attachment_id, data, content_type, term
        )
        self._home.write([], chunks)
        self._dir.attachments.setdefault(record_id, {})[attachment_id] = manifest
        self._home.adopt([(chain, handle)], index=False)
        self._anchors.append(
            AuditAction.RECORD_CREATED,
            actor_id,
            attachment_object_id(record_id, attachment_id),
            {"bytes": len(data), "chunks": len(manifest.chunk_ids),
             "content_type": content_type},
        )
        return manifest

    def read_attachment(
        self, record_id: str, attachment_id: str, *, actor_id: str
    ) -> bytes:
        """Read an attachment with full authorization + verification."""
        subject_id = attachment_object_id(record_id, attachment_id)
        with self._access.audited_record(
            AuditAction.RECORD_READ, record_id, actor_id, Permission.READ_RECORD,
            subject_id=subject_id,
        ):
            return self._home.read_attachment(record_id, attachment_id)

    def attachments_of(self, record_id: str) -> list[str]:
        """Attachment ids carried by a record."""
        self._dir.chain_for(record_id)
        return sorted(self._dir.attachments.get(record_id, {}))

    def records_of_patient(self, patient_id: str) -> list[str]:
        """Live record ids belonging to one patient."""
        return self._dir.records_of_patient(patient_id)

    def records_in_window(self, start: float, end: float) -> list[str]:
        """Live records created in ``[start, end)`` — the time-range
        query audits and chart reviews need."""
        return sorted(
            record_id
            for record_id in self.record_ids()
            if start <= self._dir.chains[record_id].version(0).record.created_at < end
        )

    def accounting_of_disclosures(self, patient_id: str, *, actor_id: str):
        """The HIPAA accounting of disclosures for one patient, imported
        segments included; the request itself is authorized and audited."""
        return self._verification.accounting_of_disclosures(patient_id, actor_id=actor_id)

    def prove_audit_event(self, sequence: int):
        """``(event, chain_prev, proof, anchor)`` for one audit event,
        anchoring first if no anchor covers it yet."""
        return self._verification.prove_audit_event(sequence)

    def patient_ids(self) -> list[str]:
        """Every patient with at least one live record on this engine
        (the cluster's census; moves go through :attr:`transfer`)."""
        return self._dir.patient_ids()

    def declared_features(self) -> frozenset[str]:
        return frozenset({
            "correct", "dispose", "search", "audit", "access_control", "integrity",
            "retention", "encryption", "migration_verifiable", "provenance", "backup",
        })

    # ------------------------------------------------------------------
    # operations: backup, media refresh, recovery (see
    # repro.core.recovery), retention sweeps
    # ------------------------------------------------------------------

    def create_backup(
        self, *, incremental: bool = False, actor_id: str
    ):
        """Snapshot the WORM store + wrapped keys to the off-site vault,
        attributed to the operator who ran it."""
        return self._recovery.create_backup(incremental=incremental, actor_id=actor_id)

    def restore_from_backup(
        self, snapshot_id: str, *, actor_id: str
    ) -> RestoreReport:
        """Disaster recovery: rebuild the WORM store from the vault."""
        return self._recovery.restore_from_backup(snapshot_id, actor_id=actor_id)

    @classmethod
    def recover_from_devices(
        cls,
        config: CuratorConfig,
        *,
        worm_device: BlockDevice,
        key_device: BlockDevice,
        audit_device: BlockDevice,
        checkpoint_device: BlockDevice | None = None,
        cold_device: BlockDevice | None = None,
        witnesses: list[AnchorWitness] | None = None,
        signer: Signer | None = None,
    ) -> "CuratorStore":
        """Restart the engine from surviving device images after a crash:
        :meth:`_wire` on the images (named as in :meth:`device_set`),
        then :meth:`Recovery.replay <repro.core.recovery.Recovery.replay>`.
        Only the checkpoint and cold images may be left out (they open
        blank): a blank WORM, key or audit device would silently lose
        every record, key or custody marker.

        Trust model of the restart: devices survive (that is what they
        are for); the HSM-held material — master key and, optionally,
        the anchor-signing key — survives; external anchor witnesses
        survive.  Everything in process memory is gone.

        What is rebuilt, and from where (the first three are the checks
        every store runs when it opens its device, blank or not):

        * **keys** — replayed from the escrow journal (wrapped under the
          master key); physically-destroyed frames recover as shredded;
        * **records** — the WORM frame walk drops a torn frame whole
          (so a torn ``store_many`` batch has no surviving prefix) but
          salvages frames broken by an interrupted authorized shred;
          versions decrypt under the recovered keys and re-chain;
        * **audit** — the hash chain replays from its journal and must
          verify (a log that does not verify raises
          :class:`~repro.errors.AuditError` rather than being adopted);
        * **index** — derived data: re-posted from the decrypted current
          versions, so it is consistent with surviving records by
          construction;
        * **retention** — terms re-derived from each version's record
          type and creation time under the configured policy;
        * **media age** — the WORM medium keeps the date the audit chain
          says it entered service, so a restart never makes it young.

        In-memory-only state is honestly lost: attachment manifests
        (chunks become ``orphaned`` in the report), the custody chains,
        enrolled users, break-glass grants, consent
        directives, and the off-site vault binding.
        """
        store = cls.__new__(cls)
        store._wire(
            config, worm_device=worm_device, key_device=key_device,
            audit_device=audit_device, checkpoint_device=checkpoint_device,
            cold_device=cold_device, signer=signer, witnesses=witnesses,
        )
        store.recovery_report = store._recovery.replay()
        return store

    def refresh_media(self) -> Medium:
        """Migrate the archive to a fresh medium (aging hardware), with
        manifest verification, then sanitize and retire the old one."""
        return self._recovery.refresh_media()

    def retention_sweep(self) -> list[str]:
        """Records whose every version is past retention (disposal queue)."""
        now = self._clock.now()
        due = []
        for record_id in self.record_ids():
            if record_id in self._dir.cold:
                # the manifest carries the latest expiry across the
                # member's versions; holds cannot exist on cold records
                # (place_hold recalls first, demotion skips held ones)
                if self.cold.member(record_id).expires_at <= now:
                    due.append(record_id)
            elif all(
                self.worm.retention.is_deletable(object_id, now)
                for object_id in self._version_ids(record_id)
            ):
                due.append(record_id)
        return due

    @property
    def medium(self) -> Medium:
        return self._home.medium

    @property
    def worm(self) -> WormStore:
        return self._home.worm

    @property
    def witness(self) -> AnchorWitness:
        return self._anchors.witness

    def _version_ids(self, record_id: str) -> list[str]:
        """The WORM object ids of a live record's versions, in order."""
        self._dir.chain_for(record_id)
        return self._dir.version_ids(record_id)

    def place_hold(
        self, record_id: str, hold_id: str, *, actor_id: str
    ) -> None:
        """Litigation hold across every version of a record.  A cold
        record is recalled first — holds freeze a record in the warm
        tier for fast legal access, and the demotion policy skips held
        records until the hold lifts."""
        object_ids = self._version_ids(record_id)
        self._recall(record_id, actor_id)
        for object_id in object_ids:
            self.worm.retention.place_hold(object_id, hold_id)
        self._anchors.append(
            AuditAction.RETENTION_HOLD_PLACED, actor_id, record_id, {"hold": hold_id}
        )

    def release_hold(
        self, record_id: str, hold_id: str, *, actor_id: str
    ) -> None:
        for object_id in self._version_ids(record_id):
            self.worm.retention.release_hold(object_id, hold_id)
        self._anchors.append(
            AuditAction.RETENTION_HOLD_RELEASED, actor_id, record_id, {"hold": hold_id}
        )
