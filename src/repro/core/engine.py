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
``__init__`` and device recovery), authorization, and the hot path:
``store`` / ``store_many``, ``read``, ``read_version``, ``correct``,
``search``, ``dispose``, attachments, ``verify_integrity``,
``verify_audit_trail``.  What is *not* in this file any more, and where
it lives — each part built from the collaborators it uses, none handed
the store:

* the shapes of object ids — :mod:`repro.records.ids`;
* what the engine knows per record (chains, key handles, manifests,
  tier, dirty set, read cache, patient and ownership indexes) —
  :mod:`repro.core.directory`;
* the WORM store / medium / disposition workflow, the frame assembly,
  the adopt path and the swap — :mod:`repro.core.home`;
* demote / recall / candidates / sweep and the tier-aware version
  reads — :mod:`repro.core.tiering`;
* patient export / import / retire and imported audit segments —
  :mod:`repro.core.transfer`;
* backup / restore / media refresh / device recovery —
  :mod:`repro.core.recovery`;
* the anchor cadence and witness quorum —
  :class:`repro.audit.anchors.AnchorSchedule`.
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
from repro.audit.events import AuditAction, AuditEvent
from repro.audit.log import AuditLog
from repro.audit.query import AuditQuery, disclosures
from repro.backup.manager import BackupManager, RestoreReport
from repro.backup.vault import BackupVault
from repro.baselines.interface import StorageModel, VerificationReport
from repro.core.config import CuratorConfig
from repro.core.directory import RecordDirectory
from repro.core.home import RecordHome
from repro.core.recovery import Recovery, RecoveryReport, recover_devices
from repro.core.tiering import Tiering
from repro.core.transfer import PatientTransfer
from repro.crypto.aead import AeadCipher, AeadCiphertext
from repro.crypto.aead import encrypt_many as aead_encrypt_many
from repro.crypto.ed25519 import purge_ed25519_memo
from repro.crypto.hmac_utils import hmac_sha256
from repro.crypto.kdf import derive_key
from repro.crypto.keys import KeyHandle, KeyStore
from repro.crypto.signatures import Signer, TrustStore, purge_signature_memo
from repro.errors import AccessDeniedError, RecordError
from repro.index.trustworthy import TrustworthyIndex
from repro.migration.bundle import PatientBundle
from repro.policy import Decision, PolicyContext, PolicyEngine, PolicyEnv
from repro.policy.rules import DEFAULT_RULES, default_purpose_for
from repro.provenance.chain import CustodyRegistry
from repro.provenance.graph import ProvenanceGraph
from repro.records.ids import DISCLOSURES, SEARCH, attachment_object_id
from repro.records.model import HealthRecord
from repro.records.phi import deidentify
from repro.records.versioning import VersionChain
from repro.retention.disposition import DispositionCertificate
from repro.retention.shredder import SecureShredder
from repro.storage.block import BlockDevice, MemoryDevice
from repro.storage.media import MediaPool, Medium
from repro.util.metrics import METRICS
from repro.util.rotation import Rotation
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
        keystore: KeyStore | None = None,
        worm: WormStore | None = None,
        audit: AuditLog | None = None,
        checkpoints: CheckpointStore | None = None,
        cold: ColdStore | None = None,
        signer: Signer | None = None,
        witnesses: list[AnchorWitness] | None = None,
    ) -> None:
        """The one construction wiring.  ``__init__`` passes nothing and
        every collaborator starts fresh on its own device;
        :meth:`recover_from_devices` passes the ones rebuilt from
        surviving images (and the signer / witnesses that outlive a
        process crash)."""
        self._config = config
        self._clock = config.clock
        # crypto / keys — the keystore escrows every wrapped key to its
        # own device so a restarted engine can rebuild the key hierarchy
        # from devices + the HSM-held master key (see recover_from_devices)
        self._keystore = keystore if keystore is not None else KeyStore(
            config.master_key,
            clock=self._clock,
            device=MemoryDevice("curator-keys", config.device_capacity),
        )
        self._signer = signer if signer is not None else Signer(
            config.site_id,
            keypair=config.signing_keypair,
            bits=SIGNATURE_BITS,
        )
        self._trust = TrustStore()
        self._trust.add(self._signer.verifier())
        # index — derived data: a recovered engine re-posts it from the
        # decrypted current versions
        index_key = derive_key(config.master_key, "curator/index")
        self._index = TrustworthyIndex(
            index_key, device=MemoryDevice("curator-idx", config.device_capacity)
        )
        # audit — the checkpoint store persists verified watermarks on
        # its own device, MAC-sealed under a key derived from the HSM-
        # held master key (forge-proof against the raw-device insider)
        self._checkpoints = checkpoints if checkpoints is not None else CheckpointStore(
            device=MemoryDevice("curator-ckpt", config.device_capacity),
            key=derive_key(config.master_key, "curator/audit-checkpoint"),
            clock=self._clock,
        )
        self._audit = audit if audit is not None else AuditLog(
            device=MemoryDevice("curator-audit", config.device_capacity),
            clock=self._clock,
            spot_checks=config.audit_spot_checks,
            full_rescan_every=config.audit_full_rescan_every,
        )
        self._audit.adopt_checkpoints(self._checkpoints)
        self._anchors = AnchorSchedule(
            self._audit,
            self._signer,
            self._clock,
            witnesses
            or [
                AnchorWitness(self._signer.verifier())
                for _ in range(config.witness_count)
            ],
            every=config.anchor_every_events,
        )
        # access control — one declarative policy engine decides every
        # allow-or-deny (RBAC, consent, treating relationship, break-
        # glass) with an explainable trace; the registries below only
        # answer facts for its conditions
        self._workforce = Workforce()
        self._consent = ConsentRegistry()
        self._breakglass = BreakGlassController(clock=self._clock)
        self._policy = PolicyEngine(
            DEFAULT_RULES,
            env=PolicyEnv(
                consent=self._consent,
                breakglass=self._breakglass,
                clock=self._clock,
            ),
        )
        # provenance
        self._custody = CustodyRegistry(self._trust)
        self._provenance = ProvenanceGraph()
        self._provenance.add_custodian(config.site_id)
        # cold tier: compacted segments on their own device
        self._cold = cold if cold is not None else ColdStore(
            device=MemoryDevice("curator-cold", config.cold_device_capacity),
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
        self._shredder.bind_cache(self._cold.purge_cache)
        # backup
        self._vault = BackupVault(f"{config.site_id}-offsite")
        # the parts (see the module docstring)
        self._dir = RecordDirectory(config.read_cache_size)
        self._media_pool = MediaPool(
            clock=self._clock, default_capacity=config.device_capacity
        )
        if worm is None:
            medium = self._media_pool.provision()
            worm = WormStore(device=medium.device, clock=self._clock)
        else:
            medium = self._media_pool.adopt(worm.device)
        self._home = RecordHome(
            site_id=config.site_id,
            retention_policy=config.retention_policy,
            clock=self._clock,
            sealer=Sealer(self._keystore),
            signer=self._signer,
            custody=self._custody,
            provenance=self._provenance,
            shredder=self._shredder,
            index=self._index,
            directory=self._dir,
            worm=worm,
            medium=medium,
        )
        self._tiering = Tiering(
            home=self._home, cold=self._cold, audit=self._audit, anchors=self._anchors
        )
        self._transfer = PatientTransfer(
            home=self._home,
            tiering=self._tiering,
            keystore=self._keystore,
            audit=self._audit,
            consent=self._consent,
            breakglass=self._breakglass,
            workforce=self._workforce,
        )
        self._recovery = Recovery(
            home=self._home,
            tiering=self._tiering,
            transfer=self._transfer,
            keystore=self._keystore,
            audit=self._audit,
            media_pool=self._media_pool,
            backup=BackupManager(self._vault, clock=self._clock),
            trust=self._trust,
        )
        self._clean_records = Rotation()
        # Populated only on engines built by recover_from_devices().
        self.recovery_report: RecoveryReport | None = None

    # The directory's and home's state under the names tests reach for.
    _keys = property(lambda self: self._dir.keys)
    _read_cache = property(lambda self: self._dir.read_cache)
    _worm = property(lambda self: self._home.worm)
    _witnesses = property(lambda self: self._anchors.witnesses)

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

    def _authorize(
        self,
        actor_id: str,
        permission: Permission,
        patient_id: str,
        purpose: Purpose,
        subject_id: str,
    ) -> User:
        """Decide + audit.  One call into the declarative policy engine
        decides the whole composite (system override, RBAC, consent
        binding, break-glass fallback); the decision trace — every rule
        consulted and the deciding rule — lands in the audit chain on
        every outcome.  Denials are breach signals: they are logged as
        structured ``ACCESS_DENIED`` events *before* the typed
        exception is raised."""
        user = self._workforce.resolve(actor_id)
        if user is None:
            self._audit.append(
                AuditAction.ACCESS_DENIED,
                actor_id,
                subject_id,
                {"reason": "unknown principal", "permission": permission.value},
            )
            raise AccessDeniedError(f"unknown principal {actor_id!r}")
        decision = self._policy.decide(
            user,
            permission,
            subject_id,
            PolicyContext(
                purpose=purpose,
                patient_id=patient_id,
                own_record=(user.user_id == patient_id),
            ),
        )
        if not decision.allowed:
            action = AuditAction.ACCESS_DENIED
        elif decision.emergency:
            action = AuditAction.EMERGENCY_ACCESS
        else:
            action = AuditAction.ACCESS_GRANTED
        self._audit.append(
            action, actor_id, subject_id,
            {"permission": permission.value, **decision.to_audit_detail()},
        )
        if not decision.allowed:
            raise decision.exception()
        return user

    def _authorize_record(
        self,
        record_id: str,
        actor_id: str,
        permission: Permission,
        purpose: Purpose | None = None,
        subject_id: str | None = None,
    ) -> VersionChain:
        """The prelude of every per-record operation: the live chain,
        its patient, and one audited decision (the actor's default
        purpose unless one is stated; the record as subject unless an
        attachment is)."""
        chain = self._dir.chain_for(record_id)
        self._authorize(
            actor_id,
            permission,
            chain.latest().record.patient_id,
            purpose or self._default_purpose(actor_id),
            subject_id or record_id,
        )
        return chain

    @property
    def policy(self) -> PolicyEngine:
        """The engine's policy evaluator (the single decision path)."""
        return self._policy

    def explain_access(
        self,
        actor_id: str,
        permission: Permission,
        record_id: str = "",
        purpose: Purpose | None = None,
    ) -> Decision:
        """Evaluate (without auditing, without raising) what would
        happen if *actor_id* attempted *permission* — the ops surface
        behind ``repro policy explain``."""
        user = self._workforce.resolve(actor_id)
        if user is None:
            return Decision(
                allowed=False,
                rule_id="default:deny",
                reason=f"unknown principal {actor_id!r}",
                action=permission.value,
                resource=record_id,
            )
        patient_id = ""
        if record_id and record_id in self._dir.chains:
            patient_id = self._dir.chains[record_id].latest().record.patient_id
        return self._policy.decide(
            user,
            permission,
            record_id,
            PolicyContext(
                purpose=purpose or self._default_purpose(actor_id),
                patient_id=patient_id,
                own_record=(user.user_id == patient_id and patient_id != ""),
            ),
        )

    def break_glass(self, actor_id: str, patient_id: str, justification: str):
        """Emergency access: grant + mandatory audit event."""
        user = self._workforce.resolve(actor_id)
        if user is None:
            raise AccessDeniedError(f"unknown principal {actor_id!r}")
        grant = self._breakglass.invoke(user, patient_id, justification)
        self._audit.append(
            AuditAction.EMERGENCY_ACCESS, actor_id, patient_id,
            {"grant_id": grant.grant_id, "justification": justification},
        )
        return grant

    def revoke_break_glass(self, grant_id: str):
        """Revoke an emergency grant and drop any cached plaintext the
        grantee's reads pinned in memory — after revocation, reaching a
        record again must run the full decrypt-under-authorization path.
        """
        grant = self._breakglass.revoke(grant_id)
        for record_id in self.records_of_patient(grant.patient_id):
            self._dir.purge(record_id)
        self._audit.append(
            AuditAction.EMERGENCY_ACCESS, grant.user_id, grant.patient_id,
            {"grant_id": grant.grant_id, "revoked": True},
        )
        return grant

    @property
    def breakglass(self) -> BreakGlassController:
        return self._breakglass

    @property
    def consent(self) -> ConsentRegistry:
        return self._consent

    # ------------------------------------------------------------------
    # cold tier (see repro.core.tiering)
    # ------------------------------------------------------------------

    def _stored_versions(self, record_id: str):
        return self._tiering.stored_versions(record_id)

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

    def demotion_candidates(self, policy: DemotionPolicy) -> list[str]:
        """Live warm records the policy says belong in the cold tier."""
        return self._tiering.candidates(policy)

    def demotion_sweep(
        self,
        policy: DemotionPolicy | None = None,
        *,
        actor_id: str = "archive-tiering",
    ) -> list[str]:
        """Evaluate the demotion policy and compact every eligible
        record into cold segments (one per ``max_segment_records``)."""
        return self._tiering.sweep(policy, actor_id=actor_id)

    @property
    def cold(self) -> ColdStore:
        return self._cold

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
        index flush (a frame per touched posting-list chunk) and one
        audit flush (``begin_batch`` / ``commit``, a frame per event).
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
        self._audit.begin_batch()
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
                self._anchors.maybe_anchor()
                self._dir.last_access[record.record_id] = self._clock.now()
                self._audit.append(
                    AuditAction.RECORD_CREATED, author_id, record.record_id,
                    {"type": record.record_type.value, "patient": record.patient_id},
                )
            self._home.adopt(list(zip(chains, handles)))
        finally:
            self._audit.commit()
        METRICS.incr("store_many_batches")
        METRICS.incr("store_many_records", len(records))
        return len(records)

    def _default_purpose(self, actor_id: str) -> Purpose:
        """Infer the purpose of use from the actor's primary role when
        the caller does not state one (the table lives beside the
        declared rules in :mod:`repro.policy.rules`)."""
        user = self._workforce.resolve(actor_id)
        if user is None:
            return Purpose.TREATMENT
        return default_purpose_for(user)

    def read(
        self,
        record_id: str,
        *,
        actor_id: str,
        purpose: Purpose | None = None,
    ) -> HealthRecord:
        chain = self._authorize_record(
            record_id, actor_id, Permission.READ_RECORD, purpose
        )
        current = len(chain) - 1
        record = self._dir.cached(record_id, current)
        if record is not None:
            METRICS.incr("read_cache_hits")
            METRICS.incr("tier_hot_hits")
        else:
            METRICS.incr("read_cache_misses")
            if record_id in self._dir.cold:
                METRICS.incr("tier_cold_reads")
            else:
                METRICS.incr("tier_warm_reads")
            record = self._tiering.open_version(record_id, current).record
            self._dir.cache(record_id, current, record)
        self._dir.last_access[record_id] = self._clock.now()
        self._audit.append(
            AuditAction.RECORD_READ, actor_id, record_id,
            {"version": current},
        )
        self._anchors.maybe_anchor()
        return record

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
        """Read one historical version, under the same authorization as
        :meth:`read` and attributed to the same kind of accountable
        principal."""
        chain = self._dir.chain_for(record_id)
        if version < 0 or version >= len(chain):
            raise RecordError(f"record {record_id} has no version {version}")
        self._authorize_record(record_id, actor_id, Permission.READ_RECORD)
        stored = self._tiering.open_version(record_id, version)
        self._dir.last_access[record_id] = self._clock.now()
        self._audit.append(
            AuditAction.RECORD_READ, actor_id, record_id, {"version": version}
        )
        return stored.record

    def correct(self, corrected: HealthRecord, author_id: str, reason: str) -> None:
        record_id = corrected.record_id
        chain = self._authorize_record(
            record_id, author_id, Permission.CORRECT_RECORD, Purpose.TREATMENT
        )
        # a correction makes the record active again: recall first, so
        # every version lives in one tier
        self._recall(record_id, "system")
        version = chain.append_correction(corrected, author_id, reason, self._clock.now())
        handle = self._dir.keys[record_id]
        self._home.write([(version, handle)])
        self._anchors.maybe_anchor()
        self._dir.last_access[record_id] = self._clock.now()
        # Re-adopting purges the superseded version from the read cache
        # and re-indexes the record's current text.
        self._home.adopt([(chain, handle)])
        self._audit.append(
            AuditAction.RECORD_CORRECTED, author_id, record_id,
            {"version": version.version_number, "reason": reason,
             "previous_digest": version.previous_digest},
        )

    def search(self, term: str, *, actor_id: str) -> list[str]:
        # Audit the keyed trapdoor, never the plaintext term: the audit
        # log persists to a device, and a cleartext term there would be
        # exactly the "Cancer" leak the trustworthy index closes.  The
        # privacy officer can recompute the trapdoor to match queries.
        commitment = self._index.trapdoor(term)[:16]
        subject = f"{SEARCH}{commitment}"
        self._authorize(
            actor_id, Permission.SEARCH_RECORDS, "", Purpose.TREATMENT, subject
        )
        hits = self._index.search(term)
        self._audit.append(
            AuditAction.RECORD_SEARCHED, actor_id, subject, {"hits": len(hits)}
        )
        self._anchors.maybe_anchor()
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
            self._worm.retention.check_deletable(object_id, now)
        disposition = self._home.disposition
        disposition.identify()
        certificates = []
        for object_id in object_ids:
            if object_id in disposition.pending():
                disposition.approve(object_id, actor_id)
                certificates.append(disposition.execute(object_id))
        # index must forget the record, verifiably
        self._index.delete_document(record_id)
        # coordinated cryptographic deletion in backups
        if not self._vault.destroyed:
            self._vault.shred_key(self._dir.keys[record_id].key_id)
        # cold residue: the key shredding above already killed any
        # sealed member cryptographically; zero the extents too (and the
        # bind_cache hook purged the decrypted member cache with it)
        cold_extents = self._cold.scrub_record(record_id)
        # ... and so must the read cache: a disposed record served from
        # memory would defeat the key shredding above.
        self._dir.mark_disposed(record_id)
        self._audit.append(
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
        chain = self._authorize_record(
            record_id, actor_id, Permission.EXPORT_DEIDENTIFIED, Purpose.RESEARCH
        )
        record = self._tiering.open_version(record_id, len(chain) - 1).record
        key = derive_key(self._config.master_key, "curator/pseudonym")
        tag = hmac_sha256(key, record.patient_id.encode("utf-8"))[:8]
        deid = deidentify(record, pseudonym=f"case-{tag.hex()}")
        self._audit.append(AuditAction.RECORD_EXPORTED, actor_id, record_id, {})
        return deid

    def record_ids(self) -> list[str]:
        return self._dir.record_ids()

    def version_count(self, record_id: str) -> int:
        return len(self._dir.chain_for(record_id))

    # ------------------------------------------------------------------
    # harness surfaces
    # ------------------------------------------------------------------

    def devices(self) -> list[BlockDevice]:
        devices = [self._worm.device, self._index.device, self._audit.device]
        if self._keystore.device is not None:
            devices.append(self._keystore.device)
        devices.append(self._checkpoints.device)
        devices.append(self._cold.device)
        return devices

    def device_set(self) -> dict[str, BlockDevice]:
        """The devices a restart recovers from, under the keyword names
        :meth:`recover_from_devices` takes (the index is derived data,
        rebuilt on a fresh device)."""
        return {
            "worm_device": self._worm.device,
            "key_device": self._keystore.device,
            "audit_device": self._audit.device,
            "checkpoint_device": self._checkpoints.device,
            "cold_device": self._cold.device,
        }

    def _check_record_chain(self, record_id: str) -> bool:
        """Decrypt + re-chain every version of one record, from whichever
        tier holds it (cold members are checked in place, not recalled)."""
        try:
            VersionChain.from_versions(
                record_id, self._tiering.stored_versions(record_id)
            )
            return True
        except Exception:  # noqa: BLE001 — any failure implicates the record
            return False

    def _blamed(self, object_ids: list[str]) -> set[str]:
        """The records that own failing WORM objects (an object no
        record owns — a segment archive — is blamed under its own id)."""
        return {self._dir.owner_of(oid) or oid for oid in object_ids}

    def verify_integrity(self, incremental: bool = False) -> VerificationReport:
        """Integrity verdict; ``report.violations`` carries the record
        ids implicated by any failure (plus ``"<index>"`` when the
        posting lists fail authentication).

        ``incremental=True`` checks only the WORM objects, cold segments
        and records touched since the last full pass, plus a rotating
        sample of clean ones (``config.integrity_clean_sample`` per pass
        in each of the three) so silent bit-rot in already-verified data
        is still revisited on a bounded cycle.  The full pass is the same
        sweep with nothing trusted: every live entry dirty and no clean
        sample, so it digest-checks every version object and cold
        member, re-chains every record, and authenticates every posting
        list.
        """
        mode = "incremental" if incremental else "full"
        sample = self._config.integrity_clean_sample if incremental else 0
        with METRICS.timer(f"engine_integrity_{mode}_ns"):
            live = self.record_ids()
            dirty_records = self._dir.dirty
            if incremental:
                failures = self._blamed(self._worm.verify_dirty(clean_sample=sample))
                failures.update(self._cold.verify_dirty(clean_sample=sample))
            else:
                failures = self._blamed(self._worm.verify_all())
                failures.update(self._cold.verify_all())
                dirty_records.update(live)
                self._clean_records.reset()
            dirty = [r for r in live if r in dirty_records]
            clean = [r for r in live if r not in dirty_records]
            to_check = dirty + self._clean_records.take(clean, sample)
            for record_id in to_check:
                if self._check_record_chain(record_id):
                    dirty_records.discard(record_id)
                else:
                    failures.add(record_id)
                    dirty_records.add(record_id)
            METRICS.incr("engine_integrity_records_checked", len(to_check))
        METRICS.incr(f"engine_integrity_{mode}_runs")
        if incremental:
            coverage = (
                f"{len(dirty)} dirty + {len(to_check) - len(dirty)} sampled record(s)"
            )
        else:
            # A clean full pass verified everything; failures stay dirty.
            self._dir.dirty = {r for r in failures if r in self._dir.chains}
            coverage = f"all {len(live)} record(s), every worm object"
        if self._index.verify():
            failures.add("<index>")
        return VerificationReport.from_violations(
            sorted(failures),
            mode="incremental" if incremental else "full",
            coverage=coverage,
        )

    def audit_events(self) -> list[dict[str, Any]]:
        return [event.to_dict() for event in self._audit.events()]

    def audit_devices(self) -> list[BlockDevice]:
        return [self._audit.device]

    def verify_audit_trail(self, incremental: bool = False) -> VerificationReport:
        violations: list[str] = []
        chain = self._audit.verify_chain(incremental=incremental)
        if not chain:
            violations.append("audit-chain")
        try:
            self._anchors.check_log()
        except Exception:
            violations.append("audit-anchors")
        return VerificationReport.from_violations(
            violations,
            mode=chain.mode if incremental else "full",
            coverage=f"{len(self._audit)} event(s), "
            f"{len(self._witnesses)} witness(es)",
        )

    def audit_query(self) -> AuditQuery:
        """Forensic query interface (verifies the chain first)."""
        return AuditQuery(self._audit)

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
        self._audit.append(
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
        self._authorize_record(
            record_id, actor_id, Permission.READ_RECORD, subject_id=subject_id
        )
        data = self._home.read_attachment(record_id, attachment_id)
        self._audit.append(AuditAction.RECORD_READ, actor_id, subject_id, {})
        return data

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

    def accounting_of_disclosures(
        self, patient_id: str, *, actor_id: str
    ):
        """The HIPAA accounting-of-disclosures report for one patient:
        every access-class event over their record set, from a verified
        audit trail.  The request itself is authorized and audited."""
        self._authorize(
            actor_id,
            Permission.READ_AUDIT_TRAIL,
            patient_id,
            self._default_purpose(actor_id),
            f"{DISCLOSURES}{patient_id}",
        )
        record_ids = self.records_of_patient(patient_id)
        local = self.audit_query().disclosure_accounting(record_ids)
        # if the patient migrated here, access events that predate this
        # shard's log arrived as the imported audit-chain segment and
        # belong in the same accounting
        imported = disclosures(
            map(AuditEvent.from_dict, self._transfer.imported_events(patient_id)), record_ids
        )
        if not imported:
            return local
        return sorted(
            [*local, *imported], key=lambda e: (e.timestamp, e.sequence)
        )

    def prove_audit_event(self, sequence: int):
        """Third-party-verifiable disclosure of one audit event.

        Publishes a fresh anchor if the event is not yet covered by one,
        then returns ``(event, chain_prev, proof, anchor)``; a verifier
        needs only the witnessed anchor (see
        :func:`repro.audit.log.verify_event_proof`).
        """
        latest = self.witness.latest()
        if latest is None or latest.log_size <= sequence:
            latest = self._anchors.publish()
        event, chain_prev, proof = self._audit.prove_event(
            sequence, at_size=latest.log_size
        )
        return event, chain_prev, proof, latest

    # ------------------------------------------------------------------
    # patient migration (online cluster rebalancing; see
    # repro.core.transfer — the router and rebalancer call these by
    # name, across the worker pipe when shards are processes)
    # ------------------------------------------------------------------

    def patient_ids(self) -> list[str]:
        """Every patient with at least one live record on this engine."""
        return self._dir.patient_ids()

    def export_patient_history(
        self, patient_id: str, *, actor_id: str = "system"
    ) -> PatientBundle:
        """Package one patient's full history for migration to another
        shard (read-only apart from the ``MIGRATION_STARTED`` event)."""
        return self._transfer.export_patient_history(patient_id, actor_id=actor_id)

    def import_patient_history(
        self, bundle: PatientBundle, *, actor_id: str = "system"
    ) -> tuple[tuple[str, bytes], ...]:
        """Adopt a migrated patient in ONE WORM frame; returns the
        freshly recomputed plaintext digests."""
        return self._transfer.import_patient_history(bundle, actor_id=actor_id)

    def patient_history_digests(
        self, patient_id: str
    ) -> tuple[tuple[str, bytes], ...]:
        """Plaintext digests of every extent of one patient's history,
        decrypted straight off the WORM store."""
        return self._transfer.patient_history_digests(patient_id)

    def export_audit_delta(self, patient_id: str, *, since: int) -> list[dict]:
        """Audit events about the patient's records appended after log
        size *since* (the cutover tail)."""
        return self._transfer.export_audit_delta(patient_id, since=since)

    def adopt_audit_delta(self, patient_id: str, events: list[dict]) -> int:
        """Append cutover-tail events to an imported segment."""
        return self._transfer.adopt_audit_delta(patient_id, events)

    def imported_segment_snapshot(self, patient_id: str) -> tuple[dict, ...]:
        """Just the export-time snapshot of the imported segment — the
        portion the source's chain-continuity attestation signs."""
        segment = self._transfer.segments.get(patient_id)
        return () if segment is None else tuple(segment.events)

    def segment_attestation(self, patient_id: str):
        """The source-signed chain-continuity attestation that arrived
        with *patient_id*'s segment (``None`` if never migrated here)."""
        segment = self._transfer.segments.get(patient_id)
        return None if segment is None else segment.attestation

    def export_access_state(self, patient_id: str) -> tuple[tuple, tuple]:
        """The patient's consent directives and live break-glass grants,
        for transfer at cutover."""
        return self._transfer.export_access_state(patient_id)

    def adopt_access_state(self, patient_id: str, state: tuple[tuple, tuple]) -> None:
        """Adopt the access state migrated in with a patient."""
        self._transfer.adopt_access_state(patient_id, state)

    def retire_patient(
        self,
        patient_id: str,
        *,
        actor_id: str = "system",
        destination_id: str = "",
    ) -> tuple[str, ...]:
        """Drop this shard's copy of a patient whose custody moved away
        (expatriated behind a durable ``CUSTODY_TRANSFERRED`` marker)."""
        return self._transfer.retire_patient(
            patient_id, actor_id=actor_id, destination_id=destination_id
        )

    def declared_features(self) -> frozenset[str]:
        return frozenset(
            {
                "correct",
                "dispose",
                "search",
                "audit",
                "access_control",
                "integrity",
                "retention",
                "encryption",
                "migration_verifiable",
                "provenance",
                "backup",
            }
        )

    def insider_keys(self) -> dict[str, bytes]:
        """Key material lives in the keystore under the HSM-held master
        key; nothing is available from the software configuration."""
        return {}

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
        """Restart the engine from surviving device images after a crash.

        Trust model of the restart: devices survive (that is what they
        are for); the HSM-held material — master key and, optionally,
        the anchor-signing key — survives; external anchor witnesses
        survive.  Everything in process memory is gone.

        What is rebuilt, and from where:

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
          type and creation time under the configured policy.

        In-memory-only state is honestly lost: attachment manifests
        (chunks become ``orphaned`` in the report), the provenance/
        custody narrative, enrolled users, break-glass grants, consent
        directives, and the off-site vault binding.
        """
        store = cls.__new__(cls)
        store._wire(
            config,
            signer=signer,
            witnesses=witnesses,
            **recover_devices(
                config,
                worm_device=worm_device,
                key_device=key_device,
                audit_device=audit_device,
                checkpoint_device=checkpoint_device,
                cold_device=cold_device,
            ),
        )
        store.recovery_report = store._recovery.replay()
        return store

    @property
    def vault(self) -> BackupVault:
        return self._vault

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
                if self._cold.member(record_id).expires_at <= now:
                    due.append(record_id)
            elif all(
                self._worm.retention.is_deletable(object_id, now)
                for object_id in self._version_ids(record_id)
            ):
                due.append(record_id)
        return due

    @property
    def medium(self) -> Medium:
        return self._home.medium

    @property
    def media_pool(self) -> MediaPool:
        return self._media_pool

    @property
    def worm(self) -> WormStore:
        return self._home.worm

    @property
    def index(self) -> TrustworthyIndex:
        return self._index

    @property
    def custody(self) -> CustodyRegistry:
        return self._custody

    @property
    def provenance(self) -> ProvenanceGraph:
        return self._provenance

    @property
    def audit_log(self) -> AuditLog:
        return self._audit

    @property
    def checkpoints(self) -> CheckpointStore:
        """The MAC-sealed watermark store backing incremental verify."""
        return self._checkpoints

    def dirty_record_ids(self) -> list[str]:
        """Records awaiting re-verification by the incremental
        integrity path."""
        return sorted(self._dir.dirty)

    @property
    def witness(self) -> AnchorWitness:
        return self._anchors.witness

    @property
    def signer(self) -> Signer:
        return self._signer

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
            self._worm.retention.place_hold(object_id, hold_id)
        self._audit.append(
            AuditAction.RETENTION_HOLD_PLACED, actor_id, record_id, {"hold": hold_id}
        )

    def release_hold(
        self, record_id: str, hold_id: str, *, actor_id: str
    ) -> None:
        for object_id in self._version_ids(record_id):
            self._worm.retention.release_hold(object_id, hold_id)
        self._audit.append(
            AuditAction.RETENTION_HOLD_RELEASED, actor_id, record_id, {"hold": hold_id}
        )
