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
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from repro.access.breakglass import BreakGlassController
from repro.access.policies import ConsentRegistry, minimum_necessary_view
from repro.access.principals import User
from repro.access.rbac import Permission, Purpose, Role
from repro.archive import (
    ColdStore,
    DemotionPolicy,
    cold_associated_data,
    compress_member,
    decompress_member,
)
from repro.audit.anchors import AnchorWitness, WitnessQuorum, publish_anchor
from repro.audit.checkpoint import CheckpointStore
from repro.audit.events import AuditAction, AuditEvent
from repro.audit.log import AuditLog
from repro.audit.query import AuditQuery
from repro.backup.manager import BackupManager, RestoreReport
from repro.backup.vault import BackupVault
from repro.baselines.interface import StorageModel, VerificationReport
from repro.core.config import CuratorConfig
from repro.crypto.aead import AeadCiphertext
from repro.crypto.aead import encrypt_many as aead_encrypt_many
from repro.crypto.keys import KeyHandle, KeyStore
from repro.crypto.ed25519 import purge_ed25519_memo
from repro.crypto.signatures import Signer, TrustStore, purge_signature_memo
from repro.crypto.hashing import sha256
from repro.errors import (
    AccessDeniedError,
    IntegrityError,
    MigrationError,
    RecordError,
    RecordNotFoundError,
)
from repro.index.secure_deletion import SecureDeletionIndex
from repro.index.trustworthy import TrustworthyIndex
from repro.crypto.kdf import derive_key
from repro.migration.bundle import AttachmentBundle, PatientBundle, RecordBundle
from repro.migration.engine import MigrationEngine
from repro.migration.manifest import build_entries_manifest
from repro.policy import Decision, PolicyContext, PolicyEngine, PolicyEnv
from repro.policy.compiler import compile_default_ruleset, default_purpose_for
from repro.provenance.chain import CustodyRegistry
from repro.provenance.graph import ProvenanceGraph
from repro.records.model import HealthRecord
from repro.records.phi import deidentify
from repro.records.versioning import RecordVersion, VersionChain
from repro.retention.disposition import DispositionCertificate, DispositionWorkflow
from repro.retention.shredder import SecureShredder
from repro.storage.block import BlockDevice, MemoryDevice
from repro.storage.media import MediaPool, Medium
from repro.util.encoding import canonical_bytes, canonical_loads
from repro.util.metrics import METRICS
from repro.worm.retention_lock import RetentionTerm
from repro.worm.store import WormStore

#: WORM object ids under this prefix hold a migrated patient's imported
#: audit-chain segment (plaintext, like the audit device itself) so the
#: accounting-of-disclosures history survives an engine restart.
_SEGMENT_PREFIX = "~segment/"


def _version_object_id(record_id: str, version: int) -> str:
    return f"{record_id}@v{version}"


def _record_id_of(object_id: str) -> str:
    """The owning record of any WORM object id (version or attachment
    chunk: ``rec@vN`` / ``rec#att/<attachment>/chunk-N``)."""
    if "#att/" in object_id:
        return object_id.split("#att/")[0]
    return object_id.split("@v")[0]


@dataclass(frozen=True)
class RecoveryReport:
    """What :meth:`CuratorStore.recover_from_devices` rebuilt.

    ``disposed`` are records whose data key was shredded before the
    crash — cryptographically deleted, correctly unrecoverable.
    ``damaged`` are records whose key survives but whose versions no
    longer decrypt/verify (torn or tampered data).  ``orphaned`` are
    WORM objects the directory cannot serve: version objects with no
    escrowed key, and attachment chunks whose in-memory manifest died
    with the process (their bytes stay disposition-managed)."""

    records_recovered: int
    versions_recovered: int
    audit_events: int
    disposed: tuple[str, ...] = ()
    damaged: tuple[str, ...] = ()
    orphaned: tuple[str, ...] = ()
    #: Records whose audit log carries a migration export marker with no
    #: later import: their custody moved to another shard, so the
    #: recovered bytes stay tombstoned rather than resurrecting a second
    #: home for the patient.
    migrated: tuple[str, ...] = ()
    #: Records whose demotion marker says the cold tier is authoritative
    #: and whose cold member verified at recovery.
    cold_records: tuple[str, ...] = ()


class CuratorStore(StorageModel):
    """The hybrid compliant store (see package docstring)."""

    model_name = "curator"

    def __init__(self, config: CuratorConfig) -> None:
        self._config = config
        self._clock = config.clock
        # crypto / keys — the keystore escrows every wrapped key to its
        # own device so a restarted engine can rebuild the key hierarchy
        # from devices + the HSM-held master key (see recover_from_devices)
        self._keystore = KeyStore(
            config.master_key,
            clock=self._clock,
            device=MemoryDevice("curator-keys", config.device_capacity),
        )
        self._signer = Signer(
            config.site_id,
            keypair=config.signing_keypair,
            bits=config.signature_bits,
        )
        self._trust = TrustStore()
        self._trust.add(self._signer.verifier())
        # media + worm
        self._media_pool = MediaPool(
            clock=self._clock, default_capacity=config.device_capacity
        )
        self._medium: Medium = self._media_pool.provision()
        self._worm = WormStore(device=self._medium.device, clock=self._clock)
        # index
        index_key = derive_key(config.master_key, "curator/index")
        self._index = SecureDeletionIndex(
            TrustworthyIndex(index_key, device=MemoryDevice("curator-idx", config.device_capacity))
        )
        # audit — the checkpoint store persists verified watermarks on
        # its own device, MAC-sealed under a key derived from the HSM-
        # held master key (forge-proof against the raw-device insider)
        self._checkpoints = CheckpointStore(
            device=MemoryDevice("curator-ckpt", config.device_capacity),
            key=derive_key(config.master_key, "curator/audit-checkpoint"),
            clock=self._clock,
        )
        self._audit = AuditLog(
            device=MemoryDevice("curator-audit", config.device_capacity),
            clock=self._clock,
            checkpoints=self._checkpoints,
            spot_checks=config.audit_spot_checks,
            full_rescan_every=config.audit_full_rescan_every,
        )
        self._witnesses = [
            AnchorWitness(self._signer.verifier())
            for _ in range(config.witness_count)
        ]
        self._witness = self._witnesses[0]
        self._quorum = (
            WitnessQuorum(self._witnesses, threshold=config.witness_count // 2 + 1)
            if config.witness_count > 1
            else None
        )
        # access control — one declarative policy engine decides every
        # allow-or-deny (RBAC, consent, treating relationship, break-
        # glass) with an explainable trace; the registries below only
        # answer facts for its conditions
        self._users: dict[str, User] = {}
        self._consent = ConsentRegistry()
        self._breakglass = BreakGlassController(clock=self._clock)
        self._policy = PolicyEngine(
            config.policy_rules or compile_default_ruleset(),
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
        # retention / disposal — destruction decisions purge the policy
        # decision cache (a shredded record's cached allows must die
        # with it)
        self._shredder = SecureShredder(self._keystore, config.shredder_passes)
        self._shredder.bind_policy(self._policy)
        # Derived-material memos die with every shred too: the verifier's
        # aggregated-signature root memo and the ed25519 key-expansion
        # memo both regenerate from material a destruction may cover.
        self._shredder.bind_cache(purge_signature_memo)
        self._shredder.bind_cache(purge_ed25519_memo)
        self._disposition = DispositionWorkflow(self._worm, self._shredder, clock=self._clock)
        # backup
        self._vault = BackupVault(f"{config.site_id}-offsite")
        self._backup = BackupManager(self._vault, clock=self._clock)
        # record directory (trusted controller metadata, off-device)
        self._chains: dict[str, VersionChain] = {}
        self._keys: dict[str, KeyHandle] = {}
        self._attachments: dict[str, dict[str, Any]] = {}
        self._disposed: set[str] = set()
        # Audit-chain segments imported with migrated patients: the
        # events predate this shard's own log but still belong in the
        # patient's accounting of disclosures.  Each maps patient_id ->
        # {"events": [...], "delta": [...], "attestation", "source"};
        # the durable copy lives in WORM objects under _SEGMENT_PREFIX.
        self._foreign_segments: dict[str, dict[str, Any]] = {}
        self._segment_objects: dict[str, list[str]] = {}
        self._authenticator = None
        # Decrypted-and-verified current versions (record_id -> (version
        # number, record)).  Authorization and audit always run; only
        # the WORM fetch + AEAD decrypt are skipped on a hit, and every
        # path that changes or destroys a record's current version
        # purges its entry.
        self._read_cache: OrderedDict[str, tuple[int, HealthRecord]] = OrderedDict()
        # Records touched since the last full verify_integrity — the
        # incremental integrity path re-chains these plus a rotating
        # sample of clean records.
        self._dirty_records: set[str] = set()
        self._integrity_cursor = 0
        # cold tier: compacted segments on their own device.  Decrypted
        # member plaintexts cached there die with every shred, like the
        # hot read cache and the crypto memos.
        self._cold = ColdStore(
            device=MemoryDevice("curator-cold", config.cold_device_capacity),
            clock=self._clock,
            cache_size=config.cold_cache_size,
        )
        self._shredder.bind_cache(self._cold.purge_cache)
        # Records whose authoritative copy is cold (warm extents are
        # expatriated tombstones until recall re-admits them).
        self._cold_records: set[str] = set()
        # Last authorized touch per record — what the demotion policy's
        # idleness rule evaluates.  Honestly process-memory: a recovered
        # engine starts everything idle.
        self._last_access: dict[str, float] = {}
        # Populated only on engines built by recover_from_devices().
        self.recovery_report: RecoveryReport | None = None

    # ------------------------------------------------------------------
    # principals
    # ------------------------------------------------------------------

    def register_user(self, user: User) -> None:
        """Enroll a workforce member."""
        self._users[user.user_id] = user

    def principal(self, actor_id: str) -> User | None:
        """The enrolled workforce member behind *actor_id* (``None`` if
        unknown here) — lets a frontend replicate enrollment."""
        return self._resolve_user(actor_id)

    def _resolve_user(self, actor_id: str) -> User | None:
        if actor_id == "system":
            from repro.access.principals import SYSTEM_USER

            return SYSTEM_USER
        return self._users.get(actor_id)

    def _auto_register_author(self, author_id: str, patient_id: str) -> None:
        """Documenting care establishes the treating relationship: the
        application layer enrolls the author as a clinician treating the
        record's patient (config-gated)."""
        if not self._config.auto_register_authors:
            return
        existing = self._users.get(author_id)
        if existing is None:
            self._users[author_id] = User.make(
                author_id, author_id, [Role.PHYSICIAN], treating=[patient_id]
            )
        elif patient_id not in existing.treating:
            self._users[author_id] = User.make(
                author_id,
                existing.name,
                set(existing.roles),
                existing.department,
                set(existing.treating) | {patient_id},
            )

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
        user = self._resolve_user(actor_id)
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
        if decision.allowed and decision.emergency:
            self._audit.append(
                AuditAction.EMERGENCY_ACCESS, actor_id, subject_id,
                {"permission": permission.value, "rule_id": decision.rule_id,
                 "trace": decision.trace_dicts()},
            )
            return user
        if not decision.allowed:
            self._audit.append(
                AuditAction.ACCESS_DENIED, actor_id, subject_id,
                {"reason": decision.reason, "permission": permission.value,
                 "rule_id": decision.rule_id, "trace": decision.trace_dicts()},
            )
            raise decision.exception()
        self._audit.append(
            AuditAction.ACCESS_GRANTED, actor_id, subject_id,
            {"rule": decision.reason, "permission": permission.value,
             "rule_id": decision.rule_id, "trace": decision.trace_dicts()},
        )
        return user

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
        user = self._resolve_user(actor_id)
        if user is None:
            return Decision(
                allowed=False,
                rule_id="default:deny",
                reason=f"unknown principal {actor_id!r}",
                action=permission.value,
                resource=record_id,
            )
        patient_id = ""
        if record_id and record_id in self._chains:
            patient_id = self._chains[record_id].latest().record.patient_id
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

    @property
    def authenticator(self):
        """The deployment's authentication broker (lazily created)."""
        if self._authenticator is None:
            from repro.access.sessions import Authenticator

            self._authenticator = Authenticator(clock=self._clock)
        return self._authenticator

    def enroll_user(self, user: User) -> bytes:
        """Register a workforce member AND enroll them for
        challenge-response authentication; returns their token secret."""
        self.register_user(user)
        return self.authenticator.enroll(user.user_id)

    def read_with_session(self, session, record_id: str) -> HealthRecord:
        """Session-authenticated read: validate the presented session
        (auditing failures), then read as the authenticated user."""
        try:
            user_id = self.authenticator.validate(session)
        except AccessDeniedError as exc:
            self._audit.append(
                AuditAction.ACCESS_DENIED,
                getattr(session, "user_id", "unknown"),
                record_id,
                {"reason": f"session rejected: {exc}"},
            )
            raise
        return self.read(record_id, actor_id=user_id)

    def break_glass(self, actor_id: str, patient_id: str, justification: str):
        """Emergency access: grant + mandatory audit event."""
        user = self._resolve_user(actor_id)
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
            self._read_cache.pop(record_id, None)
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
    # version persistence plumbing
    # ------------------------------------------------------------------

    def _seal_versions(
        self, pairs: list[tuple[RecordVersion, KeyHandle]]
    ) -> list[bytes]:
        """Seal versions in one vectorized AEAD pass — each under its
        own data key and a fresh random nonce, with its WORM object id
        as the associated data."""
        items = []
        for version, handle in pairs:
            object_id = _version_object_id(
                version.record.record_id, version.version_number
            )
            items.append(
                (
                    self._keystore.cipher_for(handle),
                    canonical_bytes(version.to_dict()),
                    object_id.encode("utf-8"),
                )
            )
        return [box.to_bytes() for box in aead_encrypt_many(items)]

    def _open_version(self, record_id: str, version_number: int) -> RecordVersion:
        if record_id in self._cold_records:
            # Read-through recall: the cold member is verified, its
            # versions repatriated to warm WORM extents, and the read
            # below proceeds against the warm tier.
            self._recall(record_id)
        object_id = _version_object_id(record_id, version_number)
        handle = self._keys[record_id]
        blob = self._worm.get(object_id)
        cipher = self._keystore.cipher_for(handle)
        plaintext = cipher.decrypt(
            AeadCiphertext.from_bytes(blob),
            associated_data=object_id.encode("utf-8"),
        )
        return RecordVersion.from_dict(canonical_loads(plaintext))

    def _write_versions(self, pairs: list[tuple[RecordVersion, KeyHandle]]) -> None:
        """The one write path for record versions — one or many: seal,
        ONE WORM frame, ONE custody signature per distinct reason, then
        the disposition and provenance entries.

        A crash that tears the frame drops every version in it at
        recovery (no surviving prefix), and each origin event carries
        the shared batch-root signature plus its own inclusion proof, so
        tampering is still detected per record.
        """
        now = self._clock.now()
        metas = self._worm.put_many(
            [
                (
                    _version_object_id(
                        version.record.record_id, version.version_number
                    ),
                    blob,
                    self._config.retention_policy.term_for(
                        version.record.record_type, now
                    ),
                )
                for (version, _), blob in zip(pairs, self._seal_versions(pairs))
            ]
        )
        origins: dict[str, list[tuple[str, bytes]]] = {}
        for (version, _), meta in zip(pairs, metas):
            origins.setdefault(version.reason, []).append(
                (meta.object_id, meta.content_digest)
            )
        for reason, entries in origins.items():
            self._custody.record_origins(entries, self._signer, now, reason=reason)
        for (version, handle), meta in zip(pairs, metas):
            self._disposition.register_key_handle(meta.object_id, handle)
            self._provenance.add_object(meta.object_id)
            self._provenance.record_custody(
                meta.object_id, self._config.site_id, start=now
            )
            if version.version_number > 0:
                self._provenance.record_derivation(
                    meta.object_id,
                    _version_object_id(
                        version.record.record_id, version.version_number - 1
                    ),
                    reason=version.reason,
                )

    def _maybe_anchor(self) -> None:
        latest = self._witness.latest()
        unanchored = len(self._audit) - (latest.log_size if latest else 0)
        if unanchored >= self._config.anchor_every_events:
            # The anchor commits every event under its Merkle root to an
            # external witness, so events buffered in an open audit batch
            # must hit the device first — otherwise a crash would leave
            # the witness attesting to events storage never saw, and an
            # honest recovery would read as truncation.
            self._audit.flush_batch()
            if self._quorum is not None:
                anchor = self._quorum.publish(self._audit, self._signer, self._clock.now())
            else:
                anchor = publish_anchor(self._audit, self._signer, self._clock.now())
                self._witness.receive(anchor, self._audit)
            self._audit.append(
                AuditAction.ANCHOR_PUBLISHED, "system", "audit-log",
                {"size": anchor.log_size, "witnesses": len(self._witnesses)},
            )

    def _chain_for(self, record_id: str) -> VersionChain:
        chain = self._chains.get(record_id)
        if chain is None:
            raise RecordNotFoundError(f"no record {record_id}")
        if record_id in self._disposed:
            raise RecordNotFoundError(f"record {record_id} was disposed")
        return chain

    # ------------------------------------------------------------------
    # cold tier: demotion, recall, member plumbing
    # ------------------------------------------------------------------

    def _member_plaintext(self, record_id: str, versions: list[RecordVersion]) -> bytes:
        return canonical_bytes(
            {
                "record_id": record_id,
                "versions": [version.to_dict() for version in versions],
            }
        )

    def _open_cold_versions(
        self, record_id: str, *, use_cache: bool = True
    ) -> list[RecordVersion]:
        """Decrypt, decompress, and proof-check a cold member WITHOUT
        repatriating it (verification must not recall the archive)."""
        plaintext = self._cold.cached_plaintext(record_id) if use_cache else None
        if plaintext is None:
            segment = self._cold.segment_of(record_id)
            sealed = self._cold.read_sealed(record_id)
            # the sealed bytes must chain back to the trusted Merkle
            # root before any of them are decrypted
            self._cold.verify_sealed(record_id, sealed)
            cipher = self._keystore.cipher_for(self._keys[record_id])
            compressed = cipher.decrypt(
                AeadCiphertext.from_bytes(sealed),
                associated_data=cold_associated_data(
                    segment.segment_id, record_id
                ),
            )
            plaintext = decompress_member(compressed)
            self._cold.cache_plaintext(record_id, plaintext)
        payload = canonical_loads(plaintext)
        if payload.get("record_id") != record_id:
            raise IntegrityError(
                f"cold member for {record_id} carries the wrong record"
            )
        return [RecordVersion.from_dict(data) for data in payload["versions"]]

    def _stored_versions(self, record_id: str) -> list[RecordVersion]:
        """Every version of a record from its authoritative tier,
        decrypted and digest-checked (non-mutating)."""
        if record_id in self._cold_records:
            return self._open_cold_versions(record_id)
        chain = self._chains[record_id]
        return [self._open_version(record_id, n) for n in range(len(chain))]

    def _version_term(self, version: RecordVersion) -> RetentionTerm:
        return self._config.retention_policy.term_for(
            version.record.record_type, version.created_at
        )

    def _recall(self, record_id: str, *, actor_id: str = "system") -> None:
        """Repatriate a cold record to the warm tier: verified member
        read (sealed digest + inclusion proof + chain re-link), then
        every version re-sealed into ONE WORM frame under its original
        retention term — a torn recall leaves nothing warm.  The
        RECORD_RECALLED marker lands *after* the warm write: a crash
        between leaves the cold member authoritative and recovery
        simply re-expatriates the warm copy."""
        with METRICS.timer("tier_recall_ns"):
            segment = self._cold.segment_of(record_id)
            # never recall from the plaintext cache: what repatriates to
            # the warm tier must be the device bytes, freshly verified
            # against the trusted manifest and Merkle root
            versions = self._open_cold_versions(record_id, use_cache=False)
            VersionChain.from_versions(record_id, versions)
            handle = self._keys[record_id]
            sealed = self._seal_versions([(v, handle) for v in versions])
            metas = self._worm.put_many(
                [
                    (
                        _version_object_id(record_id, version.version_number),
                        blob,
                        self._version_term(version),
                    )
                    for version, blob in zip(versions, sealed)
                ]
            )
            for meta in metas:
                self._disposition.register_key_handle(meta.object_id, handle)
            self._cold_records.discard(record_id)
            self._cold.mark_repatriated(record_id)
            # fresh device bytes: re-verify on the next incremental pass
            self._dirty_records.add(record_id)
            self._audit.append(
                AuditAction.RECORD_RECALLED, actor_id, record_id,
                {"segment": segment.segment_id, "versions": len(versions)},
            )
            self._maybe_anchor()
        METRICS.incr("tier_cold_recalls")
        METRICS.incr("tier_recalled_versions", len(versions))

    def demote_records(
        self, record_ids: list[str], *, actor_id: str = "archive-tiering"
    ) -> list[str]:
        """Compact *record_ids* into one cold segment.

        Commit protocol: the warm copies are chain-verified first (a
        segment must never launder tampered data into a fresh trust
        root), the segment frame is written, then per record a
        RECORD_DEMOTED marker — the durable commit point recovery
        replays — and only then are the warm extents expatriated.
        Records under litigation hold, already cold, or disposed are
        skipped."""
        eligible: list[str] = []
        for record_id in record_ids:
            if (
                record_id not in self._chains
                or record_id in self._disposed
                or record_id in self._cold_records
            ):
                continue
            chain = self._chains[record_id]
            if any(
                self._worm.retention.holds_on(_version_object_id(record_id, n))
                for n in range(len(chain))
            ):
                continue
            eligible.append(record_id)
        if not eligible:
            return []
        segment_id = self._cold.next_segment_id()
        staged: list[tuple[str, int, float, tuple]] = []
        seal_items = []
        for record_id in eligible:
            chain = self._chains[record_id]
            versions = [self._open_version(record_id, n) for n in range(len(chain))]
            VersionChain.from_versions(record_id, versions)
            plaintext = self._member_plaintext(record_id, versions)
            # one provenance entry per version, in order — the version
            # object ids are derivable so only the warm tier's original
            # digests and write times are carried
            provenance = []
            expires_at = 0.0
            for n, version in enumerate(versions):
                meta = self._worm.metadata(_version_object_id(record_id, n))
                provenance.append(
                    {
                        "content_digest": meta.content_digest,
                        "written_at": meta.written_at,
                    }
                )
                expires_at = max(expires_at, self._version_term(version).expires_at)
            seal_items.append(
                (
                    self._keystore.cipher_for(self._keys[record_id]),
                    compress_member(plaintext),
                    cold_associated_data(segment_id, record_id),
                )
            )
            staged.append(
                (record_id, len(versions), expires_at, tuple(provenance))
            )
        boxes = aead_encrypt_many(seal_items)
        members = [
            (record_id, box.to_bytes(), version_count, expires_at, provenance)
            for (record_id, version_count, expires_at, provenance), box
            in zip(staged, boxes)
        ]
        segment = self._cold.write_segment(segment_id, members)
        root_hex = segment.manifest.merkle_root.hex()[:16]
        for record_id, version_count, _, _ in staged:
            # marker first (the commit point), then tombstone the warm
            # extents — a crash in between is healed by recovery's
            # marker replay re-expatriating them
            self._audit.append(
                AuditAction.RECORD_DEMOTED, actor_id, record_id,
                {
                    "segment": segment_id,
                    "versions": version_count,
                    "root": root_hex,
                },
            )
            for n in range(version_count):
                self._worm.expatriate(_version_object_id(record_id, n))
            self._cold_records.add(record_id)
            self._read_cache.pop(record_id, None)
        self._maybe_anchor()
        METRICS.incr("tier_demotions", len(staged))
        return [record_id for record_id, *_ in staged]

    def demotion_candidates(self, policy: DemotionPolicy) -> list[str]:
        """Live warm records the policy says belong in the cold tier."""
        now = self._clock.now()
        candidates = []
        for record_id in self.record_ids():
            if record_id in self._cold_records:
                continue
            chain = self._chains[record_id]
            latest = chain.latest()
            if any(
                self._worm.retention.holds_on(_version_object_id(record_id, n))
                for n in range(len(chain))
            ):
                continue
            if policy.eligible(
                now=now,
                created_at=latest.created_at,
                last_access=self._last_access.get(record_id, latest.created_at),
            ):
                candidates.append(record_id)
        return candidates

    def demotion_sweep(
        self,
        policy: DemotionPolicy | None = None,
        *,
        actor_id: str = "archive-tiering",
    ) -> list[str]:
        """Evaluate the demotion policy and compact every eligible
        record into cold segments (one per ``max_segment_records``)."""
        policy = policy or DemotionPolicy()
        demoted: list[str] = []
        for batch in policy.batches(self.demotion_candidates(policy)):
            demoted += self.demote_records(batch, actor_id=actor_id)
        return demoted

    @property
    def cold(self) -> ColdStore:
        return self._cold

    def cold_record_ids(self) -> list[str]:
        return sorted(self._cold_records)

    def tier_stats(self) -> dict[str, int]:
        """Per-tier occupancy and on-device footprint."""
        live = set(self.record_ids())
        return {
            "hot_records": len(self._read_cache),
            "warm_records": len(live - self._cold_records),
            "cold_records": len(self._cold_records),
            "cold_segments": self._cold.segment_count,
            "warm_bytes": self._worm.device.used,
            "cold_bytes": self._cold.device.used,
        }

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
            if record.record_id in self._chains:
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
            for record, handle in zip(records, handles):
                self._auto_register_author(author_id, record.patient_id)
                self._keys[record.record_id] = handle
                chain = VersionChain(record.record_id)
                chain.append_initial(record, author_id, self._clock.now())
                chains.append(chain)
            self._write_versions(
                [(chain.latest(), handle) for chain, handle in zip(chains, handles)]
            )
            for record, chain in zip(records, chains):
                self._maybe_anchor()
                self._chains[record.record_id] = chain
                self._dirty_records.add(record.record_id)
                self._last_access[record.record_id] = self._clock.now()
                self._audit.append(
                    AuditAction.RECORD_CREATED, author_id, record.record_id,
                    {"type": record.record_type.value, "patient": record.patient_id},
                )
            self._index.add_documents(
                [(record.record_id, record.searchable_text()) for record in records]
            )
        finally:
            self._audit.commit()
        METRICS.incr("store_many_batches")
        METRICS.incr("store_many_records", len(records))
        return len(records)

    def _default_purpose(self, actor_id: str) -> Purpose:
        """Infer the purpose of use from the actor's primary role when
        the caller does not state one (the table lives beside the rule
        compiler in :mod:`repro.policy.compiler`)."""
        user = self._resolve_user(actor_id)
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
        chain = self._chain_for(record_id)
        patient_id = chain.latest().record.patient_id
        self._authorize(
            actor_id,
            Permission.READ_RECORD,
            patient_id,
            purpose or self._default_purpose(actor_id),
            record_id,
        )
        current = len(chain) - 1
        cached = self._read_cache.get(record_id)
        if cached is not None and cached[0] == current:
            self._read_cache.move_to_end(record_id)
            METRICS.incr("read_cache_hits")
            METRICS.incr("tier_hot_hits")
            record = cached[1]
        else:
            METRICS.incr("read_cache_misses")
            if record_id in self._cold_records:
                METRICS.incr("tier_cold_reads")
            else:
                METRICS.incr("tier_warm_reads")
            record = self._open_version(record_id, current).record
            if self._config.read_cache_size > 0:
                self._read_cache[record_id] = (current, record)
                if len(self._read_cache) > self._config.read_cache_size:
                    self._read_cache.popitem(last=False)
        self._last_access[record_id] = self._clock.now()
        self._audit.append(
            AuditAction.RECORD_READ, actor_id, record_id,
            {"version": current},
        )
        self._maybe_anchor()
        return record

    def read_view(self, record_id: str, actor_id: str) -> dict[str, Any]:
        """Read with the minimum-necessary projection for the actor's role."""
        record = self.read(record_id, actor_id=actor_id)
        user = self._resolve_user(actor_id)
        assert user is not None  # read() would have raised
        role = next(iter(sorted(user.roles, key=lambda r: r.value)))
        return minimum_necessary_view(record, role)

    def read_version(
        self, record_id: str, version: int, *, actor_id: str
    ) -> HealthRecord:
        """Read one historical version, under the same authorization as
        :meth:`read` and attributed to the same kind of accountable
        principal."""
        chain = self._chain_for(record_id)
        if version < 0 or version >= len(chain):
            raise RecordError(f"record {record_id} has no version {version}")
        patient_id = chain.latest().record.patient_id
        self._authorize(
            actor_id,
            Permission.READ_RECORD,
            patient_id,
            self._default_purpose(actor_id),
            record_id,
        )
        stored = self._open_version(record_id, version)
        self._last_access[record_id] = self._clock.now()
        self._audit.append(
            AuditAction.RECORD_READ, actor_id, record_id, {"version": version}
        )
        return stored.record

    def correct(self, corrected: HealthRecord, author_id: str, reason: str) -> None:
        chain = self._chain_for(corrected.record_id)
        patient_id = chain.latest().record.patient_id
        self._authorize(
            author_id,
            Permission.CORRECT_RECORD,
            patient_id,
            Purpose.TREATMENT,
            corrected.record_id,
        )
        if corrected.record_id in self._cold_records:
            # a correction makes the record active again: recall first,
            # so every version lives in one tier
            self._recall(corrected.record_id)
        version = chain.append_correction(corrected, author_id, reason, self._clock.now())
        self._write_versions([(version, self._keys[corrected.record_id])])
        self._maybe_anchor()
        self._dirty_records.add(corrected.record_id)
        self._last_access[corrected.record_id] = self._clock.now()
        # The cached entry is now a superseded version — purge it.
        self._read_cache.pop(corrected.record_id, None)
        # Re-index: the record's current text changes; old terms must not
        # linger (secure deletion of the prior posting entries).
        self._index.delete_document(corrected.record_id)
        self._index.add_document(corrected.record_id, corrected.searchable_text())
        self._audit.append(
            AuditAction.RECORD_CORRECTED, author_id, corrected.record_id,
            {"version": version.version_number, "reason": reason,
             "previous_digest": version.previous_digest},
        )

    def search(self, term: str, *, actor_id: str) -> list[str]:
        # Audit the keyed trapdoor, never the plaintext term: the audit
        # log persists to a device, and a cleartext term there would be
        # exactly the "Cancer" leak the trustworthy index closes.  The
        # privacy officer can recompute the trapdoor to match queries.
        commitment = self._index.index.trapdoor(term)[:16]
        subject = f"search:{commitment}"
        self._authorize(
            actor_id, Permission.SEARCH_RECORDS, "", Purpose.TREATMENT, subject
        )
        hits = self._index.search(term)
        self._audit.append(
            AuditAction.RECORD_SEARCHED, actor_id, subject, {"hits": len(hits)}
        )
        self._maybe_anchor()
        return [record_id for record_id in hits if record_id not in self._disposed]

    def dispose(
        self, record_id: str, *, actor_id: str
    ) -> list[DispositionCertificate]:
        """Full compliant disposal of every version of a record,
        attributed to the workforce member who approved it.  A cold
        record is recalled first so the identify→approve→execute
        workflow (and its certificates) runs against warm extents, then
        its cold residue — every segment extent the member ever
        occupied, plus the member cache — is scrubbed."""
        chain = self._chain_for(record_id)
        if record_id in self._cold_records:
            self._recall(record_id, actor_id=actor_id)
        now = self._clock.now()
        object_ids = [
            _version_object_id(record_id, n) for n in range(len(chain))
        ]
        # attachment chunks share the record's fate
        attachment_prefix = f"{record_id}#att/"
        object_ids += [
            object_id
            for object_id in self._worm.object_ids()
            if object_id.startswith(attachment_prefix)
        ]
        # every version and chunk must be past retention and hold-free
        for object_id in object_ids:
            self._worm.retention.check_deletable(object_id, now)
        for object_id in object_ids:
            if object_id.startswith(attachment_prefix):
                self._disposition.register_key_handle(object_id, self._keys[record_id])
        self._disposition.identify()
        certificates = []
        for object_id in object_ids:
            if object_id in self._disposition.pending():
                self._disposition.approve(object_id, actor_id)
                certificates.append(self._disposition.execute(object_id))
        # index must forget the record, verifiably — and so must the
        # read cache: a disposed record served from memory would defeat
        # the key shredding below.
        self._read_cache.pop(record_id, None)
        self._index.delete_document(record_id)
        # coordinated cryptographic deletion in backups
        handle = self._keys[record_id]
        if not self._vault.destroyed:
            self._vault.shred_key(handle.key_id)
        # cold residue: the key shredding above already killed any
        # sealed member cryptographically; zero the extents too (and the
        # bind_cache hook purged the decrypted member cache with it)
        cold_extents = self._cold.scrub_record(
            record_id, passes=self._config.shredder_passes
        )
        self._disposed.add(record_id)
        self._dirty_records.discard(record_id)
        self._last_access.pop(record_id, None)
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
        """Research export: Safe-Harbor de-identification, audited."""
        chain = self._chain_for(record_id)
        patient_id = chain.latest().record.patient_id
        self._authorize(
            actor_id,
            Permission.EXPORT_DEIDENTIFIED,
            patient_id,
            Purpose.RESEARCH,
            record_id,
        )
        record = self._open_version(record_id, len(chain) - 1).record
        deid = deidentify(record, pseudonym=f"case-{abs(hash(patient_id)) % 10_000:04d}")
        self._audit.append(AuditAction.RECORD_EXPORTED, actor_id, record_id, {})
        return deid

    def record_ids(self) -> list[str]:
        return sorted(set(self._chains) - self._disposed)

    def version_count(self, record_id: str) -> int:
        return len(self._chain_for(record_id))

    # ------------------------------------------------------------------
    # harness surfaces
    # ------------------------------------------------------------------

    def devices(self) -> list[BlockDevice]:
        devices = [self._worm.device, self._index.index.device, self._audit.device]
        if self._keystore.device is not None:
            devices.append(self._keystore.device)
        devices.append(self._checkpoints.device)
        devices.append(self._cold.device)
        return devices

    def _check_record_chain(self, record_id: str) -> bool:
        """Decrypt + re-chain every version of one record, from whichever
        tier holds it (cold members are checked in place, not recalled)."""
        try:
            stored = self._stored_versions(record_id)
            VersionChain.from_versions(record_id, stored)
            return True
        except Exception:  # noqa: BLE001 — any failure implicates the record
            return False

    def verify_integrity(self, incremental: bool = False) -> VerificationReport:
        """Integrity verdict; ``report.violations`` carries the record
        ids implicated by any failure (plus ``"<index>"`` when the
        posting lists fail authentication).

        Full mode digest-checks every version object, verifies every
        chain's hash linkage, and authenticates every posting list.
        ``incremental=True`` checks only objects/records touched since
        the last full pass, plus a rotating sample of clean ones
        (``config.integrity_clean_sample`` per pass) so silent bit-rot
        in already-verified data is still revisited on a bounded cycle.
        """
        failures: set[str] = set()
        coverage = ""
        if incremental:
            with METRICS.timer("engine_integrity_incremental_ns"):
                for object_id in self._worm.verify_dirty(
                    clean_sample=self._config.integrity_clean_sample
                ):
                    failures.add(_record_id_of(object_id))
                failures.update(
                    self._cold.verify_dirty(
                        clean_sample=self._config.cold_clean_sample
                    )
                )
                live = self.record_ids()
                dirty = [r for r in live if r in self._dirty_records]
                clean = [r for r in live if r not in self._dirty_records]
                to_check = list(dirty)
                if clean and self._config.integrity_clean_sample > 0:
                    count = min(self._config.integrity_clean_sample, len(clean))
                    to_check += [
                        clean[(self._integrity_cursor + step) % len(clean)]
                        for step in range(count)
                    ]
                    self._integrity_cursor = (
                        self._integrity_cursor + count
                    ) % len(clean)
                for record_id in to_check:
                    if self._check_record_chain(record_id):
                        self._dirty_records.discard(record_id)
                    else:
                        failures.add(record_id)
                        self._dirty_records.add(record_id)
                METRICS.incr("engine_integrity_records_checked", len(to_check))
                coverage = (
                    f"{len(dirty)} dirty + {len(to_check) - len(dirty)} "
                    f"sampled record(s)"
                )
            METRICS.incr("engine_integrity_incremental_runs")
        else:
            with METRICS.timer("engine_integrity_full_ns"):
                for object_id in self._worm.verify_all():
                    failures.add(_record_id_of(object_id))
                failures.update(self._cold.verify_all())
                for record_id in self.record_ids():
                    if not self._check_record_chain(record_id):
                        failures.add(record_id)
                METRICS.incr(
                    "engine_integrity_records_checked", len(self.record_ids())
                )
                coverage = (
                    f"all {len(self.record_ids())} record(s), every worm object"
                )
            METRICS.incr("engine_integrity_full_runs")
            # A clean full pass verified everything; failures stay dirty.
            self._dirty_records = {r for r in failures if r in self._chains}
            self._integrity_cursor = 0
        if self._index.index.verify():
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
            if self._quorum is not None:
                self._quorum.check_log(self._audit)
            else:
                self._witness.check_log(self._audit)
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
        as WORM objects carrying the record's retention term, so the
        attachment inherits retention, integrity, and key-shredding
        disposal from its record.
        """
        from repro.records.attachments import store_attachment

        chain = self._chain_for(record_id)
        record_type = chain.latest().record.record_type
        term = self._config.retention_policy.term_for(record_type, self._clock.now())
        cipher = self._keystore.cipher_for(self._keys[record_id])

        def put(chunk_id: str, blob: bytes) -> None:
            self._worm.put(f"{record_id}#att/{chunk_id}", blob, retention=term)

        manifest = store_attachment(
            attachment_id, data, cipher, put, content_type=content_type
        )
        self._attachments.setdefault(record_id, {})[attachment_id] = manifest
        self._audit.append(
            AuditAction.RECORD_CREATED,
            actor_id,
            f"{record_id}#att/{attachment_id}",
            {"bytes": len(data), "chunks": len(manifest.chunk_ids),
             "content_type": content_type},
        )
        return manifest

    def read_attachment(
        self, record_id: str, attachment_id: str, *, actor_id: str
    ) -> bytes:
        """Read an attachment with full authorization + verification."""
        from repro.records.attachments import load_attachment

        chain = self._chain_for(record_id)
        patient_id = chain.latest().record.patient_id
        self._authorize(
            actor_id,
            Permission.READ_RECORD,
            patient_id,
            self._default_purpose(actor_id),
            f"{record_id}#att/{attachment_id}",
        )
        manifest = self._attachments.get(record_id, {}).get(attachment_id)
        if manifest is None:
            raise RecordNotFoundError(
                f"record {record_id} has no attachment {attachment_id}"
            )
        cipher = self._keystore.cipher_for(self._keys[record_id])
        data = load_attachment(
            manifest, cipher, lambda cid: self._worm.get(f"{record_id}#att/{cid}")
        )
        self._audit.append(
            AuditAction.RECORD_READ, actor_id, f"{record_id}#att/{attachment_id}", {}
        )
        return data

    def attachments_of(self, record_id: str) -> list[str]:
        """Attachment ids carried by a record."""
        self._chain_for(record_id)
        return sorted(self._attachments.get(record_id, {}))

    def records_of_patient(self, patient_id: str) -> list[str]:
        """Live record ids belonging to one patient."""
        return sorted(
            record_id
            for record_id in self.record_ids()
            if self._chains[record_id].latest().record.patient_id == patient_id
        )

    def records_in_window(self, start: float, end: float) -> list[str]:
        """Live records created in ``[start, end)`` — the time-range
        query audits and chart reviews need."""
        return sorted(
            record_id
            for record_id in self.record_ids()
            if start <= self._chains[record_id].version(0).record.created_at < end
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
            f"disclosures:{patient_id}",
        )
        record_ids = self.records_of_patient(patient_id)
        local = self.audit_query().disclosure_accounting(record_ids)
        foreign = self._foreign_segments.get(patient_id)
        if foreign is None:
            return local
        # the patient migrated here: access events that predate this
        # shard's log arrived as the imported audit-chain segment and
        # belong in the same accounting
        from repro.audit.query import _ACCESS_ACTIONS

        wanted = set(record_ids)
        imported = [
            event
            for event in (
                AuditEvent.from_dict(d)
                for d in (*foreign["events"], *foreign["delta"])
            )
            if event.subject_id in wanted and event.action in _ACCESS_ACTIONS
        ]
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
        latest = self._witness.latest()
        if latest is None or latest.log_size <= sequence:
            anchor = publish_anchor(self._audit, self._signer, self._clock.now())
            self._witness.receive(anchor, self._audit)
            latest = anchor
        event, chain_prev, proof = self._audit.prove_event(
            sequence, at_size=latest.log_size
        )
        return event, chain_prev, proof, latest

    # ------------------------------------------------------------------
    # patient migration (online cluster rebalancing)
    # ------------------------------------------------------------------

    def patient_ids(self) -> list[str]:
        """Every patient with at least one live record on this engine."""
        return sorted(
            {
                self._chains[record_id].latest().record.patient_id
                for record_id in self.record_ids()
            }
        )

    def _segment_events_for(
        self, patient_id: str, record_ids: list[str]
    ) -> list[dict]:
        """The patient's audit-chain segment as event dicts: every local
        event whose subject is one of the patient's records (or their
        attachments), preceded by any segment an earlier move brought
        here — so custody chains across repeated moves."""
        wanted = set(record_ids)

        def belongs(event: AuditEvent) -> bool:
            if event.subject_id in wanted:
                return True
            head, sep, _ = event.subject_id.partition("#att/")
            return bool(sep) and head in wanted

        events: list[dict] = []
        foreign = self._foreign_segments.get(patient_id)
        if foreign is not None:
            events.extend(foreign["events"])
            events.extend(foreign["delta"])
        events.extend(
            event.to_dict() for event in self._audit.events() if belongs(event)
        )
        return events

    def export_patient_history(
        self, patient_id: str, *, actor_id: str = "system"
    ) -> PatientBundle:
        """Package one patient's full history for migration to another
        shard: version plaintexts, attachments, retention terms and
        holds, the audit-chain segment, a signed Merkle manifest over
        the plaintext digests, and a chain-continuity attestation.

        Read-only apart from the ``MIGRATION_STARTED`` audit event:
        every version is decrypted straight off the WORM store and
        checked against its chain digest before it is allowed into the
        bundle (the first read of the double-read cutover)."""
        record_ids = self.records_of_patient(patient_id)
        if not record_ids:
            raise RecordNotFoundError(
                f"no live records for patient {patient_id}"
            )
        from repro.records.attachments import load_attachment

        entries: list[tuple[str, bytes]] = []
        records: list[RecordBundle] = []
        for record_id in record_ids:
            chain = self._chains[record_id]
            versions: list[dict] = []
            terms: list[tuple[str, float, float]] = []
            holds: list[tuple[str, tuple[str, ...]]] = []
            for n in range(len(chain)):
                object_id = _version_object_id(record_id, n)
                stored = self._open_version(record_id, n)
                if stored.digest() != chain.version(n).digest():
                    raise IntegrityError(
                        f"version {object_id} does not match its chain; "
                        "refusing to export a tampered history"
                    )
                version_dict = stored.to_dict()
                versions.append(version_dict)
                entries.append(
                    (object_id, sha256(canonical_bytes(version_dict)))
                )
                term = self._worm.retention.term_for(object_id)
                terms.append((object_id, term.start, term.duration_seconds))
                held = self._worm.retention.holds_on(object_id)
                if held:
                    holds.append((object_id, tuple(sorted(held))))
            attachments: list[AttachmentBundle] = []
            cipher = self._keystore.cipher_for(self._keys[record_id])
            for attachment_id in sorted(self._attachments.get(record_id, {})):
                manifest = self._attachments[record_id][attachment_id]
                data = load_attachment(
                    manifest,
                    cipher,
                    lambda cid: self._worm.get(f"{record_id}#att/{cid}"),
                )
                first_chunk = f"{record_id}#att/{manifest.chunk_ids[0]}"
                term = self._worm.retention.term_for(first_chunk)
                attachments.append(
                    AttachmentBundle(
                        attachment_id=attachment_id,
                        content_type=manifest.content_type,
                        data=data,
                        term=(term.start, term.duration_seconds),
                    )
                )
                entries.append(
                    (f"{record_id}#att/{attachment_id}", sha256(data))
                )
            records.append(
                RecordBundle(
                    record_id=record_id,
                    versions=tuple(versions),
                    terms=tuple(terms),
                    holds=tuple(holds),
                    attachments=tuple(attachments),
                )
            )
        segment = self._segment_events_for(patient_id, record_ids)
        now = self._clock.now()
        manifest = build_entries_manifest(entries, self._signer, now)
        attestation = self._signer.sign(
            {
                "kind": "segment-attestation",
                "patient": patient_id,
                "source": self._config.site_id,
                "segment_digest": sha256(canonical_bytes(segment)),
                "events": len(segment),
                "chain_head": self._audit.head_digest,
                "log_size": len(self._audit),
                "exported_at": now,
            }
        )
        self._audit.append(
            AuditAction.MIGRATION_STARTED,
            actor_id,
            patient_id,
            {
                "migration": "export",
                "patient": patient_id,
                "records": list(record_ids),
                "objects": len(entries),
            },
        )
        METRICS.incr("patient_exports")
        return PatientBundle(
            patient_id=patient_id,
            source_id=self._config.site_id,
            exported_at=now,
            records=tuple(records),
            segment=tuple(segment),
            attestation=attestation,
            manifest=manifest,
        )

    def import_patient_history(
        self, bundle: PatientBundle, *, actor_id: str = "system"
    ) -> tuple[tuple[str, bytes], ...]:
        """Adopt a migrated patient: re-seal every version and
        attachment under this shard's keys, restore the original
        retention terms and holds, archive the imported audit-chain
        segment, and append the durable ``MIGRATION_COMPLETED`` import
        marker.

        The whole patient lands in ONE WORM batch frame alongside the
        segment archive, so a crash mid-import leaves *nothing* of the
        patient here — there is no partially-imported state to salvage.
        Returns the destination's freshly recomputed plaintext digests
        (the second read of the double-read cutover)."""
        from repro.records.attachments import store_attachment

        patient_id = bundle.patient_id
        for record_bundle in bundle.records:
            if (
                record_bundle.record_id in self._chains
                or record_bundle.record_id in self._disposed
            ):
                raise MigrationError(
                    f"record {record_bundle.record_id} already exists on "
                    "this shard; refusing a dual-home import"
                )
        if patient_id in self._foreign_segments:
            raise MigrationError(
                f"patient {patient_id} already has an imported segment here"
            )
        expected = dict(bundle.manifest.entries)
        staged_chains: dict[str, VersionChain] = {}
        for record_bundle in bundle.records:
            versions = [
                RecordVersion.from_dict(d) for d in record_bundle.versions
            ]
            for version in versions:
                object_id = _version_object_id(
                    record_bundle.record_id, version.version_number
                )
                digest = sha256(canonical_bytes(version.to_dict()))
                if expected.get(object_id) != digest:
                    raise MigrationError(
                        f"bundle version {object_id} does not match its "
                        "manifest entry"
                    )
            # from_versions re-verifies the hash linkage end to end
            staged_chains[record_bundle.record_id] = VersionChain.from_versions(
                record_bundle.record_id, versions
            )
        record_order = [rb.record_id for rb in bundle.records]
        handles = dict(
            zip(record_order, self._keystore.create_keys(record_order))
        )
        sealed_pairs: list[tuple[RecordVersion, KeyHandle]] = []
        for record_bundle in bundle.records:
            chain = staged_chains[record_bundle.record_id]
            for n in range(len(chain)):
                sealed_pairs.append(
                    (chain.version(n), handles[record_bundle.record_id])
                )
        sealed = iter(self._seal_versions(sealed_pairs))
        original_terms = {
            object_id: RetentionTerm(start, duration)
            for record_bundle in bundle.records
            for object_id, start, duration in record_bundle.terms
        }
        items: list[tuple[str, bytes, Any]] = []
        for record_bundle in bundle.records:
            for n in range(len(staged_chains[record_bundle.record_id])):
                object_id = _version_object_id(record_bundle.record_id, n)
                items.append((object_id, next(sealed), original_terms[object_id]))
        # attachments: chunk + seal in memory so the chunks ride the
        # same all-or-nothing batch frame as the versions
        attachment_manifests: dict[str, dict[str, Any]] = {}
        for record_bundle in bundle.records:
            cipher = self._keystore.cipher_for(handles[record_bundle.record_id])
            for attachment in record_bundle.attachments:
                chunks: list[tuple[str, bytes]] = []
                manifest = store_attachment(
                    attachment.attachment_id,
                    attachment.data,
                    cipher,
                    lambda cid, blob: chunks.append((cid, blob)),
                    content_type=attachment.content_type,
                )
                term = RetentionTerm(attachment.term[0], attachment.term[1])
                for chunk_id, blob in chunks:
                    items.append(
                        (f"{record_bundle.record_id}#att/{chunk_id}", blob, term)
                    )
                attachment_manifests.setdefault(record_bundle.record_id, {})[
                    attachment.attachment_id
                ] = manifest
        segment = [dict(event) for event in bundle.segment]
        segment_object_id = (
            f"{_SEGMENT_PREFIX}{patient_id}/{bundle.exported_at:.6f}"
        )
        items.append(
            (
                segment_object_id,
                canonical_bytes(
                    {
                        "patient": patient_id,
                        "source": bundle.source_id,
                        "events": segment,
                        "attestation": bundle.attestation.to_dict(),
                    }
                ),
                None,
            )
        )
        self._audit.begin_batch()
        try:
            metas = self._worm.put_many(items)
            self._custody.record_origins(
                [
                    (meta.object_id, meta.content_digest)
                    for meta in metas
                    if not meta.object_id.startswith(_SEGMENT_PREFIX)
                ],
                self._signer,
                self._clock.now(),
                reason=f"migrated from {bundle.source_id}",
            )
            documents: list[tuple[str, str]] = []
            for record_bundle in bundle.records:
                record_id = record_bundle.record_id
                handle = handles[record_id]
                chain = staged_chains[record_id]
                self._keys[record_id] = handle
                self._chains[record_id] = chain
                for n in range(len(chain)):
                    object_id = _version_object_id(record_id, n)
                    self._disposition.register_key_handle(object_id, handle)
                    self._provenance.add_object(object_id)
                    self._provenance.record_custody(
                        object_id, self._config.site_id, start=self._clock.now()
                    )
                    # re-establish the treating relationship the record
                    # documents, so policy decisions survive the move
                    self._auto_register_author(
                        chain.version(n).author_id, patient_id
                    )
                for attachment in record_bundle.attachments:
                    manifest = attachment_manifests[record_id][
                        attachment.attachment_id
                    ]
                    for chunk_id in manifest.chunk_ids:
                        self._disposition.register_key_handle(
                            f"{record_id}#att/{chunk_id}", handle
                        )
                if record_id in attachment_manifests:
                    self._attachments[record_id] = attachment_manifests[record_id]
                for object_id, hold_ids in record_bundle.holds:
                    for hold_id in hold_ids:
                        self._worm.retention.place_hold(object_id, hold_id)
                self._dirty_records.add(record_id)
                documents.append(
                    (record_id, chain.latest().record.searchable_text())
                )
            self._index.add_documents(documents)
            self._foreign_segments[patient_id] = {
                "events": segment,
                "delta": [],
                "attestation": bundle.attestation,
                "source": bundle.source_id,
            }
            self._segment_objects.setdefault(patient_id, []).append(
                segment_object_id
            )
            self._audit.append(
                AuditAction.MIGRATION_COMPLETED,
                actor_id,
                patient_id,
                {
                    "migration": "import",
                    "patient": patient_id,
                    "source": bundle.source_id,
                    "records": record_order,
                },
            )
        finally:
            self._audit.commit()
        METRICS.incr("patient_imports")
        return self.patient_history_digests(patient_id)

    def patient_history_digests(
        self, patient_id: str
    ) -> tuple[tuple[str, bytes], ...]:
        """Freshly recomputed plaintext digests of every extent of one
        patient's history, decrypted straight off the WORM store — the
        verification primitive behind the double-read cutover.  The
        shape matches :class:`~repro.migration.manifest.MigrationManifest`
        entries exactly."""
        from repro.records.attachments import load_attachment

        entries: list[tuple[str, bytes]] = []
        for record_id in self.records_of_patient(patient_id):
            chain = self._chains[record_id]
            for n in range(len(chain)):
                stored = self._open_version(record_id, n)
                entries.append(
                    (
                        _version_object_id(record_id, n),
                        sha256(canonical_bytes(stored.to_dict())),
                    )
                )
            cipher = self._keystore.cipher_for(self._keys[record_id])
            for attachment_id in sorted(self._attachments.get(record_id, {})):
                manifest = self._attachments[record_id][attachment_id]
                data = load_attachment(
                    manifest,
                    cipher,
                    lambda cid: self._worm.get(f"{record_id}#att/{cid}"),
                )
                entries.append(
                    (f"{record_id}#att/{attachment_id}", sha256(data))
                )
        return tuple(sorted(entries))

    def export_audit_delta(
        self, patient_id: str, *, since: int
    ) -> list[dict]:
        """Audit events about the patient's records appended after log
        size *since* — the tail the cutover syncs to the destination so
        reads served mid-move still reach the accounting."""
        record_ids = self.records_of_patient(patient_id)
        wanted = set(record_ids)

        def belongs(event: AuditEvent) -> bool:
            if event.subject_id in wanted:
                return True
            head, sep, _ = event.subject_id.partition("#att/")
            return bool(sep) and head in wanted

        return [
            event.to_dict()
            for event in self._audit.events()[since:]
            if belongs(event)
        ]

    def adopt_audit_delta(self, patient_id: str, events: list[dict]) -> int:
        """Append cutover-tail events to an imported segment (and its
        durable WORM archive)."""
        if patient_id not in self._foreign_segments:
            raise MigrationError(
                f"patient {patient_id} has no imported segment here"
            )
        events = [dict(event) for event in events]
        if not events:
            return 0
        self._foreign_segments[patient_id]["delta"].extend(events)
        delta_object_id = (
            f"{_SEGMENT_PREFIX}{patient_id}/delta/{self._clock.now():.6f}"
        )
        self._worm.put(
            delta_object_id,
            canonical_bytes({"patient": patient_id, "events": events}),
        )
        self._segment_objects.setdefault(patient_id, []).append(delta_object_id)
        return len(events)

    def imported_segment(self, patient_id: str) -> tuple[dict, ...]:
        """The audit segment (snapshot + cutover delta) that migrated in
        with *patient_id* (empty if the patient never moved here)."""
        foreign = self._foreign_segments.get(patient_id)
        if foreign is None:
            return ()
        return tuple(foreign["events"]) + tuple(foreign["delta"])

    def imported_segment_snapshot(self, patient_id: str) -> tuple[dict, ...]:
        """Just the export-time snapshot of the imported segment — the
        portion the source's chain-continuity attestation signs."""
        foreign = self._foreign_segments.get(patient_id)
        if foreign is None:
            return ()
        return tuple(foreign["events"])

    def segment_attestation(self, patient_id: str):
        """The source-signed chain-continuity attestation that arrived
        with *patient_id*'s segment (``None`` if never migrated here)."""
        foreign = self._foreign_segments.get(patient_id)
        return None if foreign is None else foreign["attestation"]

    def export_consent_directives(self, patient_id: str) -> tuple:
        """The patient's consent directives, for transfer at cutover
        (consent must give one answer no matter where the patient
        lives)."""
        return tuple(self._consent.directives_for(patient_id))

    def adopt_consent_directives(self, patient_id: str, directives) -> int:
        """Adopt consent directives migrated in with a patient; skips
        directive ids this registry already knows."""
        known = {
            directive.directive_id
            for directive in self._consent.directives_for(patient_id)
        }
        adopted = 0
        for directive in directives:
            if directive.directive_id in known:
                continue
            self._consent.add_directive(patient_id, directive)
            adopted += 1
        return adopted

    def retire_patient(
        self,
        patient_id: str,
        *,
        actor_id: str = "system",
        destination_id: str = "",
    ) -> tuple[str, ...]:
        """Drop this shard's copy of a patient whose custody moved away.

        The durable ``CUSTODY_TRANSFERRED`` export marker hits the audit
        device *first*: recovery replays the log, so once the marker is
        down the records below can never resurrect as a second home.
        The WORM extents are expatriated (tombstoned without a retention
        check — the data lives on at the destination under its original
        terms), not destroyed."""
        record_ids = self.records_of_patient(patient_id)
        if not record_ids:
            raise RecordNotFoundError(
                f"no live records for patient {patient_id}"
            )
        self._audit.append(
            AuditAction.CUSTODY_TRANSFERRED,
            actor_id,
            patient_id,
            {
                "migration": "export",
                "patient": patient_id,
                "records": list(record_ids),
                "destination": destination_id,
            },
        )
        for record_id in record_ids:
            chain = self._chains.pop(record_id)
            for n in range(len(chain)):
                object_id = _version_object_id(record_id, n)
                self._worm.expatriate(object_id)
                self._custody.expatriate(object_id)
            for manifest in self._attachments.pop(record_id, {}).values():
                for chunk_id in manifest.chunk_ids:
                    chunk_object_id = f"{record_id}#att/{chunk_id}"
                    self._worm.expatriate(chunk_object_id)
                    self._custody.expatriate(chunk_object_id)
            self._keys.pop(record_id, None)
            self._read_cache.pop(record_id, None)
            self._dirty_records.discard(record_id)
            self._index.delete_document(record_id)
        self._foreign_segments.pop(patient_id, None)
        for object_id in self._segment_objects.pop(patient_id, []):
            self._worm.expatriate(object_id)
        METRICS.incr("patient_retires")
        return tuple(record_ids)

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
    # operations: backup, media refresh, retention sweeps
    # ------------------------------------------------------------------

    def create_backup(
        self, *, incremental: bool = False, actor_id: str
    ):
        """Snapshot the WORM store + wrapped keys to the off-site vault,
        attributed to the operator who ran it."""
        handles = {
            object_id: self._keys[_record_id_of(object_id)]
            for object_id in self._worm.object_ids()
        }
        if incremental:
            snapshot = self._backup.create_incremental(self._worm, self._keystore, handles)
        else:
            snapshot = self._backup.create_full(self._worm, self._keystore, handles)
        self._audit.append(
            AuditAction.BACKUP_CREATED, actor_id, snapshot.snapshot_id,
            {"objects": len(snapshot.objects), "kind": snapshot.kind},
        )
        return snapshot

    def restore_from_backup(
        self, snapshot_id: str, *, actor_id: str
    ) -> RestoreReport:
        """Disaster recovery: rebuild the WORM store from the vault."""
        medium = self._media_pool.provision()
        new_worm = WormStore(device=medium.device, clock=self._clock)
        report = self._backup.restore(snapshot_id, new_worm, None)
        if not report.verified:
            raise IntegrityError(
                f"restore failed verification: {report.mismatched}"
            )
        # Reattach retention terms (restore writes zero-duration terms;
        # extend-only semantics let us rebuild the real ones from the
        # surviving controller metadata) and disposition plumbing.
        for object_id in new_worm.object_ids():
            record_id = _record_id_of(object_id)
            handle = self._keys.get(record_id)
            if handle is not None:
                self._disposition.register_key_handle(object_id, handle)
            chain = self._chains.get(record_id)
            if chain is not None:
                if "#att/" in object_id:
                    # attachments carry the latest version's record type
                    # from their creation; rebuild from the chain head
                    reference = chain.latest()
                else:
                    reference = chain.version(int(object_id.partition("@v")[2]))
                term = self._config.retention_policy.term_for(
                    reference.record.record_type, reference.created_at
                )
                if term.expires_at > new_worm.retention.term_for(object_id).expires_at:
                    new_worm.retention.extend_term(object_id, term.expires_at)
        self._worm = new_worm
        self._medium = medium
        self._disposition = DispositionWorkflow(
            self._worm, self._shredder, clock=self._clock
        )
        # A restore rewrites the whole archive: every record is dirty
        # until the next integrity pass re-verifies it.
        self._dirty_records = set(self._chains) - self._disposed
        self._audit.append(
            AuditAction.BACKUP_RESTORED, actor_id, snapshot_id,
            {"objects": report.objects_restored},
        )
        return report

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
        store = cls(config)
        # keys: replay the escrow under the HSM-held master key
        store._keystore = KeyStore.recover(
            config.master_key, key_device, clock=store._clock
        )
        store._shredder = SecureShredder(store._keystore, config.shredder_passes)
        store._shredder.bind_cache(purge_signature_memo)
        store._shredder.bind_cache(purge_ed25519_memo)
        # worm: adopt the surviving medium into a fresh pool
        store._media_pool = MediaPool(
            clock=store._clock, default_capacity=config.device_capacity
        )
        store._medium = store._media_pool.adopt(worm_device)
        # The key escrow knows which records were lawfully destroyed; a
        # broken WORM frame containing one of their objects is a shred
        # interrupted before its reseal (a certified hole), not a torn
        # write — worm recovery completes the reseal and keeps the
        # frame's surviving neighbours instead of dropping the batch.
        labels = store._keystore.labelled_handles()

        def _certified_hole(object_ids: list[str]) -> bool:
            for object_id in object_ids:
                handle = labels.get(_record_id_of(object_id))
                if handle is not None and store._keystore.is_shredded(handle):
                    return True
            return False

        store._worm = WormStore.recover(
            worm_device, clock=store._clock, salvage_check=_certified_hole
        )
        store._disposition = DispositionWorkflow(
            store._worm, store._shredder, clock=store._clock
        )
        # audit: replay + verify the hash chain
        store._audit = AuditLog.recover(
            audit_device,
            clock=store._clock,
            spot_checks=config.audit_spot_checks,
            full_rescan_every=config.audit_full_rescan_every,
        )
        # verified watermarks: recover the MAC-sealed checkpoint journal
        # (a seal torn by the crash is dropped whole, so verification
        # falls back to an older watermark or a full rescan — never a
        # torn one); without a surviving image, start a fresh store
        if checkpoint_device is not None:
            store._checkpoints = CheckpointStore.recover(
                checkpoint_device,
                key=derive_key(config.master_key, "curator/audit-checkpoint"),
                clock=store._clock,
            )
        store._audit.adopt_checkpoints(store._checkpoints)
        # external infrastructure that survives a process crash
        if signer is not None:
            store._signer = signer
            store._trust.add(signer.verifier())
        if witnesses:
            store._witnesses = list(witnesses)
            store._witness = store._witnesses[0]
            store._quorum = (
                WitnessQuorum(
                    store._witnesses, threshold=len(store._witnesses) // 2 + 1
                )
                if len(store._witnesses) > 1
                else None
            )
        # migration markers: the recovered audit log says which records
        # moved away (CUSTODY_TRANSFERRED export) and which arrived
        # (MIGRATION_COMPLETED import).  Replayed in sequence order they
        # yield the set this shard no longer owns — whose recovered
        # bytes must stay tombstoned, because WORM tombstones are
        # process memory and a naive replay would resurrect a second
        # home for every migrated patient.
        moved_records: set[str] = set()
        moved_patients: set[str] = set()
        # Demotion markers replay the same way: a RECORD_DEMOTED with no
        # later RECORD_RECALLED means the cold member is authoritative
        # and the recovered warm bytes must stay tombstoned.
        demoted_records: set[str] = set()
        for event in store._audit.events():
            detail = event.detail or {}
            if (
                event.action is AuditAction.CUSTODY_TRANSFERRED
                and detail.get("migration") == "export"
            ):
                moved_records.update(detail.get("records") or [])
                moved_patients.add(detail.get("patient") or event.subject_id)
            elif (
                event.action is AuditAction.MIGRATION_COMPLETED
                and detail.get("migration") == "import"
            ):
                moved_records.difference_update(detail.get("records") or [])
                moved_patients.discard(detail.get("patient") or event.subject_id)
            elif event.action is AuditAction.RECORD_DEMOTED:
                demoted_records.add(event.subject_id)
            elif event.action is AuditAction.RECORD_RECALLED:
                demoted_records.discard(event.subject_id)
        # record directory: decrypt WORM versions under recovered keys
        version_ids: dict[str, dict[int, str]] = {}
        chunk_ids: list[str] = []
        segment_ids: list[str] = []
        for object_id in store._worm.object_ids():
            if object_id.startswith(_SEGMENT_PREFIX):
                segment_ids.append(object_id)
                continue
            if "#att/" in object_id:
                chunk_ids.append(object_id)
                continue
            record_id, _, tail = object_id.partition("@v")
            version_ids.setdefault(record_id, {})[int(tail)] = object_id
        disposed: list[str] = []
        damaged: list[str] = []
        orphaned: list[str] = []
        migrated: list[str] = []
        documents: list[tuple[str, str]] = []
        versions_recovered = 0
        for record_id in sorted(version_ids):
            numbered = version_ids[record_id]
            if record_id in moved_records:
                # custody moved to another shard: keep the extents
                # tombstoned, never serve them from here again
                for n in sorted(numbered):
                    store._worm.expatriate(numbered[n])
                migrated.append(record_id)
                continue
            handle = labels.get(record_id)
            if handle is None:
                orphaned.extend(numbered[n] for n in sorted(numbered))
                continue
            store._keys[record_id] = handle
            if store._keystore.is_shredded(handle):
                # Cryptographic deletion did its job: the ciphertext may
                # survive but the record is gone — record the disposal
                # and restore the tombstones (the shredder zeroed the
                # extents, so these objects must never be served again).
                store._disposed.add(record_id)
                disposed.append(record_id)
                for n in sorted(numbered):
                    try:
                        store._worm.delete(numbered[n])
                    except Exception:  # noqa: BLE001 — hold/missing: leave as-is
                        pass
                continue
            try:
                stored = [
                    store._open_version(record_id, n) for n in sorted(numbered)
                ]
                chain = VersionChain.from_versions(record_id, stored)
            except Exception:  # noqa: BLE001 — torn/tampered data
                damaged.append(record_id)
                continue
            store._chains[record_id] = chain
            versions_recovered += len(stored)
            documents.append((record_id, chain.latest().record.searchable_text()))
            for n in sorted(numbered):
                object_id = numbered[n]
                store._disposition.register_key_handle(object_id, handle)
                store._provenance.add_object(object_id)
                reference = chain.version(n)
                term = config.retention_policy.term_for(
                    reference.record.record_type, reference.created_at
                )
                if (
                    term.expires_at
                    > store._worm.retention.term_for(object_id).expires_at
                ):
                    store._worm.retention.extend_term(object_id, term.expires_at)
        # attachment chunks: bytes + keys survive but the manifests were
        # process memory — keep them disposition-managed, report the loss
        for object_id in chunk_ids:
            record_id = _record_id_of(object_id)
            if record_id in moved_records:
                store._worm.expatriate(object_id)
                continue
            handle = store._keys.get(record_id)
            if handle is not None:
                store._disposition.register_key_handle(object_id, handle)
                chain = store._chains.get(record_id)
                if chain is not None:
                    reference = chain.latest()
                    term = config.retention_policy.term_for(
                        reference.record.record_type, reference.created_at
                    )
                    if (
                        term.expires_at
                        > store._worm.retention.term_for(object_id).expires_at
                    ):
                        store._worm.retention.extend_term(object_id, term.expires_at)
            orphaned.append(object_id)
        # imported audit segments: the durable WORM archives written at
        # import time restore the accounting-of-disclosures history of
        # migrated-in patients; segments of patients who have since
        # moved on stay tombstoned with their records
        for object_id in segment_ids:
            try:
                payload = canonical_loads(store._worm.get(object_id))
                patient_id = payload["patient"]
            except Exception:  # noqa: BLE001 — torn/tampered archive
                orphaned.append(object_id)
                continue
            if patient_id in moved_patients:
                store._worm.expatriate(object_id)
                continue
            entry = store._foreign_segments.setdefault(
                patient_id,
                {"events": [], "delta": [], "attestation": None, "source": ""},
            )
            if "/delta/" in object_id:
                entry["delta"].extend(payload["events"])
            else:
                entry["events"] = list(payload["events"])
                entry["source"] = payload.get("source", "")
                attestation = payload.get("attestation")
                if attestation is not None:
                    from repro.crypto.signatures import SignedPayload

                    entry["attestation"] = SignedPayload.from_dict(attestation)
            store._segment_objects.setdefault(patient_id, []).append(object_id)
        # cold tier: adopt the surviving cold device, then place each
        # recovered member by the audit trail's verdict — demoted and
        # not since recalled means cold is authoritative (warm copies
        # re-tombstoned), anything else was repatriated before the
        # crash, and a shredded key marks certified scrub holes.
        # Without a surviving cold device, demoted records honestly
        # recover warm from their surviving (pre-demotion) extents.
        if cold_device is not None:
            store._cold = ColdStore.recover(
                cold_device, clock=store._clock,
                cache_size=config.cold_cache_size,
            )
            store._shredder.bind_cache(store._cold.purge_cache)
        for record_id in store._cold.record_ids():
            if record_id in store._disposed:
                store._cold.mark_scrubbed(record_id)
                continue
            if record_id not in demoted_records or record_id in moved_records:
                store._cold.mark_repatriated(record_id)
                continue
            handle = labels.get(record_id)
            if handle is None:
                orphaned.append(record_id)
                store._cold.mark_repatriated(record_id)
                continue
            store._keys.setdefault(record_id, handle)
            try:
                stored_versions = store._open_cold_versions(record_id)
                chain = VersionChain.from_versions(record_id, stored_versions)
            except Exception:  # noqa: BLE001 — torn/tampered cold member
                if record_id not in store._chains:
                    damaged.append(record_id)
                # with an intact warm copy the record falls back warm
                store._cold.mark_repatriated(record_id)
                continue
            if record_id not in store._chains:
                # the warm copy died with the crash; the cold member
                # alone restores the record
                store._chains[record_id] = chain
                versions_recovered += len(stored_versions)
                documents.append(
                    (record_id, chain.latest().record.searchable_text())
                )
                if record_id in damaged:
                    damaged.remove(record_id)
            for n in range(len(chain)):
                object_id = _version_object_id(record_id, n)
                if object_id in store._worm:
                    store._worm.expatriate(object_id)
            store._cold_records.add(record_id)
        # index: derived data, re-posted from the recovered records
        store._index.add_documents(documents)
        # Everything recovered came off an untrusted device: dirty until
        # the next integrity pass clears it.
        store._dirty_records = set(store._chains)
        store.recovery_report = RecoveryReport(
            records_recovered=len(store._chains),
            versions_recovered=versions_recovered,
            audit_events=len(store._audit),
            disposed=tuple(disposed),
            damaged=tuple(damaged),
            orphaned=tuple(orphaned),
            migrated=tuple(migrated),
            cold_records=tuple(sorted(store._cold_records)),
        )
        return store

    @property
    def vault(self) -> BackupVault:
        return self._vault

    def refresh_media(self) -> Medium:
        """Migrate the archive to a fresh medium (aging hardware), with
        manifest verification, then sanitize and retire the old one."""
        old_medium = self._medium
        new_medium = self._media_pool.provision()
        destination = WormStore(device=new_medium.device, clock=self._clock)
        engine = MigrationEngine(self._trust, clock=self._clock, custody=None)
        result = engine.migrate(
            self._worm, destination, self._signer, self._config.site_id
        )
        if not result.ok:
            self._audit.append(
                AuditAction.MIGRATION_FAILED, "system", new_medium.medium_id,
                {"missing": list(result.missing), "corrupted": list(result.corrupted)},
            )
            raise IntegrityError(
                f"media refresh failed verification: missing={result.missing} "
                f"corrupted={result.corrupted}"
            )
        self._worm = destination
        self._medium = new_medium
        self._disposition = DispositionWorkflow(
            self._worm, self._shredder, clock=self._clock
        )
        for object_id in self._worm.object_ids():
            handle = self._keys.get(_record_id_of(object_id))
            if handle is not None:
                self._disposition.register_key_handle(object_id, handle)
        old_medium.dispose(sanitize_first=True)
        # The archive now lives on fresh media: re-verify everything.
        self._dirty_records = set(self._chains) - self._disposed
        self._audit.append(
            AuditAction.MIGRATION_COMPLETED, "system", new_medium.medium_id,
            {"from": old_medium.medium_id, "objects": result.copied},
        )
        self._audit.append(
            AuditAction.MEDIA_DISPOSED, "system", old_medium.medium_id, {}
        )
        return new_medium

    def retention_sweep(self) -> list[str]:
        """Records whose every version is past retention (disposal queue)."""
        now = self._clock.now()
        due = []
        for record_id in self.record_ids():
            if record_id in self._cold_records:
                # the manifest carries the latest expiry across the
                # member's versions; holds cannot exist on cold records
                # (place_hold recalls first, demotion skips held ones)
                if self._cold.member(record_id).expires_at <= now:
                    due.append(record_id)
                continue
            chain = self._chains[record_id]
            object_ids = [_version_object_id(record_id, n) for n in range(len(chain))]
            if all(
                self._worm.retention.is_deletable(object_id, now)
                for object_id in object_ids
            ):
                due.append(record_id)
        return due

    @property
    def medium(self) -> Medium:
        return self._medium

    @property
    def media_pool(self) -> MediaPool:
        return self._media_pool

    @property
    def worm(self) -> WormStore:
        return self._worm

    @property
    def index(self) -> SecureDeletionIndex:
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
        return sorted(self._dirty_records)

    @property
    def witness(self) -> AnchorWitness:
        return self._witness

    @property
    def signer(self) -> Signer:
        return self._signer

    def place_hold(
        self, record_id: str, hold_id: str, *, actor_id: str
    ) -> None:
        """Litigation hold across every version of a record.  A cold
        record is recalled first — holds freeze a record in the warm
        tier for fast legal access, and the demotion policy skips held
        records until the hold lifts."""
        chain = self._chain_for(record_id)
        if record_id in self._cold_records:
            self._recall(record_id, actor_id=actor_id)
        for n in range(len(chain)):
            self._worm.retention.place_hold(_version_object_id(record_id, n), hold_id)
        self._audit.append(
            AuditAction.RETENTION_HOLD_PLACED, actor_id, record_id, {"hold": hold_id}
        )

    def release_hold(
        self, record_id: str, hold_id: str, *, actor_id: str
    ) -> None:
        chain = self._chain_for(record_id)
        for n in range(len(chain)):
            self._worm.retention.release_hold(_version_object_id(record_id, n), hold_id)
        self._audit.append(
            AuditAction.RETENTION_HOLD_RELEASED, actor_id, record_id, {"hold": hold_id}
        )
