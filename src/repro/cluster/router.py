"""The sharded cluster frontend: N independent curator engines behind
one actor-attributed API.

:class:`CuratorCluster` presents the same surface as a single
:class:`~repro.core.engine.CuratorStore` while spreading patients
across independent engines.  It is only that surface: where a patient
lives is :mod:`repro.cluster.topology`'s answer, running a call on that
shard (locks, the move gate, the fan-out) is
:mod:`repro.cluster.dispatch`'s job, and what a fan-out returns is put
back together by :mod:`repro.cluster.merge`.  The design commitments:

* **Placement is by patient.**  A :class:`~repro.cluster.ring.VNodeRing`
  maps ``patient_id`` to a shard deterministically (SHA-256, never the
  process-salted builtin ``hash``), so every record, version,
  attachment, break-glass grant and disclosure of one patient lives on
  exactly one engine and per-patient invariants never span shards.  A
  record-keyed call looks the record's patient up and is routed like any
  other call for that patient.
* **Shards are full engines, not partitions of one.**  Each shard has
  its own WORM medium, key escrow, hash-chained audit log, checkpoint
  store and trustworthy index, under a per-shard master key derived
  from the cluster's HSM-held master key.  A raw-device insider on one
  shard learns nothing about, and can tamper with nothing on, the
  others.  The anchor-signing keypair is shared (it models one HSM-held
  site identity and avoids per-shard keygen cost).
* **Merged verification keeps per-shard blame.**  ``verify_integrity``
  and ``verify_audit_trail`` return one
  :class:`~repro.baselines.interface.VerificationReport` merged from
  the per-shard reports, every violation prefixed with the shard that
  raised it.
* **Recovery refuses to shrink silently.**  The sealed
  :class:`~repro.cluster.manifest.ClusterManifest` pins the topology
  and its epoch; :meth:`CuratorCluster.recover_from_devices` raises
  :class:`~repro.errors.ClusterError` naming any shard whose devices
  are missing instead of reassembling a smaller cluster.
* **Elastic, online.**  Every cluster can
  :meth:`~CuratorCluster.rebalance` to more or fewer shards while
  serving: each displaced patient moves under a per-patient ticket
  (reads never block; writes to that one patient wait out the move),
  every move emits a verifier-checked
  :class:`~repro.cluster.rebalancer.MigrationProof`, and the manifest
  epoch bumps with each topology change.

Attribution: every PHI-touching method requires ``actor_id`` as a
keyword, matching the engine's fully-attributed surface.

Policy: every shard engine decides with the one declared
:data:`~repro.policy.rules.DEFAULT_RULES`, so authorization gives one
answer no matter where the patient hashed.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Any, Callable

from repro.baselines.interface import StorageModel, VerificationReport
from repro.cluster import merge
from repro.cluster.dispatch import Dispatch
from repro.cluster.manifest import ClusterManifest
from repro.cluster.rebalancer import (
    MigrationProof,
    RebalanceReport,
    Rebalancer,
    resolve_move,
    salvage_dual_homes,
    verify_migration_proof,
)
from repro.cluster.ring import VNodeRing
from repro.cluster.topology import Topology, ring_from_tag, shard_config
from repro.core.config import CuratorConfig
from repro.core.engine import SIGNATURE_BITS, CuratorStore
from repro.crypto.rsa import generate_keypair
from repro.errors import ClusterError
from repro.records.model import HealthRecord
from repro.util.metrics import METRICS


def _cluster_config(config: CuratorConfig) -> CuratorConfig:
    """*config* with the signing identity every shard shares pinned."""
    if config.signing_keypair is None:
        config = replace(config, signing_keypair=generate_keypair(SIGNATURE_BITS))
    return config


class CuratorCluster(StorageModel):
    """A patient-sharded cluster of curator engines (see module docstring)."""

    model_name = "curator-cluster"

    def __init__(
        self,
        config: CuratorConfig,
        *,
        shards: int = 4,
        cluster_id: str | None = None,
        workers: int = 0,
        _topology: Topology | None = None,
    ) -> None:
        self._config = config = _cluster_config(config)
        cluster_id = cluster_id or f"{config.site_id}-cluster"
        self._topology = _topology or Topology(
            config, cluster_id, VNodeRing.for_count(shards), workers=workers > 0
        )
        self._dispatch = Dispatch(self._topology, cluster_id)
        #: snapshot id -> the shard that took it
        self._snapshots: dict[str, str] = {}
        #: break-glass grant id -> its patient
        self._grants: dict[str, str] = {}
        self._salvage_report: list[dict[str, Any]] = []

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------

    @property
    def ring(self) -> VNodeRing:
        return self._topology.current.ring

    @property
    def manifest(self) -> ClusterManifest:
        """The sealed topology manifest (escrow it off-site)."""
        return self._topology.manifest

    @property
    def shard_count(self) -> int:
        return len(self._topology.current.engines)

    @property
    def shard_ids(self) -> tuple[str, ...]:
        return tuple(self._topology.current.engines)

    @property
    def config(self):
        """The cluster-wide :class:`~repro.core.config.CuratorConfig`
        (read-only; the wire service reuses its clock and site id)."""
        return self._config

    @property
    def shards(self) -> tuple[CuratorStore, ...]:
        """The shard engines, in slot order (read-only introspection;
        going around the router bypasses its locks).  With process
        workers these are :class:`~repro.cluster.workers.ShardWorkerProxy`
        objects — method calls cross the pipe, internals do not."""
        return tuple(self._topology.current.engines.values())

    @property
    def worker_count(self) -> int:
        """Number of process-backed shard workers (0 = in-process)."""
        return self.shard_count if self._topology.workers else 0

    @property
    def salvage_report(self) -> list[dict[str, Any]]:
        """Dual-home resolutions the last device recovery performed."""
        return list(self._salvage_report)

    def close(self) -> None:
        """Shut down process-backed shard workers and their fan-out pool.

        Safe to call on an in-process cluster, whose fan-outs run in the
        caller's thread (nothing to reap), and idempotent either way.
        """
        if self._topology.workers:
            for engine in self.shards:
                engine.close()
        self._dispatch.close()

    def shard_for(self, patient_id: str) -> int:
        """The slot (index into :attr:`shards`) currently serving
        *patient_id*: ring placement, unless an explicit placement pins
        it elsewhere."""
        return self.shard_ids.index(self._topology.home(patient_id))

    def shard_of_record(self, record_id: str) -> int:
        """The slot holding *record_id* — its patient's."""
        return self.shard_for(self._topology.patient_of(record_id))

    # ------------------------------------------------------------------
    # routing plumbing
    # ------------------------------------------------------------------

    def _read_record(self, record_id: str, fn: Callable[[Any], Any], count=None):
        return self._dispatch.read(
            self._topology.patient_of(record_id), fn, count=count
        )

    def _write_record(self, record_id: str, fn: Callable[[Any], Any], count=None):
        return self._dispatch.write(
            self._topology.patient_of(record_id), fn, count=count
        )

    # ------------------------------------------------------------------
    # principals
    # ------------------------------------------------------------------

    def register_user(self, user) -> None:
        """Replicate the principal to every shard: authorization must
        give one answer no matter where the patient hashed."""
        self._topology.principals[user.user_id] = user
        self._dispatch.each(lambda engine: engine.register_user(user))

    def break_glass(self, actor_id: str, patient_id: str, justification: str):
        """Emergency access on whichever shard holds the patient; the
        grant follows the patient if a rebalance moves them."""
        grant = self._dispatch.write(
            patient_id,
            lambda engine: engine.break_glass(actor_id, patient_id, justification),
        )
        self._grants[grant.grant_id] = patient_id
        return grant

    def revoke_break_glass(self, grant_id: str):
        patient_id = self._grants.get(grant_id)
        if patient_id is None:
            raise ClusterError(f"unknown break-glass grant {grant_id!r}")
        return self._dispatch.write(
            patient_id, lambda engine: engine.revoke_break_glass(grant_id)
        )

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def _replicate_author(self, author_id: str, patient_id: str) -> None:
        """Documenting care makes the author a known principal on a
        single engine *engine-wide*; mirror that cluster-wide so e.g. a
        fan-out search does not die on a shard the author never wrote
        to.  Shards that already know the author keep their own view
        (their local treating lists are the authoritative ones)."""
        if author_id in self._topology.principals:
            return
        user = self._dispatch.read(
            patient_id, lambda engine: engine.principal(author_id)
        )
        if user is None:
            return
        self._topology.principals[author_id] = user
        self._dispatch.each(
            lambda engine: engine.principal(author_id) or engine.register_user(user)
        )

    def store(self, record: HealthRecord, author_id: str) -> None:
        self._dispatch.write(
            record.patient_id,
            lambda engine: engine.store(record, author_id),
            claims={record.record_id: record.patient_id},
            count="cluster_stores",
        )
        self._replicate_author(author_id, record.patient_id)

    def store_many(self, records: list[HealthRecord], author_id: str) -> int:
        """Batched ingest, grouped per shard and run in parallel.

        Each shard's sub-batch keeps the engine's atomic batch
        semantics; atomicity across shards is per-shard, not global —
        a crash can land with some shards' sub-batches durable and
        others absent, which recovery reports per shard.  A sub-batch
        that meets a move in flight falls back to one gated
        :meth:`store` per record.
        """
        groups: dict[str, list[HealthRecord]] = {}
        for record in records:
            groups.setdefault(self._topology.home(record.patient_id), []).append(record)

        def ingest(shard_id: str) -> int:
            group = groups[shard_id]
            stored = self._dispatch.write_settled(
                shard_id,
                {record.record_id: record.patient_id for record in group},
                lambda engine: engine.store_many(group, author_id),
            )
            if stored is None:
                for record in group:
                    self.store(record, author_id)
                return len(group)
            METRICS.incr_labelled("cluster_stores", shard_id)
            return stored

        counts = self._dispatch.parallel(
            {shard_id: partial(ingest, shard_id) for shard_id in sorted(groups)}
        )
        if records:
            self._replicate_author(author_id, records[0].patient_id)
        return sum(counts.values())

    def correct(self, corrected: HealthRecord, author_id: str, reason: str) -> None:
        self._write_record(
            corrected.record_id,
            lambda engine: engine.correct(corrected, author_id, reason),
        )

    def attach(self, record_id: str, attachment_id: str, data: bytes, *,
               actor_id: str, content_type: str = "application/octet-stream"):
        return self._write_record(
            record_id,
            lambda engine: engine.attach(
                record_id, attachment_id, data,
                actor_id=actor_id, content_type=content_type,
            ),
        )

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def read(self, record_id: str, *, actor_id: str, purpose=None) -> HealthRecord:
        return self._read_record(
            record_id,
            lambda engine: engine.read(record_id, actor_id=actor_id, purpose=purpose),
            count="cluster_reads",
        )

    def read_view(self, record_id: str, actor_id: str) -> dict[str, Any]:
        return self._read_record(
            record_id, lambda engine: engine.read_view(record_id, actor_id)
        )

    def read_version(
        self, record_id: str, version: int, *, actor_id: str
    ) -> HealthRecord:
        return self._read_record(
            record_id,
            lambda engine: engine.read_version(record_id, version, actor_id=actor_id),
        )

    def read_attachment(
        self, record_id: str, attachment_id: str, *, actor_id: str
    ) -> bytes:
        return self._read_record(
            record_id,
            lambda engine: engine.read_attachment(
                record_id, attachment_id, actor_id=actor_id
            ),
        )

    def attachments_of(self, record_id: str) -> list[str]:
        return self._read_record(
            record_id, lambda engine: engine.attachments_of(record_id)
        )

    def version_count(self, record_id: str) -> int:
        return self._read_record(
            record_id, lambda engine: engine.version_count(record_id)
        )

    def _union(self, fn: Callable[[Any], list[str]]) -> list[str]:
        return merge.union(self._dispatch.fan_out(fn).values())

    def search(self, term: str, *, actor_id: str) -> list[str]:
        """Fan out to every shard, merge and de-duplicate the hits."""
        for shard_id in self.shard_ids:
            METRICS.incr_labelled("cluster_searches", shard_id)
        return self._union(lambda engine: engine.search(term, actor_id=actor_id))

    def record_ids(self) -> list[str]:
        return self._union(lambda engine: engine.record_ids())

    def records_of_patient(self, patient_id: str) -> list[str]:
        return self._dispatch.read(
            patient_id, lambda engine: engine.records_of_patient(patient_id)
        )

    def records_in_window(self, start: float, end: float) -> list[str]:
        return self._union(lambda engine: engine.records_in_window(start, end))

    def accounting_of_disclosures(self, patient_id: str, *, actor_id: str):
        """The whole-patient disclosure accounting; single-shard by
        construction, because placement is by patient (and a move
        carries the audit segment along, so accounting survives it)."""
        return self._dispatch.read(
            patient_id,
            lambda engine: engine.accounting_of_disclosures(
                patient_id, actor_id=actor_id
            ),
        )

    # ------------------------------------------------------------------
    # disposal / retention
    # ------------------------------------------------------------------

    def dispose(self, record_id: str, *, actor_id: str):
        """Compliant disposal on the owning shard only: certificates
        come from, and the certified hole lands on, that shard alone."""
        return self._write_record(
            record_id,
            lambda engine: engine.dispose(record_id, actor_id=actor_id),
            count="cluster_disposals",
        )

    def retention_sweep(self) -> list[str]:
        return self._union(lambda engine: engine.retention_sweep())

    def place_hold(self, record_id: str, hold_id: str, *, actor_id: str) -> None:
        self._write_record(
            record_id,
            lambda engine: engine.place_hold(record_id, hold_id, actor_id=actor_id),
        )

    def release_hold(self, record_id: str, hold_id: str, *, actor_id: str) -> None:
        self._write_record(
            record_id,
            lambda engine: engine.release_hold(record_id, hold_id, actor_id=actor_id),
        )

    # ------------------------------------------------------------------
    # tiering
    # ------------------------------------------------------------------

    def demotion_sweep(
        self, policy=None, *, actor_id: str = "archive-tiering"
    ) -> list[str]:
        """Run the demotion policy on every shard; each shard compacts
        its own eligible records into its own cold segments."""
        return self._union(
            lambda engine: engine.demotion_sweep(policy, actor_id=actor_id)
        )

    def demote_records(
        self, record_ids: list[str], *, actor_id: str = "archive-tiering"
    ) -> list[str]:
        """Explicit demotion, routed to each record's owning shard."""
        by_shard: dict[str, list[str]] = {}
        for record_id in record_ids:
            home = self._topology.home(self._topology.patient_of(record_id))
            by_shard.setdefault(home, []).append(record_id)
        return merge.concat(
            self._dispatch.on(
                shard_id,
                lambda engine: engine.demote_records(by_shard[shard_id], actor_id=actor_id),
            )
            for shard_id in sorted(by_shard)
        )

    def cold_record_ids(self) -> list[str]:
        return self._union(lambda engine: engine.cold_record_ids())

    def tier_stats(self) -> dict[str, int]:
        """Cluster-wide tier occupancy: the per-shard stats, summed."""
        return merge.total(
            self._dispatch.fan_out(lambda engine: engine.tier_stats()).values()
        )

    # ------------------------------------------------------------------
    # verification / audit / compliance
    # ------------------------------------------------------------------

    def verify_integrity(self, incremental: bool = False) -> VerificationReport:
        return VerificationReport.merge(
            self._dispatch.fan_out(lambda engine: engine.verify_integrity(incremental))
        )

    def verify_audit_trail(self, incremental: bool = False) -> VerificationReport:
        return VerificationReport.merge(
            self._dispatch.fan_out(
                lambda engine: engine.verify_audit_trail(incremental=incremental)
            )
        )

    def audit_events(self) -> list[dict[str, Any]]:
        """Every shard's audit stream, merged in timestamp order (ties
        broken by shard order, then per-shard sequence)."""
        return merge.audit_stream(
            self._dispatch.fan_out(lambda engine: engine.audit_events()).values()
        )

    def audit_devices(self):
        return merge.concat(
            self._dispatch.fan_out(lambda engine: engine.audit_devices()).values()
        )

    def devices(self):
        return merge.concat(
            self._dispatch.fan_out(lambda engine: engine.devices()).values()
        )

    def declared_features(self) -> frozenset[str]:
        return self.shards[0].declared_features()

    # ------------------------------------------------------------------
    # elastic resharding
    # ------------------------------------------------------------------

    def rebalance(
        self,
        *,
        target_shards: int | None = None,
        add: tuple[str, ...] = (),
        remove: tuple[str, ...] = (),
        actor_id: str = "system",
        hook: Callable[[str, str], None] | None = None,
        pace_s: float = 0.0,
    ) -> RebalanceReport:
        """Reshape the cluster online: split (add shards) or merge
        (remove shards) while serving reads and writes.

        Give either *target_shards* (shards are added with canonical
        names, or removed highest-name-first) or explicit *add* /
        *remove* shard ids.  Every displaced patient moves under the
        stage machine in :mod:`repro.cluster.rebalancer`; the returned
        report carries one verifier-accepted :class:`MigrationProof`
        per move, and the sealed manifest's epoch is bumped for the
        transition and again for the final topology.
        """
        final = self.ring
        for shard_id in add:
            final = final.with_added(shard_id)
        for shard_id in remove:
            final = final.with_removed(shard_id)
        if target_shards is not None:
            if target_shards < 1:
                raise ClusterError("target_shards must be at least 1")
            candidate = 0
            while final.shard_count < target_shards:
                shard_id = f"shard-{candidate:02d}"
                if shard_id not in final.shard_ids:
                    final = final.with_added(shard_id)
                candidate += 1
            while final.shard_count > target_shards:
                final = final.with_removed(max(final.shard_ids))
        return Rebalancer(
            topology=self._topology, dispatch=self._dispatch,
            actor_id=actor_id, hook=hook, pace_s=pace_s,
        ).run(final)

    def verify_move_proof(self, proof: MigrationProof) -> None:
        """Re-check a :class:`MigrationProof` against the shard that now
        holds the patient (auditor entry point)."""
        if proof.destination_shard not in self.shard_ids:
            raise ClusterError(
                f"proof names destination shard {proof.destination_shard!r}, "
                "which this cluster does not have"
            )
        trust = self._topology.migration_trust(
            proof.source_shard, proof.destination_shard
        )
        self._dispatch.on(
            proof.destination_shard,
            lambda engine: verify_migration_proof(proof, trust, engine.transfer),
        )

    def recover_interrupted_moves(self, *, actor_id: str = "system") -> list[dict]:
        """Resolve moves whose mover died: abort anything that had not
        cut over (the source stays authoritative; a partial destination
        copy is retired back), complete anything that had (the source
        copy is retired forward).  Either way the patient ends wholly on
        exactly one shard.  Returns one action dict per resolved move."""
        return [
            resolve_move(self._dispatch, ticket, actor_id)
            for ticket in list(self._dispatch.moves.values())
            if not ticket.held()  # a live mover still owns a held ticket
        ]

    # ------------------------------------------------------------------
    # backup / recovery
    # ------------------------------------------------------------------

    def create_backup(self, *, incremental: bool = False, actor_id: str):
        """Per-shard snapshots, keyed by shard id."""
        snapshots = self._dispatch.fan_out(
            lambda engine: engine.create_backup(
                incremental=incremental, actor_id=actor_id
            )
        )
        for shard_id, snapshot in snapshots.items():
            self._snapshots[snapshot.snapshot_id] = shard_id
        return snapshots

    def restore_from_backup(self, snapshot_id: str, *, actor_id: str):
        shard_id = self._snapshots.get(snapshot_id)
        if shard_id not in self.shard_ids:
            raise ClusterError(
                f"snapshot {snapshot_id!r} was not taken through this cluster"
            )
        return self._dispatch.on(
            shard_id,
            lambda engine: engine.restore_from_backup(snapshot_id, actor_id=actor_id),
        )

    def device_sets(self) -> dict[str, dict[str, Any]]:
        """Each shard's recovery-relevant devices, keyed by shard id —
        the hand-off format :meth:`recover_from_devices` expects."""
        return {
            shard_id: engine.device_set()
            for shard_id, engine in self._topology.current.engines.items()
        }

    @classmethod
    def recover_from_devices(
        cls,
        config: CuratorConfig,
        manifest: ClusterManifest,
        device_sets: dict[str, dict[str, Any]],
        *,
        witnesses: dict[str, list] | None = None,
    ) -> "CuratorCluster":
        """Restart the whole cluster from surviving per-shard devices.

        The sealed *manifest* is the source of truth for topology: it
        must verify under the HSM-held master key, and a device set
        must be present for **every** shard it names — recovery raises
        :class:`ClusterError` listing the manifest epoch and exactly
        which shards are missing rather than silently reassembling a
        smaller cluster.  Per-shard recovery then follows
        :meth:`CuratorStore.recover_from_devices`; afterwards any
        interrupted move (a patient durably present on two shards) is
        reconciled and reported in :attr:`salvage_report`.

        For anchor-witness continuity across the restart, pin the
        signing keypair in ``config.signing_keypair`` (a cluster built
        with a generated keypair re-signs under a new identity and
        pre-crash witness attestations no longer apply).
        """
        manifest.verify(config.master_key)
        missing = [sid for sid in manifest.shard_ids if sid not in device_sets]
        if missing:
            raise ClusterError(
                f"cluster manifest {manifest.cluster_id!r} (epoch "
                f"{manifest.epoch}) names {manifest.shard_count} shard(s) "
                f"but no device set was provided for: {', '.join(missing)}; "
                "either those devices are lost, or this manifest predates "
                "a rebalance that removed them — recover with the latest "
                "re-sealed manifest if so"
            )
        unknown = sorted(set(device_sets) - set(manifest.shard_ids))
        if unknown:
            raise ClusterError(
                f"device sets offered for shards the manifest (epoch "
                f"{manifest.epoch}) does not name: {', '.join(unknown)}"
            )
        ring = ring_from_tag(manifest.algorithm, manifest.shard_ids)
        config = _cluster_config(config)
        engines = {
            shard_id: CuratorStore.recover_from_devices(
                shard_config(config, shard_id),
                witnesses=(witnesses or {}).get(shard_id),
                **device_sets[shard_id],
            )
            for shard_id in manifest.shard_ids
        }
        cluster = cls(
            config,
            _topology=Topology(
                config, manifest.cluster_id, ring, engines=engines, epoch=manifest.epoch
            ),
        )
        cluster._salvage_report = salvage_dual_homes(
            cluster._topology, cluster._dispatch
        )
        return cluster

    @property
    def recovery_reports(self) -> dict[str, Any]:
        """Per-shard recovery reports (shards built live report None)."""
        return {
            shard_id: engine.recovery_report
            for shard_id, engine in self._topology.current.engines.items()
        }
