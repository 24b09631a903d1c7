"""Where every patient lives: the ring, the placement table, the shard
set and the sealed manifest that pins them.

Placement is one story, told in this order:

1. **The ring** (:class:`~repro.cluster.ring.VNodeRing`) answers for
   every patient nobody has said otherwise about.
2. **Explicit placements** (``patient -> shard id``) are consulted
   first.  An entry exists only while the ring would be wrong: a
   transition pins every resident the new ring displaces to the shard it
   is still on, a move's cutover re-points (or, on reaching the ring's
   answer, drops) that one entry, and recovery pins a patient it found
   off-ring.
3. **Records name patients, not shards** (``record -> patient``, set
   once at store time and never rewritten), so a record-keyed call is a
   patient-keyed call after one lookup and no move ever touches it.

Ring, placements and shard set live in one immutable :class:`_Topology`
snapshot swapped by a single assignment, and every swap re-seals the
:class:`~repro.cluster.manifest.ClusterManifest` at the next epoch.
"""

from __future__ import annotations

import threading
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, replace
from typing import Any, Iterator

from repro.cluster.manifest import ClusterManifest
from repro.cluster.ring import VNodeRing
from repro.cluster.workers import ShardWorkerProxy
from repro.core.config import CuratorConfig
from repro.core.engine import CuratorStore
from repro.crypto.kdf import derive_key
from repro.crypto.signatures import Signer, TrustStore
from repro.errors import ClusterError, RecordError, RecordNotFoundError

_TAG = "sha256-vnode/"


def ring_tag(ring: VNodeRing) -> str:
    """The manifest's placement-algorithm tag for *ring*."""
    return f"{_TAG}{ring.vnodes}"


def ring_from_tag(tag: str, shard_ids: tuple[str, ...]) -> VNodeRing:
    """Rebuild the ring a manifest was sealed with.  Anything but a
    virtual-node tag — including the retired modulo ``sha256-ring`` — is
    refused: guessing a placement would route patients to shards that do
    not hold them."""
    points = tag.removeprefix(_TAG)
    if not tag.startswith(_TAG) or not points.isdigit() or int(points) < 1:
        raise ClusterError(
            f"cluster manifest names placement algorithm {tag!r}, which this "
            "build cannot route by (only virtual-node rings are supported)"
        )
    return VNodeRing(shard_ids, vnodes=int(points))


def shard_config(base: CuratorConfig, shard_id: str) -> CuratorConfig:
    """The per-shard engine config: derived master key, scoped site id;
    every other knob (the shared signing identity included) inherited."""
    return replace(
        base,
        master_key=derive_key(base.master_key, f"curator/cluster/{shard_id}"),
        site_id=f"{base.site_id}/{shard_id}",
    )


@dataclass(frozen=True)
class _Topology:
    """One routing snapshot.  ``engines`` and ``locks`` are keyed by shard
    id in slot order; during a transition they are the union of old and
    new shards while ``ring`` is already the final ring.  ``placements``
    is mutated in place by a cutover (one key) and replaced with the
    snapshot by a transition."""

    ring: VNodeRing
    engines: dict[str, Any]
    locks: dict[str, Any]
    placements: dict[str, str]

    def home(self, patient_id: str) -> str:
        return self.placements.get(patient_id) or self.ring.owner_of(patient_id)


class Topology:
    """The cluster's shards and the table that says who lives where."""

    def __init__(
        self,
        config: CuratorConfig,
        cluster_id: str,
        ring: VNodeRing,
        *,
        workers: bool = False,
        engines: dict[str, Any] | None = None,
        epoch: int = 0,
    ) -> None:
        self._config = config
        self._cluster_id = cluster_id
        self._workers = workers
        #: user_id -> User for every principal registered cluster-wide,
        #: replayed onto shards that join later so that authorization
        #: gives one answer no matter when a shard joined.
        self.principals: dict[str, Any] = {}
        self._patient_of: dict[str, str] = {}
        #: Held for the length of one rebalance: one reshape at a time.
        self.reshaping = threading.Lock()
        self._epoch = epoch - 1  # _install() bumps it to *epoch*
        recovered = engines or {}
        if engines is None:
            engines = {sid: self.build_engine(sid) for sid in ring.shard_ids}
        self._install(ring, engines, {sid: threading.RLock() for sid in engines}, {})
        for engine in recovered.values():
            for patient_id in engine.patient_ids():
                self.claim(dict.fromkeys(engine.records_of_patient(patient_id), patient_id))

    @property
    def workers(self) -> bool:
        """Whether the shards are worker processes (else in-process engines)."""
        return self._workers

    def build_engine(self, shard_id: str):
        """A fresh shard engine that already knows every principal."""
        config = shard_config(self._config, shard_id)
        # Process-backed shards host a full engine behind the pipe
        # protocol.  Device-level harnesses (equivalence oracle, crash
        # sweeps) need in-process shards — raw media cannot cross a pipe.
        engine = (
            ShardWorkerProxy(config, shard_id) if self._workers else CuratorStore(config)
        )
        for user in self.principals.values():
            engine.register_user(user)
        return engine

    def _install(self, ring, engines, locks, placements) -> None:
        """Swap in a snapshot and seal the manifest that names it."""
        self.current = _Topology(ring, engines, locks, placements)
        self._epoch += 1
        self.manifest = ClusterManifest(
            cluster_id=self._cluster_id,
            site_id=self._config.site_id,
            shard_ids=tuple(engines),
            algorithm=ring_tag(ring),
            epoch=self._epoch,
        ).sealed(self._config.master_key)

    # -- the placement table -------------------------------------------------

    def home(self, patient_id: str) -> str:
        """The shard id serving *patient_id* right now."""
        return self.current.home(patient_id)

    def place(self, patient_id: str, shard_id: str) -> None:
        """Say *patient_id* lives on *shard_id* — the whole of a cutover.
        The entry is dropped when the ring already says so."""
        topo = self.current
        if topo.ring.owner_of(patient_id) == shard_id:
            topo.placements.pop(patient_id, None)
        else:
            topo.placements[patient_id] = shard_id

    def displaced(self) -> dict[str, tuple[str, str]]:
        """``patient -> (current shard, ring shard)`` for every patient
        placed off-ring: a rebalance's work list."""
        topo = self.current
        return {
            patient_id: (shard_id, topo.ring.owner_of(patient_id))
            for patient_id, shard_id in sorted(topo.placements.items())
        }

    def patient_of(self, record_id: str) -> str:
        """The patient *record_id* was stored under."""
        try:
            return self._patient_of[record_id]
        except KeyError:
            raise RecordNotFoundError(
                f"record {record_id!r} is not stored on any shard"
            ) from None

    def refuse_reuse(self, claims: dict[str, str]) -> None:
        """Refuse a store that would re-use a record id under another
        patient (one engine refuses it too; across shards nothing else
        would notice).  *claims* maps new record ids to their patients."""
        for record_id, patient_id in claims.items():
            if self._patient_of.get(record_id, patient_id) != patient_id:
                raise RecordError(f"record {record_id} already exists")

    def claim(self, claims: dict[str, str]) -> None:
        """Record, for good, which patient each new record belongs to."""
        self._patient_of.update(claims)

    # -- reshaping -------------------------------------------------------------

    @contextmanager
    def _quiesced(self, topo: _Topology) -> Iterator[None]:
        """Hold every shard lock of *topo*: no write is in flight, and a
        writer that was waiting re-checks its home afterwards."""
        with ExitStack() as held:
            for lock in topo.locks.values():
                held.enter_context(lock)
            yield

    def begin_transition(self, final_ring: VNodeRing) -> None:
        """Enter the transition topology: new shards joined, the ring
        already final, and every resident that ring displaces pinned to
        the shard it is still on."""
        old = self.current
        joined = {
            sid: self.build_engine(sid)
            for sid in final_ring.shard_ids
            if sid not in old.engines
        }
        with self._quiesced(old):
            placements = {}
            for engine in old.engines.values():
                for patient_id in engine.patient_ids():
                    home = old.home(patient_id)
                    if final_ring.owner_of(patient_id) != home:
                        placements[patient_id] = home
            self._install(
                final_ring,
                {**old.engines, **joined},
                {**old.locks, **{sid: threading.RLock() for sid in joined}},
                placements,
            )

    def finalize(self) -> None:
        """Leave the transition: drop the (drained) shards the ring no
        longer names."""
        old = self.current
        keep = old.ring.shard_ids
        dropped = [e for sid, e in old.engines.items() if sid not in keep]
        with self._quiesced(old):
            if old.placements or any(engine.patient_ids() for engine in dropped):
                raise ClusterError(
                    "rebalance did not drain: patients are still placed "
                    f"off-ring ({sorted(old.placements)}) or resident on a "
                    "shard being removed; cluster left in transition topology"
                )
            self._install(
                old.ring,
                {sid: old.engines[sid] for sid in keep},
                {sid: old.locks[sid] for sid in keep},
                old.placements,
            )
        for engine in dropped:
            if isinstance(engine, ShardWorkerProxy):
                engine.close()

    def migration_trust(self, *extra_shard_ids: str) -> TrustStore:
        """Verifiers for every shard identity this cluster has, plus
        *extra_shard_ids* — migration manifests and attestations are
        signed by per-shard signers sharing the cluster's HSM-held
        keypair, so a proof signed by a shard that a later shrink retired
        stays verifiable."""
        trust = TrustStore()
        for shard_id in {*self.current.engines, *extra_shard_ids}:
            trust.add(
                Signer(
                    f"{self._config.site_id}/{shard_id}",
                    keypair=self._config.signing_keypair,
                ).verifier()
            )
        return trust
