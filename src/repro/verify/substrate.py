"""The one substrate every oracle in this package deploys on.

:func:`deploy` builds the thing under test — a single engine, or a
two-shard cluster with one shard named as the adversary's — from the
only ``CuratorConfig`` this package constructs.  :func:`seed` fills it,
a *history* is something that may happen to it afterwards (a restart, a
media refresh, a restore, a demote-and-recall, a reshape), and
:func:`settle` states what every history guarantees before an adversary
strikes.  The detection-equivalence table
(:mod:`repro.verify.equivalence`) crosses deployments, histories and
tampers; the crash sweep (:mod:`repro.verify.oracle`) uses the same
:func:`deploy` / :func:`restarted` pair.

Process memory does not survive a history that ends a process: enrolled
principals are gone after :func:`restarted`, and the operator re-enrolls
them, as one would.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

from repro.access.principals import Role, User
from repro.cluster.router import CuratorCluster
from repro.core.config import CuratorConfig
from repro.core.engine import CuratorStore
from repro.crypto.rsa import generate_keypair
from repro.errors import CrashError, IntegrityError, MigrationError
from repro.records.model import ClinicalNote
from repro.util.clock import SimulatedClock
from repro.verify.crashpoint import surviving_image

ACTOR = "dr-eq"  # the clinician every scenario works as
OPS = "oracle"  # the operator behind backups, restores and reshapes

#: Seeded ``record -> patient``.  Twelve patients put at least three on
#: each shard of a two-shard ring and move at least two to a shard a
#: 2 -> 4 grow adds; a history that finds fewer fails loudly.
RECORDS = {f"rec-{n}": f"pat-{n}" for n in range(12)}

#: The forced-rescan cadence the bounded incremental policy runs against.
FULL_RESCAN_EVERY = 4


@functools.cache
def _site_keypair():
    """One HSM-held site identity for every deployment (and one keygen)."""
    return generate_keypair(768)


def note(
    record_id: str, patient_id: str, now: float, text: str, author: str = ACTOR
) -> ClinicalNote:
    """The clinical note every harness in this package stores."""
    return ClinicalNote.create(
        record_id=record_id,
        patient_id=patient_id,
        created_at=now,
        author=author,
        specialty="cardiology",
        text=text,
    )


def _seed_text(n: int) -> str:
    return f"equivalence seed note {n} with distinctive text"


def seed_note(record_id: str, patient_id: str, clock: SimulatedClock, n: int) -> ClinicalNote:
    """A scenario's note: every one shares the term ``distinctive``."""
    return note(record_id, patient_id, clock.now(), _seed_text(n))


@dataclass
class Deployment:
    """One deployment under attack.

    ``surface`` is the API the operator verifies and works through (an
    engine, or the whole cluster); ``attacked`` names the shard whose raw
    devices the adversary reaches (``""`` on a single engine).  A history
    that moves patients re-aims ``attacked`` at where they went and lists
    their records in ``moved``; ``blocked`` is set when a migration
    verifier refused to carry a tamper forward."""

    surface: Any
    config: CuratorConfig
    attacked: str = ""
    moved: tuple[str, ...] = ()
    blocked: bool = False

    @property
    def clock(self) -> SimulatedClock:
        return self.config.clock

    @property
    def target(self) -> CuratorStore:
        """The engine whose raw devices the adversary reaches."""
        if not self.attacked:
            return self.surface
        return self.surface.shards[self.surface.shard_ids.index(self.attacked)]

    def home_of(self, record_id: str) -> str:
        """The shard a cluster deployment serves *record_id* from."""
        return self.surface.shard_ids[self.surface.shard_of_record(record_id)]

    def label(self, what: str) -> str:
        """*what* as the surface's verification reports name it."""
        return f"{self.attacked}:{what}" if self.attacked else what

    def residents(self) -> list[str]:
        """Seeded records resident on the attacked engine *now*, the
        ones the history moved first: where tampers pick victims."""
        live = set(self.target.record_ids())
        return [r for r in dict.fromkeys((*self.moved, *RECORDS)) if r in live]

    def fresh_patient(self) -> str:
        """A patient nobody seeded whom the attacked engine is home to."""
        if not self.attacked:
            return "pat-dirty"
        ring = self.surface.ring
        return next(
            patient_id
            for n in itertools.count()
            if ring.owner_of(patient_id := f"pat-dirty-{n}") == self.attacked
        )

    def enroll(self) -> None:
        self.surface.register_user(
            User.make(ACTOR, ACTOR, [Role.PHYSICIAN], treating=RECORDS.values())
        )

    def close(self) -> None:
        if self.attacked:
            self.surface.close()


def deploy(attacked: str = "", **overrides: Any) -> Deployment:
    """A fresh, empty deployment: a single engine, or (with *attacked*
    naming a shard) a two-shard cluster."""
    config = CuratorConfig(
        master_key=bytes(range(32)),
        clock=SimulatedClock(start=1.17e9),
        device_capacity=1 << 20,
        audit_spot_checks=6,
        audit_full_rescan_every=FULL_RESCAN_EVERY,
        integrity_clean_sample=4,
        signing_keypair=_site_keypair(),
        **overrides,
    )
    surface = CuratorCluster(config, shards=2) if attacked else CuratorStore(config)
    deployment = Deployment(surface, config, attacked)
    deployment.enroll()
    return deployment


def seed(deployment: Deployment) -> None:
    for n, (record_id, patient_id) in enumerate(RECORDS.items()):
        deployment.surface.store(
            seed_note(record_id, patient_id, deployment.clock, n), ACTOR
        )
        deployment.clock.advance(1.0)


def settle(deployment: Deployment) -> None:
    """What every history guarantees before the strike: each seeded
    record is served as stored, and a full verification of both kinds
    finds nothing — which seals the audit watermark and empties the
    dirty sets, so the adversary strikes a system that believes itself
    clean (the hardest case for an incremental checker)."""
    surface = deployment.surface
    for n, record_id in enumerate(RECORDS):
        assert surface.read(record_id, actor_id=ACTOR).body["text"] == _seed_text(n)
    for verify in (surface.verify_audit_trail, surface.verify_integrity):
        report = verify()
        assert report.ok, report.violations


# -- histories -------------------------------------------------------------
#
# Each takes a seeded, settled deployment and leaves it in a state the
# product claims is as good as new.  The last two strike *inside* a move:
# they take the strike, decide when it lands, and return what it did.


def restarted(deployment: Deployment) -> None:
    """The process dies; what restarts has the device images, the
    HSM-held keys and the external witnesses, and nothing else."""
    old = deployment.surface

    def images(devices: dict) -> dict:
        return {name: surviving_image(device) for name, device in devices.items()}

    if deployment.attacked:
        deployment.surface = CuratorCluster.recover_from_devices(
            deployment.config,
            old.manifest,
            {sid: images(devices) for sid, devices in old.device_sets().items()},
            witnesses={
                sid: [engine.witness] for sid, engine in zip(old.shard_ids, old.shards)
            },
        )
        old.close()
    else:
        deployment.surface = CuratorStore.recover_from_devices(
            deployment.config, **images(old.device_set()), witnesses=[old.witness]
        )
    deployment.enroll()


def refreshed(deployment: Deployment) -> None:
    """The attacked engine's archive moves to a fresh medium."""
    deployment.target.refresh_media()


def demote(deployment: Deployment) -> list[str]:
    """Send the first two residents (the tampers' victim and the sibling
    that must stay unblamed) to the cold tier."""
    chosen = deployment.residents()[:2]
    demoted = deployment.surface.demote_records(chosen, actor_id=OPS)
    assert sorted(demoted) == sorted(chosen) and len(chosen) == 2
    return chosen


def restored(deployment: Deployment) -> None:
    """A backup finds two residents cold; then the attacked engine's
    record media — warm and cold — are lost, and the archive comes back
    from the off-site vault."""
    demote(deployment)
    snapshots = deployment.surface.create_backup(actor_id=OPS)
    snapshot = snapshots[deployment.attacked] if deployment.attacked else snapshots
    for device in (deployment.target.worm.device, deployment.target.cold.device):
        device.raw_write(0, bytes(device.capacity))
    deployment.surface.restore_from_backup(snapshot.snapshot_id, actor_id=OPS)


def recalled(deployment: Deployment) -> None:
    """Two residents are demoted, then read back warm."""
    for record_id in demote(deployment):
        deployment.surface.read(record_id, actor_id=ACTOR)


def reshaped(shards: int) -> Callable[[Deployment], None]:
    """Reshape online to *shards* shards and re-check every move's
    proof.  The attack follows the patients: it re-aims at the shard
    most of them landed on, and their records become the preferred
    victims (2 -> 4 -> 3 is a round trip for whoever the grow had sent
    to the shard the shrink removes)."""

    def history(deployment: Deployment) -> None:
        cluster = deployment.surface
        deployment.clock.advance(1.0)
        report = cluster.rebalance(target_shards=shards, actor_id=OPS)
        for proof in report.proofs:
            cluster.verify_move_proof(proof)
        homes = Counter(proof.destination_shard for proof in report.proofs)
        deployment.attacked = homes.most_common(1)[0][0]
        deployment.moved = tuple(
            record_id
            for proof in report.proofs
            if proof.destination_shard == deployment.attacked
            for record_id in cluster.records_of_patient(proof.patient_id)
        )

    return history


Strike = Callable[[Deployment], "str | None"]


def crashed_move(deployment: Deployment, strike: Strike) -> str | None:
    """The mover dies at a patient's cutover; the strike lands on the
    copy that is still authoritative — the source's — and only then is
    the interrupted move salvaged."""
    cluster = deployment.surface

    def crash(stage: str, patient_id: str) -> None:
        if stage == "cutover":
            deployment.moved = tuple(cluster.records_of_patient(patient_id))
            raise CrashError(f"oracle crash before cutover of {patient_id}")

    with contextlib.suppress(CrashError):
        cluster.rebalance(target_shards=4, actor_id=OPS, hook=crash)
    deployment.attacked = deployment.home_of(deployment.moved[0])
    blame = strike(deployment)
    cluster.recover_interrupted_moves(actor_id=OPS)
    return blame


def rotted_arrival(deployment: Deployment, strike: Strike) -> str | None:
    """The strike lands on a destination's freshly imported copy before
    the move's verify stage.  The double-read against the signed
    manifest must abort the move with the source still authoritative
    and serving (``blocked``); the rotten copy is retired with the move,
    so nothing is left to blame."""
    cluster = deployment.surface
    struck: list[tuple[str, str | None]] = []

    def strike_arrival(stage: str, patient_id: str) -> None:
        if stage == "verify" and not struck:
            deployment.moved = tuple(cluster.records_of_patient(patient_id))
            source = deployment.home_of(deployment.moved[0])
            # mid-transition the ring is already final: its answer is
            # the move's destination
            deployment.attacked = cluster.ring.owner_of(patient_id)
            struck.append((source, strike(deployment)))

    with contextlib.suppress(MigrationError, IntegrityError):
        cluster.rebalance(target_shards=4, actor_id=OPS, hook=strike_arrival)
    ((source, landed),) = struck
    victim = deployment.moved[0]
    deployment.attacked = deployment.home_of(victim)
    deployment.blocked = (
        deployment.attacked == source
        and cluster.read(victim, actor_id=ACTOR) is not None
    )
    return None if landed is None else ""
