"""Deterministic patient placement for the sharded cluster.

Placement must be a pure function of the patient identifier and the
shard names — never of process state.  Two independently restarted
routers (or a router and the recovery path) must agree on where every
patient lives, so the ring hashes with SHA-256 under fixed domain
labels.  Python's builtin ``hash()`` is per-process salted
(``PYTHONHASHSEED``) and is therefore exactly the wrong tool; using it
would scatter a recovered cluster's routing table.

Sharding by *patient* (not by record) keeps every record of one
patient — versions, attachments, disclosures, break-glass grants — on
a single engine, so per-patient invariants (version chains, consent,
accounting of disclosures) never span shards.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from repro.errors import ConfigurationError

_DOMAIN = b"curator/cluster-ring\x00"
_VNODE_DOMAIN = b"curator/cluster-vnode\x00"

#: Points each shard owns on the circle.  At 64, a 4-shard ring over
#: 20,000 patient ids loads its fullest shard 1.17x and its emptiest
#: 0.85x the mean (8 shards: 1.23x / 0.81x); 16 points leave 1.43x /
#: 0.64x, and 256 buy only 1.06x / 0.95x for four times the ring.  It is
#: a constant, not an option, and it is recorded in the manifest's
#: algorithm tag so recovery rebuilds the ring it was sealed with.
RING_POINTS = 64


def _point(data: bytes) -> int:
    """A 64-bit position on the hash circle."""
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


@dataclass(frozen=True)
class VNodeRing:
    """Consistent hashing over named shards with virtual nodes.

    Each shard owns ``vnodes`` points on a 64-bit hash circle; a patient
    maps to the shard owning the first point at or after the patient's
    own hash.  Adding one shard to an N-shard ring therefore displaces
    only the patients whose successor point now belongs to the newcomer
    — roughly ``1/(N+1)`` of them.

    Every hash is SHA-256 under a fixed domain label: placement is a
    pure function of ``(shard_ids, vnodes, patient_id)`` and two
    independently restarted routers agree on every assignment.
    """

    shard_ids: tuple[str, ...]
    vnodes: int = RING_POINTS

    def __post_init__(self) -> None:
        object.__setattr__(self, "shard_ids", tuple(self.shard_ids))
        if not self.shard_ids:
            raise ConfigurationError("a cluster needs at least one shard")
        if len(set(self.shard_ids)) != len(self.shard_ids):
            raise ConfigurationError(
                f"duplicate shard ids in ring: {self.shard_ids}"
            )
        if self.vnodes < 1:
            raise ConfigurationError(
                f"a shard needs at least one virtual node, got {self.vnodes}"
            )

    @classmethod
    def for_count(cls, shards: int) -> "VNodeRing":
        """A ring over the canonical ``shard-00 .. shard-NN`` names."""
        return cls(tuple(f"shard-{i:02d}" for i in range(shards)))

    # -- placement ---------------------------------------------------------

    @cached_property
    def _indices(self) -> dict[str, int]:
        return {shard_id: i for i, shard_id in enumerate(self.shard_ids)}

    @cached_property
    def _points(self) -> tuple[list[int], list[str]]:
        """Sorted circle positions and the shard owning each one."""
        pairs: list[tuple[int, str]] = []
        for shard_id in self.shard_ids:
            for v in range(self.vnodes):
                token = f"{shard_id}#{v}".encode("utf-8")
                pairs.append((_point(_VNODE_DOMAIN + token), shard_id))
        # ties (astronomically unlikely) break on shard id so the order
        # is still a pure function of the topology
        pairs.sort()
        return [p for p, _ in pairs], [s for _, s in pairs]

    def shard_for(self, patient_id: str) -> int:
        """The shard index owning *patient_id* (stable across processes)."""
        return self._indices[self.owner_of(patient_id)]

    def owner_of(self, patient_id: str) -> str:
        """The shard *id* owning *patient_id*."""
        keys, owners = self._points
        point = _point(_DOMAIN + patient_id.encode("utf-8"))
        slot = bisect.bisect_right(keys, point)
        if slot == len(keys):  # wrap past the top of the circle
            slot = 0
        return owners[slot]

    @property
    def shard_count(self) -> int:
        return len(self.shard_ids)

    # -- topology changes --------------------------------------------------

    def with_added(self, shard_id: str) -> "VNodeRing":
        """A new ring with *shard_id* joined (split)."""
        if shard_id in self._indices:
            raise ConfigurationError(f"shard {shard_id!r} is already in the ring")
        return VNodeRing(self.shard_ids + (shard_id,), vnodes=self.vnodes)

    def with_removed(self, shard_id: str) -> "VNodeRing":
        """A new ring with *shard_id* drained out (merge)."""
        if shard_id not in self._indices:
            raise ConfigurationError(f"shard {shard_id!r} is not in the ring")
        remaining = tuple(s for s in self.shard_ids if s != shard_id)
        if not remaining:
            raise ConfigurationError("cannot remove the last shard")
        return VNodeRing(remaining, vnodes=self.vnodes)

    def diff(self, new: "VNodeRing") -> "RingDiff":
        """The topology change from this ring to *new*."""
        return RingDiff(old=self, new=new)


@dataclass(frozen=True)
class RingDiff:
    """The exact displacement set of a topology change.

    Comparison is by shard *id*, not ring index: renaming a shard's
    position in the tuple is not a move, and only patients whose owning
    shard id changes need migration.
    """

    old: VNodeRing
    new: VNodeRing

    @property
    def added(self) -> tuple[str, ...]:
        """Shard ids present only in the new topology."""
        old_ids = set(self.old.shard_ids)
        return tuple(s for s in self.new.shard_ids if s not in old_ids)

    @property
    def removed(self) -> tuple[str, ...]:
        """Shard ids present only in the old topology."""
        new_ids = set(self.new.shard_ids)
        return tuple(s for s in self.old.shard_ids if s not in new_ids)

    def moves(
        self, patient_ids: Iterable[str]
    ) -> dict[str, tuple[str, str]]:
        """``patient_id -> (old_shard_id, new_shard_id)`` for every
        patient of *patient_ids* the change displaces."""
        displaced: dict[str, tuple[str, str]] = {}
        for patient_id in patient_ids:
            before = self.old.owner_of(patient_id)
            after = self.new.owner_of(patient_id)
            if before != after:
                displaced[patient_id] = (before, after)
        return displaced

    def displaced(self, patient_ids: Iterable[str]) -> tuple[str, ...]:
        """Just the displaced patient ids, in input order."""
        moves = self.moves(patient_ids)
        return tuple(p for p in patient_ids if p in moves)

    def displaced_fraction(self, patient_ids: Iterable[str]) -> float:
        """The fraction of *patient_ids* the change displaces."""
        patients = list(patient_ids)
        if not patients:
            return 0.0
        return len(self.moves(patients)) / len(patients)


def sample_patients(
    ring: VNodeRing, per_shard: int, prefix: str = "pat-"
) -> dict[int, list[str]]:
    """The first *per_shard* ids ``<prefix>0, <prefix>1, ...`` that *ring*
    places on each shard, keyed by shard index — how tests, oracles and
    benchmarks aim at one shard on purpose."""
    groups: dict[int, list[str]] = {i: [] for i in range(ring.shard_count)}
    candidate = 0
    while any(len(group) < per_shard for group in groups.values()):
        patient_id = f"{prefix}{candidate}"
        group = groups[ring.shard_for(patient_id)]
        if len(group) < per_shard:
            group.append(patient_id)
        candidate += 1
    return groups
