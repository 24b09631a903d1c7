"""Property suite (hypothesis) for the virtual-node consistent-hash ring.

Two families of properties back the elastic resharding design:

* **deterministic placement** — ownership is a pure function of the
  topology, never of instance identity, declaration order, or process
  state;
* **bounded displacement** — ``ring.diff`` proves a grow displaces
  patients *only onto the newcomer* and a shrink displaces *only the
  removed shard's residents*, which is exactly why online rebalancing
  is affordable where a modulo placement's near-total reshuffle is not.
"""

import hashlib

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import VNodeRing

SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

shard_lists = st.lists(
    st.integers(min_value=0, max_value=99).map(lambda i: f"s{i:02d}"),
    min_size=2,
    max_size=6,
    unique=True,
)
vnode_counts = st.integers(min_value=4, max_value=32)

PATIENTS = [f"pat-{n:04d}" for n in range(250)]


# -- deterministic placement ----------------------------------------------


@SETTINGS
@given(shard_lists, vnode_counts)
def test_independent_instances_agree_on_every_placement(shards, vnodes):
    a = VNodeRing(tuple(shards), vnodes=vnodes)
    b = VNodeRing(tuple(shards), vnodes=vnodes)
    for patient_id in PATIENTS[:80]:
        assert a.owner_of(patient_id) == b.owner_of(patient_id)
        assert a.shard_ids[a.shard_for(patient_id)] == a.owner_of(patient_id)


@SETTINGS
@given(shard_lists, vnode_counts)
def test_declaration_order_does_not_change_ownership(shards, vnodes):
    forward = VNodeRing(tuple(shards), vnodes=vnodes)
    backward = VNodeRing(tuple(reversed(shards)), vnodes=vnodes)
    for patient_id in PATIENTS[:80]:
        assert forward.owner_of(patient_id) == backward.owner_of(patient_id)


# -- bounded displacement on ring.diff ------------------------------------


@SETTINGS
@given(shard_lists, vnode_counts, st.integers(min_value=0, max_value=99))
def test_grow_displaces_only_onto_the_new_shard(shards, vnodes, n):
    newcomer = f"new-{n:02d}"
    ring = VNodeRing(tuple(shards), vnodes=vnodes)
    grown = ring.with_added(newcomer)
    diff = ring.diff(grown)
    assert diff.added == (newcomer,)
    assert diff.removed == ()
    moves = diff.moves(PATIENTS)
    for patient_id, (source, destination) in moves.items():
        assert destination == newcomer
        assert source == ring.owner_of(patient_id)
    for patient_id in PATIENTS:
        if patient_id not in moves:
            assert grown.owner_of(patient_id) == ring.owner_of(patient_id)


@SETTINGS
@given(
    st.lists(
        st.integers(min_value=0, max_value=99).map(lambda i: f"s{i:02d}"),
        min_size=3,
        max_size=6,
        unique=True,
    ),
    vnode_counts,
)
def test_shrink_displaces_exactly_the_removed_shards_residents(shards, vnodes):
    victim = shards[-1]
    ring = VNodeRing(tuple(shards), vnodes=vnodes)
    shrunk = ring.with_removed(victim)
    moves = ring.diff(shrunk).moves(PATIENTS)
    for patient_id, (source, destination) in moves.items():
        assert source == victim
        assert destination != victim
    for patient_id in PATIENTS:
        if ring.owner_of(patient_id) == victim:
            assert patient_id in moves


@SETTINGS
@given(shard_lists, vnode_counts, st.integers(min_value=0, max_value=99))
def test_add_then_remove_round_trips_placement(shards, vnodes, n):
    newcomer = f"new-{n:02d}"
    ring = VNodeRing(tuple(shards), vnodes=vnodes)
    round_tripped = ring.with_added(newcomer).with_removed(newcomer)
    for patient_id in PATIENTS[:80]:
        assert round_tripped.owner_of(patient_id) == ring.owner_of(patient_id)


def test_vnode_ring_displaces_far_less_than_the_modulo_ring():
    """The headline number behind the elastic design: growing 4 -> 5
    moves ~1/5 of patients on the vnode ring and nearly all of them
    under ``hash % shard_count`` (the placement this ring replaced)."""
    vnode = VNodeRing.for_count(4)
    vnode_frac = vnode.diff(vnode.with_added("shard-04")).displaced_fraction(
        PATIENTS
    )

    def bucket(patient_id: str) -> int:
        return int.from_bytes(hashlib.sha256(patient_id.encode()).digest()[:8], "big")

    modulo_frac = sum(bucket(p) % 4 != bucket(p) % 5 for p in PATIENTS) / len(PATIENTS)
    assert vnode_frac < 0.45
    assert modulo_frac > 0.6
    assert vnode_frac < modulo_frac / 2
