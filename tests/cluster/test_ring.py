"""The ring's fixed points: pinned placements, spread, names and the
degenerate shapes (the property suite is ``test_vnode_ring.py``)."""

import pytest

from repro.cluster import VNodeRing
from repro.cluster.ring import RING_POINTS, sample_patients
from repro.errors import ConfigurationError


def test_placement_is_deterministic_across_instances():
    a, b = VNodeRing.for_count(4), VNodeRing.for_count(4)
    for n in range(200):
        patient = f"pat-{n}"
        assert a.shard_for(patient) == b.shard_for(patient)


def test_placement_is_stable_pinned_values():
    # Frozen expectations: if these move, existing clusters would
    # route patients to shards that do not hold their records.
    ring = VNodeRing.for_count(4)
    assert ring.vnodes == RING_POINTS == 64
    placements = {p: ring.shard_for(p) for p in ("pat-0", "pat-1", "pat-2")}
    assert placements == {"pat-0": 2, "pat-1": 0, "pat-2": 0}


def test_all_shards_reachable_and_roughly_even():
    ring = VNodeRing.for_count(4)
    counts = [0] * 4
    for n in range(2000):
        counts[ring.shard_for(f"patient-{n:05d}")] += 1
    assert all(count > 0 for count in counts)
    # 64 points per shard over 2000 ids: no shard should be wildly off 500
    assert max(counts) < 2 * min(counts)


def test_shard_ids_format():
    ring = VNodeRing.for_count(3)
    assert ring.shard_ids == ("shard-00", "shard-01", "shard-02")
    assert ring.shard_ids[2] == "shard-02"


def test_single_shard_ring_routes_everything_to_zero():
    ring = VNodeRing.for_count(1)
    assert {ring.shard_for(f"pat-{n}") for n in range(50)} == {0}


@pytest.mark.parametrize("bad", [0, -1])
def test_invalid_shard_count_rejected(bad):
    with pytest.raises(ConfigurationError):
        VNodeRing.for_count(bad)


def test_sample_patients_fills_every_shard_from_the_rings_own_answers():
    ring = VNodeRing.for_count(3)
    groups = sample_patients(ring, 4, prefix="p-")
    assert sorted(groups) == [0, 1, 2]
    for shard, patients in groups.items():
        assert len(patients) == 4
        assert all(ring.shard_for(patient_id) == shard for patient_id in patients)
