"""Property-based tests on the cold tier (hypothesis): for any record
population and correction history, demote → compact → recall is the
identity on version chains, provenance survives the trip, and every
cold member proves against its segment root."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import CuratorConfig
from repro.core.engine import CuratorStore
from repro.records.ids import version_id
from repro.records.model import ClinicalNote, HealthRecord
from repro.util.clock import SimulatedClock

SETTINGS = settings(
    max_examples=20, suppress_health_check=[HealthCheck.too_slow], deadline=None
)

texts = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    min_size=1,
    max_size=60,
)
histories = st.lists(
    st.tuples(texts, st.lists(texts, max_size=3)), min_size=1, max_size=6
)


def build_store():
    clock = SimulatedClock(start=1.17e9)
    store = CuratorStore(
        CuratorConfig(
            master_key=bytes(range(32)), clock=clock, device_capacity=1 << 20
        )
    )
    return store, clock


def populate(store, clock, history):
    """One record per history entry: an initial text plus corrections."""
    record_ids = []
    for i, (initial, corrections) in enumerate(history):
        record_id = f"rec-{i}"
        store.store(
            ClinicalNote.create(
                record_id=record_id,
                patient_id=f"pat-{i}",
                created_at=clock.now(),
                author="dr-prop",
                specialty="cardiology",
                text=initial,
            ),
            "dr-prop",
        )
        for text in corrections:
            clock.advance(3600.0)
            current = store.read(record_id, actor_id="system")
            store.correct(
                HealthRecord(
                    record_id=record_id,
                    record_type=current.record_type,
                    patient_id=f"pat-{i}",
                    created_at=current.created_at,
                    body={**current.body, "text": text},
                ),
                author_id="dr-prop",
                reason="amendment",
            )
        record_ids.append(record_id)
    return record_ids


@SETTINGS
@given(histories)
def test_demote_recall_is_the_identity_on_version_chains(history):
    store, clock = build_store()
    record_ids = populate(store, clock, history)
    before = {
        rid: [v.to_dict() for v in store._tiering.stored_versions(rid)]
        for rid in record_ids
    }
    warm_digests = {
        rid: [
            store.worm.metadata(version_id(rid, n)).content_digest
            for n in range(store.version_count(rid))
        ]
        for rid in record_ids
    }

    demoted = store.demote_records(record_ids, actor_id="dr-prop")
    assert sorted(demoted) == sorted(record_ids)

    # while cold: every member proves against the trusted segment root,
    # and the manifest carries the warm tier's provenance verbatim
    for rid in record_ids:
        sealed = store.cold.read_sealed(rid)
        store.cold.verify_sealed(rid, sealed)  # raises on failure
        member = store.cold.member(rid)
        assert [p["content_digest"] for p in member.provenance] == warm_digests[rid]
        assert member.versions == len(before[rid])

    # recall: byte-identical version chains, exact version counts
    for rid in record_ids:
        store.read(rid, actor_id="system")
    assert store.cold_record_ids() == []
    for rid in record_ids:
        after = [v.to_dict() for v in store._tiering.stored_versions(rid)]
        assert after == before[rid]
    assert store.verify_integrity().ok
    assert store.verify_audit_trail().ok


@SETTINGS
@given(histories, st.integers(min_value=0, max_value=10))
def test_interleaved_demotions_and_recalls_never_lose_a_record(history, seed):
    """Records bouncing between tiers (demote, recall, re-demote) stay
    byte-identical and verifiable regardless of the interleaving."""
    store, clock = build_store()
    record_ids = populate(store, clock, history)
    expected = {
        rid: store.read(rid, actor_id="system").body["text"] for rid in record_ids
    }
    for round_no in range(2):
        # a seed-dependent subset goes cold each round
        batch = [
            rid
            for i, rid in enumerate(record_ids)
            if (i + seed + round_no) % 2 == 0
        ]
        if batch:
            store.demote_records(batch, actor_id="dr-prop")
        clock.advance(3600.0)
        for rid in record_ids:
            assert store.read(rid, actor_id="system").body["text"] == expected[rid]
    assert store.verify_integrity().ok
