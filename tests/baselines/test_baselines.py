"""Shared behaviour of all baseline models + their characteristic gaps."""

import pytest

from repro.baselines import (
    EncryptedStore,
    HippocraticStore,
    ObjectStore,
    PlainWormStore,
    RelationalStore,
    UnsupportedOperation,
)
from repro.baselines.interface import verify_persistence
from repro.errors import AccessDeniedError, RecordNotFoundError, RetentionError
from repro.records.model import ClinicalNote, HealthRecord
from repro.util.clock import SimulatedClock


def make_note(record_id="rec-1", text="carcinoma biopsy positive"):
    return ClinicalNote.create(
        record_id=record_id,
        patient_id="pat-1",
        created_at=100.0,
        author="Dr. Q",
        specialty="oncology",
        text=text,
    )


def all_models():
    return [
        RelationalStore(),
        EncryptedStore(),
        HippocraticStore(),
        ObjectStore(),
        PlainWormStore(clock=SimulatedClock(start=1.17e9)),
    ]


@pytest.mark.parametrize("model", all_models(), ids=lambda m: m.model_name)
def test_store_read_round_trip(model):
    note = make_note()
    model.store(note, author_id="dr-a")
    assert model.read(note.record_id) == note
    assert model.record_ids() == [note.record_id]


@pytest.mark.parametrize("model", all_models(), ids=lambda m: m.model_name)
def test_read_unknown_record(model):
    with pytest.raises(RecordNotFoundError):
        model.read("ghost")


@pytest.mark.parametrize("model", all_models(), ids=lambda m: m.model_name)
def test_search_finds_record(model):
    note = make_note()
    model.store(note, author_id="dr-a")
    assert model.search("carcinoma") == [note.record_id]
    assert model.search("absent") == []


@pytest.mark.parametrize("model", all_models(), ids=lambda m: m.model_name)
def test_models_actually_persist(model):
    model.store(make_note(), author_id="dr-a")
    assert verify_persistence(model)


@pytest.mark.parametrize(
    "model", [RelationalStore(), EncryptedStore(), HippocraticStore()],
    ids=lambda m: m.model_name,
)
def test_mutable_models_support_corrections(model):
    note = make_note()
    model.store(note, author_id="dr-a")
    corrected = HealthRecord(
        record_id=note.record_id,
        record_type=note.record_type,
        patient_id=note.patient_id,
        created_at=note.created_at,
        body={**note.body, "text": "biopsy benign after review"},
    )
    model.correct(corrected, author_id="dr-a", reason="pathology revision")
    assert model.read(note.record_id).body["text"] == "biopsy benign after review"
    # ...and the old text is gone from search (history lost in place).
    assert model.search("carcinoma") == []


@pytest.mark.parametrize(
    "model",
    [ObjectStore(), PlainWormStore(clock=SimulatedClock(start=1.17e9))],
    ids=lambda m: m.model_name,
)
def test_immutable_models_reject_corrections(model):
    note = make_note()
    model.store(note, author_id="dr-a")
    corrected = HealthRecord(
        record_id=note.record_id,
        record_type=note.record_type,
        patient_id=note.patient_id,
        created_at=note.created_at,
        body=dict(note.body),
    )
    with pytest.raises(UnsupportedOperation):
        model.correct(corrected, author_id="dr-a", reason="x")


@pytest.mark.parametrize(
    "model", [RelationalStore(), EncryptedStore(), HippocraticStore(), ObjectStore()],
    ids=lambda m: m.model_name,
)
def test_unmanaged_models_delete_unconditionally(model):
    note = make_note()
    model.store(note, author_id="dr-a")
    model.dispose(note.record_id)
    assert note.record_id not in model.record_ids()


def test_plainworm_enforces_retention():
    clock = SimulatedClock(start=1.17e9)
    model = PlainWormStore(clock=clock)
    note = make_note()
    model.store(note, author_id="dr-a")
    with pytest.raises(RetentionError):
        model.dispose(note.record_id)
    clock.advance_years(8)  # clinical notes: 7-year schedule
    model.dispose(note.record_id)
    assert model.record_ids() == []


def test_encrypted_store_hides_plaintext_rows():
    model = EncryptedStore()
    note = make_note()
    model.store(note, author_id="dr-a")
    row_device = model.devices()[0]
    assert b"carcinoma" not in row_device.raw_dump()
    # ...but the index device leaks it (the 2007 deployment reality).
    index_device = model.devices()[1]
    assert b"carcinoma" in index_device.raw_dump()


def test_relational_store_is_plaintext_on_disk():
    model = RelationalStore()
    model.store(make_note(), author_id="dr-a")
    assert b"carcinoma" in model.devices()[0].raw_dump()


def test_hippocratic_query_rewriting_blocks_restricted_roles():
    model = HippocraticStore()
    note = make_note()
    model.store(note, author_id="dr-a")
    model.assign_role("analyst", "research")
    with pytest.raises(AccessDeniedError):
        model.read(note.record_id, actor_id="analyst")
    assert model.search("carcinoma", actor_id="analyst") == []
    # clinical users still see it
    assert model.read(note.record_id, actor_id="dr-a") == note


def test_hippocratic_patient_opt_out():
    model = HippocraticStore()
    note = make_note()
    model.store(note, author_id="dr-a")
    model.assign_role("biller", "billing")
    model.opt_out_patient("pat-1")
    assert model.search("carcinoma", actor_id="biller") == []


def test_hippocratic_logs_accesses_including_denials():
    model = HippocraticStore()
    note = make_note()
    model.store(note, author_id="dr-a")
    model.assign_role("analyst", "research")
    with pytest.raises(AccessDeniedError):
        model.read(note.record_id, actor_id="analyst")
    events = model.audit_events()
    assert any(e["action"] == "denied" and e["actor"] == "analyst" for e in events)


def test_objectstore_deduplicates_identical_content():
    model = ObjectStore()
    a = make_note("rec-1")
    model.store(a, author_id="dr-a")
    used_before = model.devices()[0].used
    # same content, different record id -> same object address
    b = HealthRecord.from_dict({**a.to_dict(), "record_id": "rec-1"})
    # identical record under a second logical name
    model._addresses["rec-alias"] = model._addresses["rec-1"]
    assert model.read("rec-alias") == a
    assert model.devices()[0].used == used_before


def test_objectstore_detects_tampering_by_address():
    model = ObjectStore()
    note = make_note()
    model.store(note, author_id="dr-a")
    device = model.devices()[0]
    from repro.storage.journal import Journal

    for offset, payload, _ok in Journal.walk_frames(device):
        forged = payload.replace(b"carcinoma", b"xarcinoma")
        if forged != payload:
            Journal.forge_frame(device, offset, forged)
    assert model.verify_integrity().violations == [note.record_id]


@pytest.mark.parametrize("model", all_models(), ids=lambda m: m.model_name)
def test_declared_features_are_sane(model):
    features = model.declared_features()
    assert "search" in features
    assert isinstance(features, frozenset)
