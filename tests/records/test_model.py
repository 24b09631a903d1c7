"""Record model: construction, validation, round trips, searchable text."""

import pytest

from repro.errors import ValidationError
from repro.records.model import (
    MAX_BODY_DEPTH,
    ClinicalNote,
    Encounter,
    HealthRecord,
    Observation,
    Patient,
    RecordType,
)
from repro.util import SimulatedClock
from repro.workload.generator import WorkloadGenerator


def nested(depth: int) -> dict:
    """A body *depth* dicts deep (the body itself is the first)."""
    body: dict = {"text": "leaf"}
    for _ in range(depth - 1):
        body = {"x": body}
    return body


def depth_of(value) -> int:
    children = value.values() if isinstance(value, dict) else value
    return 1 + max(
        (depth_of(child) for child in children if isinstance(child, (dict, list))),
        default=0,
    )


def test_a_body_nested_past_the_bound_is_refused():
    for depth in (MAX_BODY_DEPTH + 1, 700):
        with pytest.raises(ValidationError, match="nests deeper"):
            HealthRecord("rec-1", RecordType.CLINICAL_NOTE, "pat-1", 0.0, nested(depth))
    deep_list: list = []
    for _ in range(MAX_BODY_DEPTH):
        deep_list = [deep_list]
    with pytest.raises(ValidationError, match="nests deeper"):
        HealthRecord("rec-1", RecordType.CLINICAL_NOTE, "pat-1", 0.0, {"x": deep_list})
    record = HealthRecord("rec-1", RecordType.CLINICAL_NOTE, "pat-1", 0.0, nested(MAX_BODY_DEPTH))
    assert depth_of(record.body) == MAX_BODY_DEPTH


def test_every_generated_body_is_under_the_bound():
    generator = WorkloadGenerator(2007, SimulatedClock(start=1.17e9))
    for patient in generator.create_population(40):
        generator.demographics_record(patient)
    generator.mixed_stream(400)
    bodies = [generated.record.body for generated in generator.emitted]
    assert len(bodies) == 440
    assert max(depth_of(body) for body in bodies) < MAX_BODY_DEPTH


def test_patient_record_construction():
    record = Patient.create(
        record_id="rec-1",
        patient_id="pat-1",
        created_at=100.0,
        name="Ada Lovelace",
        birth_date="1815-12-10",
        address="1 Analytical Way",
        ssn="123-45-6789",
    )
    assert record.record_type is RecordType.PATIENT_DEMOGRAPHICS
    assert record.body["name"] == "Ada Lovelace"


def test_observation_value_coerced_to_float():
    record = Observation.create(
        record_id="rec-2",
        patient_id="pat-1",
        created_at=100.0,
        code="8480-6",
        display="Systolic BP",
        value=120,
        unit="mmHg",
    )
    assert record.body["value"] == 120.0
    assert isinstance(record.body["value"], float)


def test_encounter_requires_provider():
    with pytest.raises(ValidationError):
        Encounter.create(
            record_id="rec-3",
            patient_id="pat-1",
            created_at=0.0,
            encounter_type="admission",
            provider="",
            department="cardiology",
            reason="chest pain",
        )


def test_note_requires_text():
    with pytest.raises(ValidationError):
        ClinicalNote.create(
            record_id="rec-4",
            patient_id="pat-1",
            created_at=0.0,
            author="Dr. X",
            specialty="oncology",
            text="",
        )


def test_empty_record_id_rejected():
    with pytest.raises(ValidationError):
        HealthRecord(
            record_id="",
            record_type=RecordType.ENCOUNTER,
            patient_id="pat-1",
            created_at=0.0,
        )


def test_negative_created_at_rejected():
    with pytest.raises(ValidationError):
        HealthRecord(
            record_id="rec-1",
            record_type=RecordType.ENCOUNTER,
            patient_id="pat-1",
            created_at=-1.0,
        )


def test_non_canonical_body_rejected_at_construction():
    with pytest.raises(ValidationError):
        HealthRecord(
            record_id="rec-1",
            record_type=RecordType.ENCOUNTER,
            patient_id="pat-1",
            created_at=0.0,
            body={"bad": object()},
        )


def test_dict_round_trip():
    record = ClinicalNote.create(
        record_id="rec-5",
        patient_id="pat-2",
        created_at=50.0,
        author="Dr. Y",
        specialty="cardiology",
        text="patient reports dyspnea",
    )
    assert HealthRecord.from_dict(record.to_dict()) == record


def test_from_dict_malformed_rejected():
    """The error may reach a wire body or a log: it names the field and
    the reason, and a value typed into the wrong field (perhaps PHI)
    stays out of it."""
    phi = "John Smith SSN 123-45-6789"
    for changes, field in [
        ({"record_type": phi}, "record_type"),
        ({"record_id": phi, "body": None}, "body"),
        ({"patient_id": None, "record_type": None}, "record_type"),
    ]:
        data = {"record_id": "x", "record_type": "clinical_note", "patient_id": "p",
                "created_at": 0.0, "body": {}, **changes}
        with pytest.raises(ValidationError) as caught:
            HealthRecord.from_dict({k: v for k, v in data.items() if v is not None})
        assert caught.value.field == field
        assert field in str(caught.value) and phi not in str(caught.value)


def test_searchable_text_collects_nested_strings():
    record = HealthRecord(
        record_id="rec-6",
        record_type=RecordType.CLINICAL_NOTE,
        patient_id="pat-1",
        created_at=0.0,
        body={"a": "alpha", "nested": {"b": "beta"}, "list": ["gamma", 1]},
    )
    text = record.searchable_text()
    assert "alpha" in text and "beta" in text and "gamma" in text


def test_records_are_immutable():
    record = Patient.create(
        record_id="rec-7",
        patient_id="pat-1",
        created_at=0.0,
        name="X",
        birth_date="2000-01-01",
        address="addr",
    )
    with pytest.raises(AttributeError):
        record.record_id = "other"  # type: ignore[misc]
