"""The object-id grammar: round trips for every accepted id, refusal of
every id that bears a reserved token, and the three places ids enter."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import ValidationError
from repro.policy.model import resource_class
from repro.records.ids import (
    Kind,
    ObjectId,
    attachment_object_id,
    check_id,
    cold_member,
    cold_member_id,
    parse,
    segment_id,
    subject_record,
    version_id,
)
from repro.records.model import HealthRecord, RecordType

#: Ids that would parse back as some other record's object.  Shared with
#: the ``attach`` and wire tests (tests/core/test_object_ownership.py,
#: tests/service/test_reserved_ids.py).
HOSTILE_IDS = (
    "rec-9@vx",
    "rec-9@v0",
    "@v",
    "rec-1#att/scan",
    "rec-1#att/scan/chunk-000000",
    "#att/",
    "~segment/pat-0/1170000000.000000",
    "~segment/",
    "a#att/b@v3",
    "~cold/cs-000000/rec-1",
    # would be classed as a policy resource that is not a record
    "sess-1",
    "sess-",
    "search:x",
    "disclosures:pat-1",
)

SETTINGS = settings(max_examples=200, deadline=None)


def _accepted(value: str) -> bool:
    try:
        check_id(value, "id")
    except ValidationError:
        return False
    return True


accepted_ids = st.text(min_size=1, max_size=12).filter(_accepted)
#: small alphabet so the grammar's own characters actually turn up
tricky_ids = st.text(alphabet="@v#at/~segmn-0", min_size=1, max_size=12).filter(
    _accepted
)
ids = accepted_ids | tricky_ids


@SETTINGS
@given(ids, st.integers(min_value=0, max_value=10**6))
def test_version_ids_round_trip(record_id, version):
    assert parse(version_id(record_id, version)) == ObjectId(
        Kind.VERSION, record_id, version
    )


@SETTINGS
@given(ids, ids, st.integers(min_value=0, max_value=999))
# the grammar is asked before the policy prefixes: even for a record id
# check_id now refuses, an attachment subject is classed an attachment
@example(record_id="sess-", attachment_id="0", chunk=0)
def test_attachment_ids_round_trip(record_id, attachment_id, chunk):
    subject = attachment_object_id(record_id, attachment_id)
    assert parse(subject) == ObjectId(Kind.ATTACHMENT, record_id, attachment_id)
    relative = f"{attachment_id}/chunk-{chunk:06d}"
    assert parse(attachment_object_id(record_id, relative)) == ObjectId(
        Kind.ATTACHMENT, record_id, relative
    )
    assert subject_record(subject) == record_id
    assert subject_record(record_id) == record_id
    assert resource_class(subject) == "attachment"
    assert resource_class(record_id) != "attachment"


@SETTINGS
@given(st.text(min_size=1, max_size=12), st.floats(0, 2e9), st.booleans())
def test_segment_ids_always_classify_as_segments(patient_id, stamp, delta):
    # any patient id at all: the prefix is checked first, and a record id
    # may not start with it
    assert parse(segment_id(patient_id, stamp, delta=delta)).kind is Kind.SEGMENT


@SETTINGS
@given(ids, st.text(min_size=1, max_size=8).filter(lambda s: "/" not in s))
def test_cold_member_ids_round_trip(record_id, cold_segment):
    assert cold_member(cold_member_id(cold_segment, record_id)) == (
        cold_segment,
        record_id,
    )
    assert cold_member(version_id(record_id, 0)) is None


@SETTINGS
@given(
    st.text(max_size=6),
    st.sampled_from(["@v", "#att/"]),
    st.text(max_size=6),
)
def test_any_id_bearing_a_reserved_token_is_refused(head, token, tail):
    with pytest.raises(ValidationError):
        check_id(head + token + tail, "id")
    for prefix in ("~segment/", "~cold/", "sess-", "search:", "disclosures:"):
        with pytest.raises(ValidationError):
            check_id(prefix + head + tail, "id")


@pytest.mark.parametrize("hostile", HOSTILE_IDS)
def test_hostile_ids_are_refused_at_record_construction(hostile):
    with pytest.raises(ValidationError):
        check_id(hostile, "id")
    with pytest.raises(ValidationError):
        HealthRecord(hostile, RecordType.CLINICAL_NOTE, "pat-2", 0.0, {})
    with pytest.raises(ValidationError):
        HealthRecord.from_dict(
            {
                "record_id": hostile,
                "record_type": "clinical_note",
                "patient_id": "pat-2",
                "created_at": 0.0,
                "body": {},
            }
        )


@pytest.mark.parametrize("junk", ["rec-1", "rec-1@v", "rec-1@vx", "rec-1@v-1", ""])
def test_parse_refuses_what_no_builder_produces(junk):
    with pytest.raises(ValidationError):
        parse(junk)
