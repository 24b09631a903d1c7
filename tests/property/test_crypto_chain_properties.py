"""Property-based tests: version chains, audit chains, index model check."""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.audit.events import AuditAction
from repro.audit.log import AuditLog
from repro.errors import IntegrityError
from repro.index.inverted import InvertedIndex
from repro.index.trustworthy import TrustworthyIndex
from repro.records.model import HealthRecord, RecordType
from repro.records.versioning import VersionChain
from repro.storage.block import MemoryDevice
from repro.util.clock import SimulatedClock

SETTINGS = settings(
    max_examples=25, suppress_health_check=[HealthCheck.too_slow], deadline=None
)


def make_record(value):
    return HealthRecord(
        record_id="rec-1",
        record_type=RecordType.OBSERVATION,
        patient_id="pat-1",
        created_at=1.0,
        body={"value": value},
    )


@SETTINGS
@given(st.lists(st.floats(min_value=0, max_value=500, allow_nan=False), min_size=1, max_size=8))
def test_any_correction_sequence_produces_verifiable_chain(values):
    chain = VersionChain("rec-1")
    chain.append_initial(make_record(values[0]), "dr-a", 1.0)
    for i, value in enumerate(values[1:], start=1):
        chain.append_correction(make_record(value), "dr-a", f"fix {i}", float(i))
    chain.verify()
    assert chain.latest().record.body["value"] == values[-1]
    rebuilt = VersionChain.from_versions("rec-1", list(chain))
    assert rebuilt.head_digest == chain.head_digest


@SETTINGS
@given(
    st.lists(st.floats(min_value=0, max_value=500, allow_nan=False), min_size=2, max_size=6),
    st.data(),
)
def test_any_historical_mutation_breaks_the_chain(values, data):
    chain = VersionChain("rec-1")
    chain.append_initial(make_record(values[0]), "dr-a", 1.0)
    for i, value in enumerate(values[1:], start=1):
        chain.append_correction(make_record(value), "dr-a", f"fix {i}", float(i))
    victim = data.draw(st.integers(min_value=0, max_value=len(chain) - 2))
    tampered = dataclasses.replace(
        chain._versions[victim], record=make_record(999999.0)
    )
    chain._versions[victim] = tampered
    with pytest.raises(IntegrityError):
        chain.verify()


@SETTINGS
@given(
    st.lists(
        st.tuples(
            st.sampled_from(list(AuditAction)),
            st.text(min_size=1, max_size=5),
            st.text(min_size=1, max_size=5),
        ),
        min_size=1,
        max_size=15,
    )
)
def test_audit_log_always_verifies_and_recovers(events):
    clock = SimulatedClock(start=1.0)
    log = AuditLog(device=MemoryDevice("a", 1 << 20), clock=clock)
    for action, actor, subject in events:
        log.append(action, actor, subject)
    assert log.verify_chain().ok
    recovered = AuditLog(log.device, clock=clock)
    assert recovered.head_digest == log.head_digest
    assert recovered.events() == log.events()


documents = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10_000),
        st.lists(
            st.sampled_from(
                "cancer diabetes asthma fracture anemia sepsis glioma lupus".split()
            ),
            min_size=1,
            max_size=5,
        ),
    ),
    min_size=1,
    max_size=10,
    unique_by=lambda t: t[0],
)


@SETTINGS
@given(documents, st.sampled_from(
    "cancer diabetes asthma fracture anemia sepsis glioma lupus missing".split()
))
def test_trustworthy_index_matches_plaintext_model(docs, query):
    """Model-based check: the trustworthy index must answer every query
    exactly like the plaintext reference implementation."""
    plain = InvertedIndex()
    trust = TrustworthyIndex(bytes(range(32)))
    for doc_number, words in docs:
        doc_id = f"doc-{doc_number}"
        text = " ".join(words)
        plain.add_document(doc_id, text)
        trust.add_document(doc_id, text)
    assert trust.search(query) == plain.search(query)


@SETTINGS
@given(documents)
def test_trustworthy_index_never_leaks_terms(docs):
    trust = TrustworthyIndex(bytes(range(32)))
    vocabulary = set()
    for doc_number, words in docs:
        trust.add_document(f"doc-{doc_number}", " ".join(words))
        vocabulary.update(words)
    dump = trust.device.raw_dump()
    for term in vocabulary:
        assert term.encode() not in dump
