"""Property-based test of the chunked trustworthy index (hypothesis):
any interleaving of single adds, batched adds and secure deletions
agrees with a dict-of-sets model after every step, with the chunk
capacity shrunk so short histories cross several chunk boundaries."""

from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.index import trustworthy
from repro.index.trustworthy import TrustworthyIndex

SETTINGS = settings(
    max_examples=40, suppress_health_check=[HealthCheck.too_slow], deadline=None
)

TERMS = ("alpha", "bravo", "charlie", "delta", "echo")

term_sets = st.sets(st.sampled_from(TERMS), max_size=len(TERMS))
operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), term_sets),
        st.tuples(st.just("add_many"), st.lists(term_sets, max_size=11)),
        st.tuples(st.just("delete"), st.integers(min_value=0)),
    ),
    max_size=30,
)


def check(index, postings, live):
    assert len(index) == len(live)
    assert index.vocabulary_size == len(postings)  # emptied lists keep their trapdoor
    for term in TERMS:
        assert index.search(term) == sorted(postings.get(term, ()))
    for first, second in zip(TERMS, TERMS[1:]):
        expected = postings.get(first, set()) & postings.get(second, set())
        assert index.search_all([first, second]) == sorted(expected)


@SETTINGS
@given(operations)
def test_index_agrees_with_model(ops):
    with mock.patch.object(trustworthy, "CHUNK_CAPACITY", 4):
        index = TrustworthyIndex(bytes(range(32)))
        postings: dict[str, set[str]] = {}
        live: list[str] = []
        minted = 0
        for kind, argument in ops:
            if kind == "delete":
                if not live:
                    continue
                victim = live.pop(argument % len(live))
                index.delete_document(victim)
                for documents in postings.values():
                    documents.discard(victim)
                assert index.forensic_residue(victim) == []
            else:
                batch = []
                for terms in [argument] if kind == "add" else argument:
                    document_id = f"doc-{minted:03d}"
                    minted += 1
                    batch.append((document_id, " ".join(sorted(terms))))
                    live.append(document_id)
                    for term in terms:
                        postings.setdefault(term, set()).add(document_id)
                if kind == "add":
                    assert index.add_document(*batch[0]) == len(argument)
                else:
                    counts = index.add_documents(batch)
                    assert counts == [len(terms) for terms in argument]
            check(index, postings, live)
        assert index.verify() == []
        for trapdoor, chain in index.chunk_extents().items():
            assert all(len(index.open_extent(trapdoor, extent)) <= 4 for extent in chain)
