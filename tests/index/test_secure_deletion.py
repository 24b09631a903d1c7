"""Secure deletion from the trustworthy index: verifiable forgetting."""

import pytest

from repro.errors import CuratorError, IndexError_
from repro.index.trustworthy import CHUNK_CAPACITY, TrustworthyIndex

MASTER = bytes(range(32))


def make_index():
    return TrustworthyIndex(MASTER)


def test_delete_removes_from_search():
    index = make_index()
    index.add_document("doc-1", "cancer remission")
    index.add_document("doc-2", "cancer")
    certificate = index.delete_document("doc-1")
    assert index.search("cancer") == ["doc-2"]
    assert index.search("remission") == []
    # both lists held doc-1 pending, in memory: nothing to rewrite
    assert certificate.lists_rewritten == 0


def test_delete_scrubs_stale_ciphertext():
    index = make_index()
    index.add_documents([(f"doc-{i}", "cancer") for i in range(CHUNK_CAPACITY)])
    certificate = index.delete_document("doc-1")
    assert certificate.versions_scrubbed >= 1
    assert certificate.bytes_scrubbed > 0
    assert index.forensic_residue("doc-1") == []


def test_without_scrub_stale_versions_are_recoverable():
    # Ablation: rewriting alone leaves decryptable history.
    index = make_index()
    index.add_documents([(f"doc-{i}", "cancer") for i in range(CHUNK_CAPACITY)])
    index._rewrite_lists_without("doc-1")  # rewrite but DON'T scrub
    assert index.forensic_residue("doc-1") != []


def test_delete_nonexistent_doc_is_noop_certificate():
    index = make_index()
    index.add_document("doc-1", "alpha")
    certificate = index.delete_document("doc-other")
    assert certificate.lists_rewritten == 0


def test_empty_doc_id_rejected():
    with pytest.raises(IndexError_):
        make_index().delete_document("")


def test_index_usable_after_deletion():
    index = make_index()
    index.add_document("doc-1", "alpha beta")
    index.delete_document("doc-1")
    index.add_document("doc-3", "alpha gamma")
    assert index.search("alpha") == ["doc-3"]
    assert index.search_all(["alpha", "gamma"]) == ["doc-3"]


def test_deleted_doc_unrecoverable_even_with_keys():
    # Worst case: the adversary later obtains the index master key AND
    # the device. forensic_residue simulates exactly that.
    index = make_index()
    index.add_document("doc-secret", "cancer hiv biopsy")
    index.add_documents([(f"doc-{i}", "cancer biopsy") for i in range(CHUNK_CAPACITY)])
    index.delete_document("doc-secret")
    assert index.forensic_residue("doc-secret") == []


def test_delete_from_sealed_chunk_scrubs_only_that_chunk():
    index = make_index()
    total = 3 * CHUNK_CAPACITY + 5
    index.add_documents([(f"doc-{i:04d}", "cancer") for i in range(total)])
    trapdoor = index.trapdoor("cancer")
    before = index.chunk_extents()[trapdoor]
    victim = index.open_extent(trapdoor, before[1])[7]  # lives in sealed chunk 1
    stale = index.superseded_versions().get(trapdoor, []) + [before[1]]

    certificate = index.delete_document(victim)

    assert certificate.lists_rewritten == 1
    assert certificate.versions_scrubbed == len(stale)
    assert index.forensic_residue(victim) == []
    for extent in stale:
        assert not any(index.device.raw_read(extent.device_offset, extent.size))
    after = index.chunk_extents()[trapdoor]
    assert after[0] == before[0] and after[2:] == before[2:]  # untouched chunks
    assert len(index.open_extent(trapdoor, after[1])) == CHUNK_CAPACITY - 1
    expected = [f"doc-{i:04d}" for i in range(total) if f"doc-{i:04d}" != victim]
    assert index.search("cancer") == expected  # the chunk's neighbours survive
    assert index.verify() == []


# -- deletion over pending ids and sealed chunks --------------------------------


def boxes_naming(index, document_id):
    """``(offset, size)`` of every chunk on the device, live or
    superseded, that still decrypts to a list naming the document."""
    named = []
    for table in (index.chunk_extents(), index.superseded_versions()):
        for trapdoor, extents in table.items():
            for extent in extents:
                try:
                    if document_id in index.open_extent(trapdoor, extent):
                        named.append((extent.device_offset, extent.size))
                except CuratorError:
                    pass  # scrubbed
    return named


def assert_forgotten(index, document_id, held):
    assert index.forensic_residue(document_id) == []
    assert boxes_naming(index, document_id) == []
    for offset, size in held:
        assert not any(index.device.raw_read(offset, size))
    assert index.verify() == []


def test_delete_while_pending_is_a_memory_edit():
    index = make_index()
    index.add_documents([(f"doc-{i}", "cancer") for i in range(5)])
    index.add_document("doc-9", "cancer remission")
    stats = index.device.stats
    before = (stats.reads, stats.writes, stats.raw_writes)

    certificate = index.delete_document("doc-2")

    assert (certificate.lists_rewritten, certificate.versions_scrubbed) == (0, 0)
    assert (stats.reads, stats.writes, stats.raw_writes) == before
    assert index.device.used == 0  # no box ever named it
    assert_forgotten(index, "doc-2", [])
    assert index.search("cancer") == ["doc-0", "doc-1", "doc-3", "doc-4", "doc-9"]
    index.add_documents([(f"late-{i:02d}", "cancer") for i in range(CHUNK_CAPACITY - 5)])
    (sealed,) = index.chunk_extents()[index.trapdoor("cancer")]
    assert "doc-2" not in index.open_extent(index.trapdoor("cancer"), sealed)


def test_delete_after_its_fold_scrubs_the_chunk_it_was_sealed_in():
    index = make_index()
    for i in range(CHUNK_CAPACITY + 3):
        index.add_document(f"doc-{i:04d}", "cancer")
    trapdoor = index.trapdoor("cancer")
    (sealed,) = index.chunk_extents()[trapdoor]
    held = boxes_naming(index, "doc-0007")
    assert held == [(sealed.device_offset, sealed.size)]

    certificate = index.delete_document("doc-0007")

    assert (certificate.lists_rewritten, certificate.versions_scrubbed) == (1, 1)
    assert_forgotten(index, "doc-0007", held)
    assert index.superseded_versions() == {}
    assert len(index.search("cancer")) == CHUNK_CAPACITY + 2
