"""Trustworthy index: correctness, non-leakage, tamper evidence."""

import pytest

from repro.errors import AuthenticationError, IndexError_, IntegrityError
from repro.index.trustworthy import (
    _FRAME_HEADER,
    CHUNK_CAPACITY,
    TrustworthyIndex,
    _padded_length,
)
from repro.storage.journal import HEADER_SIZE, Journal

MASTER = bytes(range(32))


def make_index():
    return TrustworthyIndex(MASTER)


def test_padded_length_buckets():
    assert _padded_length(0) == 1
    assert _padded_length(1) == 1
    assert _padded_length(2) == 2
    assert _padded_length(3) == 4
    assert _padded_length(9) == 16


def test_add_and_search():
    index = make_index()
    index.add_document("doc-1", "diabetes mellitus")
    index.add_document("doc-2", "diabetes insipidus")
    assert index.search("diabetes") == ["doc-1", "doc-2"]
    assert index.search("mellitus") == ["doc-1"]
    assert index.search("absent") == []


def test_conjunctive_search():
    index = make_index()
    index.add_document("doc-1", "cancer remission")
    index.add_document("doc-2", "cancer metastatic")
    assert index.search_all(["cancer", "metastatic"]) == ["doc-2"]


def test_duplicate_document_rejected():
    index = make_index()
    index.add_document("doc-1", "text words")
    with pytest.raises(IndexError_):
        index.add_document("doc-1", "more words")


def test_empty_document_id_rejected():
    with pytest.raises(IndexError_):
        make_index().add_document("", "text")


def test_bad_master_key_rejected():
    with pytest.raises(IndexError_):
        TrustworthyIndex(b"short")


def test_trapdoors_are_keyed():
    a = TrustworthyIndex(bytes(32))
    b = TrustworthyIndex(bytes([1]) * 32)
    assert a.trapdoor("cancer") != b.trapdoor("cancer")
    assert a.trapdoor("cancer") == a.trapdoor("CANCER")


def test_no_plaintext_terms_on_device():
    # The central privacy claim: raw media never shows the vocabulary.
    index = make_index()
    index.add_document("doc-patient-7", "cancer oncology metastatic chemotherapy")
    dump = index.device.raw_dump()
    for term in (b"cancer", b"oncology", b"metastatic", b"chemotherapy"):
        assert term not in dump
    assert b"doc-patient-7" not in dump


def test_queries_still_work_after_many_updates():
    index = make_index()
    for i in range(20):
        index.add_document(f"doc-{i:02d}", f"cancer case number series{i}")
    assert index.search("cancer") == [f"doc-{i:02d}" for i in range(20)]


def test_tamper_detected_at_query_time():
    index = make_index()
    index.add_document("doc-1", "cancer")
    meta = index.current_versions()[index.trapdoor("cancer")]
    index.device.raw_write(meta.device_offset + meta.size // 2, b"\xff\xff")
    with pytest.raises(Exception):
        index.search("cancer")


def test_verify_localizes_tampered_lists():
    index = make_index()
    index.add_document("doc-1", "alpha")
    index.add_document("doc-2", "beta")
    good = index.trapdoor("alpha")
    bad = index.trapdoor("beta")
    meta = index.current_versions()[bad]
    index.device.raw_write(meta.device_offset + 10, b"\x00\x00\x00")
    failures = index.verify()
    assert bad in failures and good not in failures


def test_posting_lists_padded_to_bucket():
    # Lists of 2 and 3 docs both encrypt as 4-entry lists: equal-rarity
    # terms are not distinguishable by exact count.
    index = make_index()
    for i in range(3):
        index.add_document(f"doc-{i}", "glioma")
    assert index.search("glioma") == ["doc-0", "doc-1", "doc-2"]


def test_vocabulary_size_counts_trapdoors():
    index = make_index()
    index.add_document("doc-1", "alpha beta")
    assert index.vocabulary_size == 2
    assert len(index) == 1


# -- chunked posting lists ---------------------------------------------------

LONG = 3 * CHUNK_CAPACITY + 5  # three sealed chunks and a part-filled tail


def make_long_index(text="cancer"):
    """LONG documents sharing *text*'s terms, plus an unrelated list that
    every tamper case must leave verifying."""
    index = make_index()
    index.add_documents([(f"doc-{i:04d}", text) for i in range(LONG)])
    index.add_document("doc-other", "bystander")
    return index


def frame_of(index, extent):
    """(frame offset, whole journal frame) of one chunk extent."""
    offset = extent.device_offset - HEADER_SIZE
    return offset, index.device.raw_read(offset, HEADER_SIZE + extent.size)


def assert_only_cancer_fails(index, error):
    with pytest.raises(error):
        index.search("cancer")
    assert index.verify() == [index.trapdoor("cancer")]
    assert index.search("bystander") == ["doc-other"]


def test_long_list_is_a_chain_of_bounded_chunks():
    index = make_long_index()
    chain = index.chunk_extents()[index.trapdoor("cancer")]
    assert [extent.chunk for extent in chain] == [0, 1, 2, 3]
    assert [extent.fill for extent in chain] == [CHUNK_CAPACITY] * 3 + [5]
    assert index.current_versions()[index.trapdoor("cancer")] == chain[-1]
    assert index.search("cancer") == [f"doc-{i:04d}" for i in range(LONG)]
    assert index.verify() == []


def test_add_touches_only_the_tail_chunk():
    index = make_long_index()
    trapdoor = index.trapdoor("cancer")
    before = index.chunk_extents()[trapdoor]
    index.add_document("doc-new", "cancer")
    after = index.chunk_extents()[trapdoor]
    assert after[:-1] == before[:-1]  # sealed chunks: same frames, same versions
    assert after[-1].version == before[-1].version + 1
    assert after[-1].fill == before[-1].fill + 1


def test_full_tail_is_sealed_not_reread():
    index = make_index()
    index.add_documents([(f"doc-{i:04d}", "cancer") for i in range(CHUNK_CAPACITY)])
    trapdoor = index.trapdoor("cancer")
    (sealed,) = index.chunk_extents()[trapdoor]
    index.device.raw_write(sealed.device_offset, bytes(sealed.size))  # destroy it
    index.add_document("doc-next", "cancer")  # must not need the sealed chunk
    chain = index.chunk_extents()[trapdoor]
    assert chain[0] == sealed and (chain[1].chunk, chain[1].fill) == (1, 1)
    assert index.verify() == [trapdoor]


def test_single_add_is_a_batch_of_one():
    looped, batched = make_index(), make_index()
    documents = [
        (f"doc-{i:03d}", f"cancer stage{i % 3} cohort{i % 7}")
        for i in range(CHUNK_CAPACITY + 9)
    ]
    for document_id, text in documents:
        assert looped.add_document(document_id, text) == 3
        assert batched.add_documents([(document_id, text)]) == [3]
    assert looped.chunk_extents() == batched.chunk_extents()
    assert looped.superseded_versions() == batched.superseded_versions()
    frames = [
        len(list(Journal.walk_frames(index.device)))
        for index in (looped, batched)
    ]
    assert frames[0] == frames[1]
    assert looped.device.used == batched.device.used


def test_add_cost_does_not_grow_with_list_length():
    # One shared term, one add_document at a time.  The parent layout
    # rewrote the whole list per add (~10x more bytes at 1,000 ids than
    # at 100); a chunked list rewrites one bounded tail.
    index = make_index()
    written = [0]
    for i in range(1024):
        index.add_document(f"doc-{i:04d}", "cancer")
        written.append(index.device.stats.bytes_written)
    early = written[128] - written[64]  # adds 65..128
    late = written[1024] - written[960]  # adds 961..1024
    assert late <= 1.5 * early
    assert len(index.search("cancer")) == 1024


def test_byte_flip_in_sealed_chunk_detected():
    index = make_long_index()
    sealed = index.chunk_extents()[index.trapdoor("cancer")][1]
    offset, frame = frame_of(index, sealed)
    payload = bytearray(frame[HEADER_SIZE:])
    payload[-3] ^= 0x40  # inside the ciphertext
    Journal.forge_frame(index.device, offset, bytes(payload))  # checksum fixed up
    assert_only_cancer_fails(index, AuthenticationError)


def test_swapped_sealed_chunks_detected():
    index = make_long_index()
    chain = index.chunk_extents()[index.trapdoor("cancer")]
    (offset_a, frame_a), (offset_b, frame_b) = frame_of(index, chain[0]), frame_of(index, chain[2])
    assert len(frame_a) == len(frame_b)
    index.device.raw_write(offset_a, frame_b)
    index.device.raw_write(offset_b, frame_a)
    assert_only_cancer_fails(index, IntegrityError)


def test_swapped_chunks_with_relabelled_headers_detected():
    # The smarter swap: also exchange the clear chunk numbers, so each
    # frame claims the position it was moved to.  The MAC binds the
    # ciphertext to the header it was sealed under.
    index = make_long_index()
    chain = index.chunk_extents()[index.trapdoor("cancer")]
    (offset_a, frame_a), (offset_b, frame_b) = frame_of(index, chain[0]), frame_of(index, chain[2])
    header = _FRAME_HEADER.size  # trapdoor | chunk | version
    payload_a, payload_b = frame_a[HEADER_SIZE:], frame_b[HEADER_SIZE:]
    Journal.forge_frame(index.device, offset_a, payload_a[:header] + payload_b[header:])
    Journal.forge_frame(index.device, offset_b, payload_b[:header] + payload_a[header:])
    assert_only_cancer_fails(index, AuthenticationError)


def test_replayed_older_tail_version_detected():
    index = make_long_index()
    trapdoor = index.trapdoor("cancer")
    _, snapshot = frame_of(index, index.current_versions()[trapdoor])
    # two more versions of the tail with the same content and length
    index.delete_document(f"doc-{LONG - 1:04d}")
    index.add_document(f"doc-{LONG - 1:04d}", "cancer")
    current = index.current_versions()[trapdoor]
    offset, frame = frame_of(index, current)
    assert len(frame) == len(snapshot) and frame != snapshot
    index.device.raw_write(offset, snapshot)
    assert_only_cancer_fails(index, IntegrityError)


def test_chunk_copied_from_another_trapdoor_detected():
    index = make_long_index("cancer biopsy")
    donor = index.chunk_extents()[index.trapdoor("biopsy")][0]
    victim = index.chunk_extents()[index.trapdoor("cancer")][0]
    _, frame = frame_of(index, donor)
    offset, original = frame_of(index, victim)
    assert len(frame) == len(original)
    index.device.raw_write(offset, frame)
    assert_only_cancer_fails(index, IntegrityError)
    assert len(index.search("biopsy")) == LONG


def test_zeroed_last_chunk_detected():
    index = make_long_index()
    tail = index.current_versions()[index.trapdoor("cancer")]
    index.device.raw_write(tail.device_offset, bytes(tail.size))
    assert_only_cancer_fails(index, IntegrityError)
