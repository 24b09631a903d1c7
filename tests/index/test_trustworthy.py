"""Trustworthy index: correctness, non-leakage, tamper evidence."""

import pytest

from repro.errors import IndexError_, IntegrityError
from repro.index.trustworthy import CHUNK_CAPACITY, TrustworthyIndex, _padded_length
from repro.storage.journal import HEADER_SIZE, Journal
from repro.util.clock import SimulatedClock
from repro.workload.generator import WorkloadGenerator

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
    index.add_documents([(f"doc-{i}", "cancer") for i in range(CHUNK_CAPACITY)])
    meta = index.chunk_extents()[index.trapdoor("cancer")][-1]
    index.device.raw_write(meta.device_offset + meta.size // 2, b"\xff\xff")
    with pytest.raises(Exception):
        index.search("cancer")


def test_verify_localizes_tampered_lists():
    index = make_index()
    for term in ("alpha", "beta"):
        index.add_documents([(f"{term}-{i}", term) for i in range(CHUNK_CAPACITY)])
    good = index.trapdoor("alpha")
    bad = index.trapdoor("beta")
    meta = index.chunk_extents()[bad][-1]
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

LONG = 3 * CHUNK_CAPACITY + 5  # three sealed chunks and five pending ids


def make_long_index(text="cancer"):
    """LONG documents sharing *text*'s terms, plus an unrelated list that
    every tamper case must leave verifying."""
    index = make_index()
    index.add_documents([(f"doc-{i:04d}", text) for i in range(LONG)])
    index.add_document("doc-other", "bystander")
    return index


def box_of(index, extent):
    """The bytes of one box as they are on the device."""
    return index.device.raw_read(extent.device_offset, extent.size)


def assert_only_cancer_fails(index, error):
    with pytest.raises(error):
        index.search("cancer")
    assert index.verify() == [index.trapdoor("cancer")]
    assert index.search("bystander") == ["doc-other"]


def test_long_list_is_a_chain_of_bounded_chunks():
    index = make_long_index()
    trapdoor = index.trapdoor("cancer")
    chain = index.chunk_extents()[trapdoor]
    assert [len(index.open_extent(trapdoor, extent)) for extent in chain] == [CHUNK_CAPACITY] * 3
    # one frame of three chunks; the five pending ids (and the
    # bystander's) are held in memory only
    assert index.device.used == HEADER_SIZE + sum(extent.size for extent in chain)
    assert index.search("cancer") == [f"doc-{i:04d}" for i in range(LONG)]
    assert index.verify() == []


def test_add_touches_only_the_tail_chunk():
    # the tail is the pending ids, in memory: an add that folds nothing
    # reads and writes nothing on the device
    index = make_long_index()
    trapdoor = index.trapdoor("cancer")
    before = index.chunk_extents()[trapdoor]
    stats = (index.device.stats.reads, index.device.stats.writes, index.device.used)
    index.add_document("doc-new", "cancer")
    assert index.chunk_extents()[trapdoor] == before  # same boxes, same digests
    assert (index.device.stats.reads, index.device.stats.writes, index.device.used) == stats
    assert "doc-new" in index.search("cancer")


def test_full_tail_is_sealed_not_reread():
    index = make_index()
    index.add_documents([(f"doc-{i:04d}", "cancer") for i in range(CHUNK_CAPACITY)])
    trapdoor = index.trapdoor("cancer")
    (sealed,) = index.chunk_extents()[trapdoor]
    index.device.raw_write(sealed.device_offset, bytes(sealed.size))  # destroy it
    reads = index.device.stats.reads
    index.add_document("doc-next", "cancer")  # must not need the sealed chunk
    assert index.chunk_extents()[trapdoor] == [sealed]
    assert index.device.stats.reads == reads
    assert index.verify() == [trapdoor]


def layout(index):
    """Where every box of *index* lives, and what each list holds;
    digests are left out, since nonces are random."""
    boxes = [
        {
            trapdoor: [(e.journal_sequence, e.device_offset, e.size) for e in extents]
            for trapdoor, extents in table.items()
        }
        for table in (index.chunk_extents(), index.superseded_versions())
    ]
    return boxes, {term: index.search(term) for term in ("cancer", "stage0", "cohort6")}


def test_single_add_is_a_batch_of_one():
    looped, batched = make_index(), make_index()
    documents = [
        (f"doc-{i:03d}", f"cancer stage{i % 3} cohort{i % 7}")
        for i in range(CHUNK_CAPACITY + 9)
    ]
    for document_id, text in documents:
        assert looped.add_document(document_id, text) == 3
        assert batched.add_documents([(document_id, text)]) == [3]
    assert layout(looped) == layout(batched)
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
    box = bytearray(box_of(index, sealed))
    box[-3] ^= 0x40  # inside the ciphertext
    index.device.raw_write(sealed.device_offset, bytes(box))
    assert_only_cancer_fails(index, IntegrityError)


def test_swapped_sealed_chunks_detected():
    index = make_long_index()
    a, b = (index.chunk_extents()[index.trapdoor("cancer")][i] for i in (0, 2))
    assert a.size == b.size
    box_a, box_b = box_of(index, a), box_of(index, b)
    index.device.raw_write(a.device_offset, box_b)
    index.device.raw_write(b.device_offset, box_a)
    assert_only_cancer_fails(index, IntegrityError)


def test_replayed_older_tail_version_detected():
    # Two deletions rewrite the last chunk in turn; the first rewrite's
    # bytes, replayed over the second's, must not verify.
    index = make_long_index()
    trapdoor = index.trapdoor("cancer")
    index.delete_document(f"doc-{2 * CHUNK_CAPACITY:04d}")
    snapshot = box_of(index, index.chunk_extents()[trapdoor][-1])
    index.delete_document(f"doc-{2 * CHUNK_CAPACITY + 1:04d}")
    current = index.chunk_extents()[trapdoor][-1]
    assert box_of(index, current) != snapshot
    index.device.raw_write(current.device_offset, (snapshot + bytes(current.size))[: current.size])
    assert_only_cancer_fails(index, IntegrityError)


def test_rewritten_chunk_rolled_back_detected():
    # A deletion rewrites the chunk and scrubs the old box; bytes kept
    # from before it, written back over the new box, must not verify.
    index = make_long_index()
    trapdoor = index.trapdoor("cancer")
    old = index.chunk_extents()[trapdoor][1]
    kept = box_of(index, old)
    index.delete_document(index.open_extent(trapdoor, old)[0])
    new = index.chunk_extents()[trapdoor][1]
    assert new != old
    index.device.raw_write(new.device_offset, (kept + bytes(new.size))[: new.size])
    assert_only_cancer_fails(index, IntegrityError)


def test_chunk_copied_from_another_trapdoor_detected():
    index = make_long_index("cancer biopsy")
    donor = index.chunk_extents()[index.trapdoor("biopsy")][0]
    victim = index.chunk_extents()[index.trapdoor("cancer")][0]
    assert donor.size == victim.size
    index.device.raw_write(victim.device_offset, box_of(index, donor))
    assert_only_cancer_fails(index, IntegrityError)
    assert len(index.search("biopsy")) == LONG


def test_zeroed_last_chunk_detected():
    index = make_long_index()
    tail = index.chunk_extents()[index.trapdoor("cancer")][-1]
    index.device.raw_write(tail.device_offset, bytes(tail.size))
    assert_only_cancer_fails(index, IntegrityError)


# -- one frame per write ------------------------------------------------------


def frames(index):
    return len(list(Journal.walk_frames(index.device)))


def test_an_add_is_one_frame_in_one_device_write():
    # at most: an add that folds nothing writes nothing at all
    index = make_index()
    for i in range(CHUNK_CAPACITY - 1):
        index.add_document(f"doc-{i:04d}", "cancer biopsy stage")
    assert (frames(index), index.device.stats.writes, index.device.used) == (0, 0, 0)
    assert index.chunk_extents() == {}
    for term in ("cancer", "biopsy", "stage"):
        assert len(index.search(term)) == CHUNK_CAPACITY - 1
    index.add_document("doc-last", "cancer biopsy stage")  # three lists fold
    assert (frames(index), index.device.stats.writes) == (1, 1)
    assert [len(chain) for chain in index.chunk_extents().values()] == [1, 1, 1]


def test_pending_ids_fold_into_a_sealed_chunk_in_the_same_write():
    index = make_index()
    trapdoor = index.trapdoor("cancer")
    for i in range(CHUNK_CAPACITY - 1):
        index.add_document(f"doc-{i:04d}", "cancer")
    index.add_document("doc-last", "cancer biopsy")
    # a fold is exactly one frame in one device write, and holds only
    # the chunk it sealed
    assert (frames(index), index.device.stats.writes) == (1, 1)
    (sealed,) = index.chunk_extents()[trapdoor]
    assert sealed.journal_sequence == 0  # a box of the add's one frame
    assert index.device.used == HEADER_SIZE + sealed.size
    assert len(index.open_extent(trapdoor, sealed)) == CHUNK_CAPACITY
    assert index.superseded_versions() == {}
    assert index.search("cancer") == sorted([f"doc-{i:04d}" for i in range(31)] + ["doc-last"])
    assert index.verify() == []


def test_single_adds_of_generated_records_write_under_1100_bytes_each():
    # The layout that rewrote each touched list's tail wrote ~2,600 B
    # per record here, and one delta frame per write ~510; writing only
    # the chunks a fold seals writes ~110.  The device then holds only
    # live chunks: nothing is superseded, and every byte is a current
    # chunk or its frame's header.
    generator = WorkloadGenerator(3, SimulatedClock(start=1.17e9))
    generator.create_population(200)
    records = [generated.record for generated in generator.mixed_stream(1600)]
    index = make_index()
    for record in records:
        index.add_document(record.record_id, record.searchable_text())
    assert index.device.stats.bytes_written <= 150 * len(records)
    assert index.superseded_versions() == {}
    chunks = [extent for chain in index.chunk_extents().values() for extent in chain]
    sealing = {extent.journal_sequence for extent in chunks}
    assert len(sealing) == frames(index) < len(records) / 5
    assert index.device.used == HEADER_SIZE * frames(index) + sum(e.size for e in chunks)


def test_verify_reads_each_box_once_and_blames_only_altered_ones():
    index = make_index()
    index.add_documents([(f"doc-{i:04d}", "alpha") for i in range(CHUNK_CAPACITY)])
    index.add_documents([(f"doc-{i}", "alpha beta gamma") for i in range(CHUNK_CAPACITY + 10)])
    reads = index.device.stats.reads
    assert index.verify() == []
    # two chunks of alpha, one each of beta and gamma; pending ids are
    # never read
    assert index.device.stats.reads == reads + 4
    altered = index.chunk_extents()[index.trapdoor("beta")][0]
    (byte,) = index.device.raw_read(altered.device_offset, 1)
    index.device.raw_write(altered.device_offset, bytes([byte ^ 1]))
    assert index.verify() == [index.trapdoor("beta")]
    assert len(index.search("gamma")) == CHUNK_CAPACITY + 10


def test_swapped_chunks_of_one_fold_detected():
    index = make_index()
    index.add_documents([(f"doc-{i}", "cancer biopsy") for i in range(CHUNK_CAPACITY)])
    index.add_document("doc-other", "bystander")
    a, b = (index.chunk_extents()[index.trapdoor(term)][0] for term in ("cancer", "biopsy"))
    assert a.journal_sequence == b.journal_sequence and a.size == b.size
    box_a, box_b = (index.device.raw_read(d.device_offset, d.size) for d in (a, b))
    index.device.raw_write(a.device_offset, box_b)
    index.device.raw_write(b.device_offset, box_a)
    with pytest.raises(IntegrityError):
        index.search("biopsy")
    assert index.verify() == sorted([index.trapdoor("cancer"), index.trapdoor("biopsy")])
    assert index.search("bystander") == ["doc-other"]


def test_dropped_fold_frame_detected():
    index = make_long_index()
    index.add_documents([(f"late-{i:02d}", "cancer") for i in range(CHUNK_CAPACITY)])
    newest = index.chunk_extents()[index.trapdoor("cancer")][-1]
    index.device.raw_write(newest.device_offset - HEADER_SIZE, bytes(HEADER_SIZE + newest.size))
    assert_only_cancer_fails(index, IntegrityError)


def test_a_search_reads_nothing_for_a_list_with_no_sealed_chunk():
    index = make_long_index()
    reads = index.device.stats.reads
    assert index.search("bystander") == ["doc-other"]
    assert index.search_all(["bystander", "absent"]) == []
    assert index.device.stats.reads == reads
    assert len(index.search("cancer")) == LONG
    assert index.device.stats.reads == reads + 3  # the three sealed chunks


# -- one kind of box ------------------------------------------------------------


def test_no_trapdoor_is_on_the_device():
    # Every list here seals chunks, and a deletion rewrites one of each;
    # no box may carry its list's raw trapdoor in the clear.
    index = make_index()
    terms = ("cancer", "biopsy", "stage")
    index.add_documents([(f"doc-{i:04d}", " ".join(terms)) for i in range(2 * CHUNK_CAPACITY + 3)])
    for i in range(CHUNK_CAPACITY):
        index.add_document(f"one-{i:02d}", "cancer")
    index.delete_document("doc-0005")
    assert len(index.chunk_extents()[index.trapdoor("cancer")]) == 3
    dump = index.device.raw_dump()
    for term in terms:
        assert bytes.fromhex(index.trapdoor(term)) not in dump


def test_every_write_is_one_frame_in_one_device_write():
    index = make_index()

    def writes(frames_written, write):
        before, writes = frames(index), index.device.stats.writes
        write()
        assert (frames(index), index.device.stats.writes) == (
            before + frames_written,
            writes + frames_written,
        )

    batch = [(f"doc-{i:04d}", "cancer biopsy") for i in range(2 * CHUNK_CAPACITY + 3)]
    writes(1, lambda: index.add_documents(batch))  # two chunks per list, three pending
    writes(0, lambda: index.add_document("doc-late", "cancer"))  # pending
    writes(1, lambda: index.delete_document("doc-0040"))  # a chunk of each list rewritten
    writes(0, lambda: index.delete_document("doc-0065"))  # pending: a memory edit
    assert index.verify() == []
    assert len(index.search("cancer")) == len(batch) - 1


def test_a_deletion_reads_only_the_boxes_of_its_own_lists():
    index = make_index()
    index.add_documents(
        [(f"doc-{i:04d}", f"common{i % 4} filler") for i in range(8 * CHUNK_CAPACITY)]
    )
    index.add_documents([(f"vic-{i:02d}", "cancer biopsy") for i in range(CHUNK_CAPACITY + 1)])
    reads = index.device.stats.reads
    certificate = index.delete_document("vic-03")
    assert index.device.stats.reads - reads == 2  # the one chunk holding it, per list
    assert certificate.lists_rewritten == 2
    assert index.search("cancer") == [f"vic-{i:02d}" for i in range(CHUNK_CAPACITY + 1) if i != 3]
    assert len(index.search("filler")) == 8 * CHUNK_CAPACITY


@pytest.mark.parametrize("size", [400, 1_600, 6_400])
def test_a_deletion_opens_one_chunk_per_list(size):
    # The chunk slot each id was sealed in is held in memory, so a
    # deletion opens only that chunk of each list (a chain of a
    # thousand chunks reads one), and none of a list it is pending in.
    generator = WorkloadGenerator(3, SimulatedClock(start=1.17e9))
    generator.create_population(200)
    records = [generated.record for generated in generator.mixed_stream(size)]
    index = make_index()
    lists = dict(
        zip(
            [record.record_id for record in records],
            index.add_documents([(r.record_id, r.searchable_text()) for r in records]),
        )
    )
    for record in records[:: size // 20]:
        reads = index.device.stats.reads
        certificate = index.delete_document(record.record_id)
        assert index.device.stats.reads - reads == certificate.lists_rewritten
        assert certificate.lists_rewritten <= lists[record.record_id]
        assert index.forensic_residue(record.record_id) == []
