"""Epoch-partitioned index: routing, window queries, bulk expiry."""

import pytest

from repro.errors import IndexError_
from repro.index.epochs import EpochedIndex

MASTER = bytes(range(32))
YEAR = 365.25 * 86400


def make_index():
    return EpochedIndex(MASTER, epoch_seconds=YEAR)


def populate(index):
    # year 0: two docs; year 1: one doc; year 5: one doc
    index.add_document("doc-a", "cancer remission", timestamp=0.1 * YEAR)
    index.add_document("doc-b", "cancer metastatic", timestamp=0.9 * YEAR)
    index.add_document("doc-c", "cancer surveillance", timestamp=1.5 * YEAR)
    index.add_document("doc-d", "cancer survivor", timestamp=5.5 * YEAR)
    return index


def test_bad_construction():
    with pytest.raises(IndexError_):
        EpochedIndex(b"short", epoch_seconds=YEAR)
    with pytest.raises(IndexError_):
        EpochedIndex(MASTER, epoch_seconds=0)


def test_documents_route_to_epochs():
    index = populate(make_index())
    assert index.epochs() == [0, 1, 5]
    stats = {s.epoch: s.documents for s in index.stats()}
    assert stats == {0: 2, 1: 1, 5: 1}


def test_search_fans_out_across_epochs():
    index = populate(make_index())
    assert index.search("cancer") == ["doc-a", "doc-b", "doc-c", "doc-d"]
    assert index.search("remission") == ["doc-a"]


def test_search_window_restricts_epochs():
    index = populate(make_index())
    assert index.search_window("cancer", 0.0, YEAR) == ["doc-a", "doc-b"]
    assert index.search_window("cancer", YEAR, 2 * YEAR) == ["doc-c"]
    assert index.search_window("cancer", 0.0, 6 * YEAR) == [
        "doc-a", "doc-b", "doc-c", "doc-d",
    ]
    assert index.search_window("cancer", 2 * YEAR, 5 * YEAR) == []
    assert index.search_window("cancer", 5.0, 4.0) == []


def test_duplicate_document_rejected():
    index = populate(make_index())
    with pytest.raises(IndexError_):
        index.add_document("doc-a", "anything", timestamp=0.2 * YEAR)


def test_per_document_deletion_still_works():
    index = populate(make_index())
    index.delete_document("doc-a")
    assert index.search("remission") == []
    assert index._segments[0].forensic_residue("doc-a") == []  # noqa: SLF001
    assert index.search("cancer") == ["doc-b", "doc-c", "doc-d"]
    with pytest.raises(IndexError_):
        index.delete_document("doc-a")


def test_drop_epoch_bulk_expiry():
    index = populate(make_index())
    destroyed = index.drop_epoch(0)
    assert destroyed == 2
    assert index.search("cancer") == ["doc-c", "doc-d"]
    assert index.epochs() == [1, 5]
    # the segment device is zeroed — no ciphertext residue
    device = index.devices()[0]
    assert not any(device.raw_dump())


def test_dropped_epoch_cannot_be_reused():
    index = populate(make_index())
    index.drop_epoch(0)
    with pytest.raises(IndexError_):
        index.add_document("doc-late", "text", timestamp=0.3 * YEAR)
    with pytest.raises(IndexError_):
        index.drop_epoch(0)


def test_expired_epochs_schedule():
    index = populate(make_index())
    # 7-year retention measured from epoch END:
    # epoch 0 ends at 1*YEAR -> disposable at 8*YEAR
    assert index.expired_epochs(now=7.9 * YEAR, retention_seconds=7 * YEAR) == []
    assert index.expired_epochs(now=8.1 * YEAR, retention_seconds=7 * YEAR) == [0]
    assert index.expired_epochs(now=9.5 * YEAR, retention_seconds=7 * YEAR) == [0, 1]


def test_no_plaintext_terms_on_any_segment_device():
    index = populate(make_index())
    for device in index.devices():
        assert b"cancer" not in device.raw_dump()


def test_stats_reflect_drop():
    index = populate(make_index())
    index.drop_epoch(1)
    stats = {s.epoch: s for s in index.stats()}
    assert stats[1].dropped and stats[1].documents == 0
    assert not stats[0].dropped
