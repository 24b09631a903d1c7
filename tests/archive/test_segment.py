"""Unit tests on the cold segment wire format: build/parse round trip,
manifest compression, Merkle membership, and the adversary's in-place
manifest reforge primitive."""

import pytest

from repro.archive.segment import (
    SEGMENT_MAGIC,
    build_segment,
    cold_associated_data,
    compress_member,
    decompress_member,
    parse_segment,
    reforge_manifest,
)
from repro.crypto.merkle import leaf_hash, verify_inclusion
from repro.errors import IntegrityError, ValidationError
from repro.util.encoding import canonical_bytes


def make_members(n=4):
    members = []
    for i in range(n):
        blob = bytes([i]) + f"sealed-member-{i}".encode() * (i + 1)
        provenance = tuple(
            {"content_digest": f"{i:02x}" * 32, "written_at": 1.17e9 + v}
            for v in range(i + 1)
        )
        members.append((f"rec-{i}", blob, i + 1, 1.4e9 + i, provenance))
    return members


def test_build_parse_round_trip_preserves_every_member():
    members = make_members()
    manifest, chunks = build_segment("seg-0001", 1.17e9, members)
    payload = b"".join(chunks)
    parsed, member_area = parse_segment(payload)
    assert parsed == manifest
    assert parsed.segment_id == "seg-0001"
    for (record_id, blob, versions, expires_at, provenance), member in zip(
        members, parsed.members
    ):
        assert member.record_id == record_id
        assert member.versions == versions
        assert member.expires_at == expires_at
        assert member.provenance == provenance
        start = member_area + member.offset
        assert payload[start : start + member.length] == blob
        assert member.leaf_digest == leaf_hash(blob)


def test_merkle_root_proves_each_sealed_member():
    members = make_members(5)
    manifest, _chunks = build_segment("seg-0001", 1.17e9, members)
    tree = manifest.tree
    assert tree.root() == manifest.merkle_root
    for index, (_, blob, *_rest) in enumerate(members):
        proof = tree.prove_inclusion(index)
        verify_inclusion(blob, proof, manifest.merkle_root)
    # a swapped member does not prove against the root
    with pytest.raises(IntegrityError):
        verify_inclusion(members[0][1], tree.prove_inclusion(1), manifest.merkle_root)


def test_segment_rejects_duplicates_and_emptiness():
    with pytest.raises(ValidationError):
        build_segment("seg-0001", 1.17e9, [])
    members = make_members(2)
    members[1] = ("rec-0", *members[1][1:])
    with pytest.raises(ValidationError):
        build_segment("seg-0001", 1.17e9, members)


def test_member_compression_round_trips_and_shrinks_real_payloads():
    # the dictionary is tuned for canonical member plaintexts — a
    # realistic version-chain body must round trip AND get smaller
    plaintext = canonical_bytes(
        {
            "record_id": "rec-0011",
            "versions": [
                {
                    "author_id": "dr-07",
                    "created_at": 1.17e9,
                    "previous_digest": bytes(32),
                    "reason": "initial",
                    "record": {
                        "body": {
                            "abnormal": False,
                            "code": "8867-4",
                            "display": "Heart rate",
                            "reference_range": "60-100",
                            "unit": "beats/min",
                            "value": 72,
                        },
                        "created_at": 1.17e9,
                        "patient_id": "pat-0003",
                        "record_id": "rec-0011",
                        "record_type": "observation",
                    },
                    "version_number": 0,
                }
            ],
        }
    )
    compressed = compress_member(plaintext)
    assert decompress_member(compressed) == plaintext
    assert len(compressed) < len(plaintext) / 2
    # arbitrary bytes survive too (compression is transparent)
    blob = bytes(range(256)) * 3
    assert decompress_member(compress_member(blob)) == blob


def test_associated_data_binds_segment_and_record():
    ad = cold_associated_data("seg-0001", "rec-9")
    assert cold_associated_data("seg-0002", "rec-9") != ad
    assert cold_associated_data("seg-0001", "rec-8") != ad
    # the binding is unambiguous, not just concatenation-distinct
    assert cold_associated_data("seg-000", "1/rec-9") != ad


def test_parse_rejects_foreign_payloads():
    with pytest.raises(IntegrityError):
        parse_segment(b"??")
    with pytest.raises(IntegrityError):
        parse_segment(b"NOPE" + bytes(64))
    manifest, chunks = build_segment("seg-0001", 1.17e9, make_members(2))
    payload = bytearray(b"".join(chunks))
    # a manifest length running past the frame is caught before zlib
    payload[4:8] = (len(payload) * 2).to_bytes(4, "big")
    with pytest.raises(IntegrityError):
        parse_segment(bytes(payload))


def test_reforge_manifest_swaps_a_leaf_in_place():
    manifest, chunks = build_segment("seg-0001", 1.17e9, make_members(3))
    payload = b"".join(chunks)

    forged = forged_leaf = None
    for salt in range(64):  # a random digest may compress larger; retry
        candidate = leaf_hash(b"forged" + bytes([salt]))

        def mutate(data, candidate=candidate):
            data["members"][1]["leaf_digest"] = candidate
            return data

        try:
            forged = reforge_manifest(payload, mutate)
        except ValidationError:
            continue
        forged_leaf = candidate
        break
    assert forged is not None, "no salt produced a fitting manifest"
    # in place: same total length, members untouched, magic intact
    assert len(forged) == len(payload)
    assert forged[:4] == SEGMENT_MAGIC
    assert forged[-len(chunks[-1]) :] == chunks[-1]
    reparsed, _ = parse_segment(forged)
    assert reparsed.members[1].leaf_digest == forged_leaf
    assert reparsed.members[0] == manifest.members[0]


def test_reforge_refuses_mutations_that_do_not_fit():
    _manifest, chunks = build_segment("seg-0001", 1.17e9, make_members(2))
    payload = b"".join(chunks)

    def bloat(data):
        data["note"] = "x" * 4096  # incompressible growth
        return data

    with pytest.raises(ValidationError):
        reforge_manifest(payload, bloat)
