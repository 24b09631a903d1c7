"""Compacted cold-tier archive segments.

A *segment* is one journal frame on the cold device holding a batch of
demoted records.  Layout of the frame payload::

    magic(4) | manifest_zlen(4, big-endian) | zlib(manifest) | members...

The manifest is canonical JSON, zlib-compressed (its per-member digests
are incompressible hex, but the structural JSON around them is not, and
the manifest rides every segment).  Each *member* is one record's entire
version history: the canonical plaintext is zlib-compressed against a
static dictionary of record-JSON structure, then AEAD-sealed under the
record's own data key — so shredding that key at disposal kills the
cold copy exactly as it kills the warm one.

Integrity is layered the same way as the warm tier:

* the frame checksum (journal layer) guards against accidents;
* each member's manifest entry carries the Merkle leaf hash of its
  *sealed* bytes, and the manifest commits to the root over all
  leaves — body rot and truncation blame one record, not the segment,
  and recall verifies an inclusion proof over the same leaf before
  decrypting anything (one digest serves both duties, which matters:
  per-member digests are the incompressible part of the manifest, and
  plaintext authenticity is already the AEAD tag's job);
* the in-memory manifest adopted at write time is the trust root;
  comparing it against the on-device manifest catches a "smart
  insider" who rewrites manifest entries with a recomputed frame
  checksum (see :func:`reforge_manifest`, the adversary primitive the
  detection-equivalence oracle drives).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable

from repro.crypto.merkle import MerkleTree, leaf_hash
from repro.errors import IntegrityError, ValidationError
from repro.util.encoding import canonical_bytes, canonical_loads
from repro.workload import vocab as _vocab

SEGMENT_MAGIC = b"CSG1"
_PREFIX = struct.Struct(">4sI")
PREFIX_SIZE = _PREFIX.size

# Static compression dictionary.  Members are sealed one record at a
# time (so shredding one key kills one copy), which means zlib cannot
# backreference the structure and clinical vocabulary that repeat
# ACROSS members — this dictionary is the only way to exploit that
# redundancy.  It holds the exact canonical-JSON skeletons member
# plaintexts share plus the deployment's clinical vocabulary (the
# curated lists in :mod:`repro.workload.vocab`).  zlib favours strings
# near the END of the dictionary, so fragments are ordered rarest
# first and the universal version-chain skeleton last.  Purely a size
# optimization — correctness never depends on dictionary contents,
# only on both sides agreeing (it is built once at import from module
# constants, never persisted).


def _build_zdict() -> bytes:
    parts: list[bytes] = []
    # clinical vocabulary, quoted exactly as canonical JSON emits it
    for code, name, fragments in _vocab.CONDITIONS:
        parts.append(f'"{name}"'.encode())
        parts.append(" ".join(f"{fragment}." for fragment in fragments).encode())
    parts += [f'"{city} plant"'.encode() for city in _vocab.CITIES]
    parts += [f'"{agent}"'.encode() for agent in _vocab.EXPOSURE_AGENTS]
    parts += [f'"{dept}"'.encode() for dept in _vocab.DEPARTMENTS]
    parts += [f'"{kind}"'.encode() for kind in _vocab.ENCOUNTER_TYPES]
    parts.append(b'"medicare""medicaid""private""submitted""paid""denied"')
    # correction artifacts (corrected versions ride the same member)
    parts.append(b'"value transcription error""patient-requested amendment"')
    parts.append(b'"administrative correction" addendum: prior entry amended'
                 b" per patient request.")
    parts.append(b',"version_number":1}]},"version_number":2}]}')
    # per-type body skeletons, rarest record type first
    parts.append(b'"record":{"body":{"agent":"'
                 b'","exposure_level":'
                 b',"unit":"mg/m3","workplace":"')
    parts.append(b'"record":{"body":{"amount":'
                 b',"claim_number":"CLM-'
                 b'","payer":"'
                 b'","status":"')
    parts.append(b'"record":{"body":{"department":"'
                 b'","disposition":"","encounter_type":"'
                 b'","provider":"dr-'
                 b'","reason":"')
    parts.append(b'"record":{"body":{"author":"dr-'
                 b'","specialty":"'
                 b'","text":"assessment consistent with ')
    for code, display, unit, _, _ in _vocab.OBSERVATION_CODES:
        parts.append(
            f'"abnormal":true,"code":"{code}","display":"{display}",'
            f'"reference_range":"","unit":"{unit}","value":'.encode()
        )
    parts.append(b'"record":{"body":{"abnormal":false,"code":"')
    # the universal version-chain skeleton (every member, every version)
    parts.append(b'"},"reason":"initial","record":{"body":{"')
    parts.append(b'{"record_id":"rec-'
                 b'","versions":[{"author_id":"dr-'
                 b'","created_at":')
    parts.append(b',"previous_digest":{"__bytes__":"'
                 + b"0" * 64
                 + b'"},"reason":"initial","record":{"body":{"')
    parts.append(b'"},"created_at":'
                 b',"patient_id":"pat-'
                 b'","record_id":"rec-'
                 b'","record_type":"')
    for kind in ("demographics", "exposure_record", "insurance_claim",
                 "clinical_note", "encounter", "observation"):
        parts.append(f'","record_type":"{kind}"}},"version_number":0}}]}}'.encode())
    return b"".join(parts)


_ZDICT = _build_zdict()


def compress_member(plaintext: bytes) -> bytes:
    """zlib-compress one member plaintext (level 9, static dictionary)."""
    compressor = zlib.compressobj(9, zlib.DEFLATED, zlib.MAX_WBITS, 9, 0, _ZDICT)
    return compressor.compress(plaintext) + compressor.flush()


def decompress_member(blob: bytes) -> bytes:
    """Invert :func:`compress_member`."""
    decompressor = zlib.decompressobj(zlib.MAX_WBITS, _ZDICT)
    try:
        return decompressor.decompress(bytes(blob)) + decompressor.flush()
    except zlib.error as exc:
        raise IntegrityError(f"cold member failed to decompress: {exc}") from exc


def cold_associated_data(segment_id: str, record_id: str) -> bytes:
    """The AEAD associated data binding a sealed member to its segment
    slot — a member copied between segments (or record ids) fails its
    tag even when the ciphertext bytes are intact."""
    return f"~cold/{segment_id}/{record_id}".encode("utf-8")


@dataclass(frozen=True)
class MemberManifest:
    """One record's manifest entry inside a segment."""

    record_id: str
    offset: int  # within the member area (bytes past the manifest)
    length: int  # sealed length
    leaf_digest: bytes  # Merkle leaf hash of the sealed (on-device) bytes
    versions: int
    expires_at: float  # latest retention expiry across the versions
    #: Carried-over audit provenance: the warm tier's original content
    #: digests and write times, one entry per version in order (the
    #: version object ids are derivable, so they are not stored), so
    #: tamper blame after demotion can still point at the exact version
    #: object that changed.
    provenance: tuple[dict[str, Any], ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {
            "record_id": self.record_id,
            "offset": self.offset,
            "length": self.length,
            "leaf_digest": self.leaf_digest,
            "versions": self.versions,
            "expires_at": self.expires_at,
            "provenance": list(self.provenance),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MemberManifest":
        try:
            return cls(
                record_id=data["record_id"],
                offset=data["offset"],
                length=data["length"],
                leaf_digest=data["leaf_digest"],
                versions=data["versions"],
                expires_at=data["expires_at"],
                provenance=tuple(data["provenance"]),
            )
        except KeyError as exc:
            raise ValidationError(f"malformed member manifest: missing {exc}") from exc


@dataclass(frozen=True)
class SegmentManifest:
    """The per-segment manifest: members plus the Merkle root over
    their plaintext leaf hashes."""

    segment_id: str
    sealed_at: float
    merkle_root: bytes
    members: tuple[MemberManifest, ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "segment_id": self.segment_id,
            "sealed_at": self.sealed_at,
            "merkle_root": self.merkle_root,
            "members": [member.to_dict() for member in self.members],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SegmentManifest":
        try:
            return cls(
                segment_id=data["segment_id"],
                sealed_at=data["sealed_at"],
                merkle_root=data["merkle_root"],
                members=tuple(
                    MemberManifest.from_dict(member) for member in data["members"]
                ),
            )
        except KeyError as exc:
            raise ValidationError(f"malformed segment manifest: missing {exc}") from exc

    @cached_property
    def tree(self) -> MerkleTree:
        """The Merkle tree over the members' leaves, derived once (a
        manifest is frozen): each proof reads off it in O(log^2 n)."""
        tree = MerkleTree()
        for member in self.members:
            tree.append_hash(member.leaf_digest)
        return tree

    @cached_property
    def positions(self) -> dict[str, int]:
        """Record id -> index of its member (and of its leaf)."""
        return {member.record_id: n for n, member in enumerate(self.members)}

    def member(self, record_id: str) -> MemberManifest:
        if record_id not in self.positions:
            raise ValidationError(f"segment {self.segment_id} has no member {record_id}")
        return self.members[self.positions[record_id]]


def _compress_manifest(manifest: SegmentManifest) -> bytes:
    return zlib.compress(canonical_bytes(manifest.to_dict()), 9)


def _decompress_manifest(blob: bytes) -> SegmentManifest:
    # decompressobj stops at the zlib stream end, so the zero padding a
    # same-length manifest forge may leave behind is ignored here and
    # caught (if malicious) by the trusted-manifest comparison instead.
    decompressor = zlib.decompressobj()
    raw = decompressor.decompress(bytes(blob)) + decompressor.flush()
    return SegmentManifest.from_dict(canonical_loads(raw))


def build_segment(
    segment_id: str,
    sealed_at: float,
    members: list[tuple[str, bytes, int, float, tuple[dict[str, Any], ...]]],
) -> tuple[SegmentManifest, list[bytes]]:
    """Assemble a segment from sealed members.

    *members* entries are ``(record_id, sealed_blob, versions,
    expires_at, provenance)``.  Returns the trusted manifest plus the
    payload chunks ready for ``Journal.append_scattered`` — the sealed
    blobs go to the device by reference, never joined.
    """
    if not members:
        raise ValidationError("a segment must hold at least one member")
    tree = MerkleTree()
    entries: list[MemberManifest] = []
    offset = 0
    for record_id, blob, versions, expires_at, provenance in members:
        digest = leaf_hash(blob)
        tree.append_hash(digest)
        entries.append(
            MemberManifest(
                record_id=record_id,
                offset=offset,
                length=len(blob),
                leaf_digest=digest,
                versions=versions,
                expires_at=expires_at,
                provenance=tuple(provenance),
            )
        )
        offset += len(blob)
    manifest = SegmentManifest(
        segment_id=segment_id,
        sealed_at=sealed_at,
        merkle_root=tree.root(),
        members=tuple(entries),
    )
    if len(manifest.positions) < len(entries):
        raise ValidationError(f"segment {segment_id} holds a record twice")
    manifest.__dict__["tree"] = tree  # seeds the cached tree with this one
    zmanifest = _compress_manifest(manifest)
    chunks = [_PREFIX.pack(SEGMENT_MAGIC, len(zmanifest)), zmanifest]
    chunks += [blob for _, blob, _, _, _ in members]
    return manifest, chunks


def parse_segment(payload: bytes) -> tuple[SegmentManifest, int]:
    """Decode a segment frame payload; returns ``(manifest,
    member_area_offset)`` where the offset is within the payload."""
    if len(payload) < PREFIX_SIZE:
        raise IntegrityError("segment payload shorter than its prefix")
    magic, zlen = _PREFIX.unpack_from(payload, 0)
    if magic != SEGMENT_MAGIC:
        raise IntegrityError("segment payload has bad magic")
    if PREFIX_SIZE + zlen > len(payload):
        raise IntegrityError("segment manifest extends past the payload")
    try:
        manifest = _decompress_manifest(payload[PREFIX_SIZE : PREFIX_SIZE + zlen])
    except (zlib.error, ValueError, ValidationError) as exc:
        raise IntegrityError(f"segment manifest failed to decode: {exc}") from exc
    return manifest, PREFIX_SIZE + zlen


def reforge_manifest(
    payload: bytes, mutate: Callable[[dict[str, Any]], dict[str, Any]]
) -> bytes:
    """Adversary primitive: rewrite a segment's manifest *in place*.

    Decompresses the on-device manifest, applies *mutate* to its dict
    form, recompresses, and zero-pads back to the original compressed
    length so every member offset (and the frame length) is preserved —
    the tamper the layers above must catch is then purely semantic.
    The caller still owns recomputing the frame checksum
    (:meth:`Journal.forge_frame`), exactly as a knowledgeable insider
    would.  Raises :class:`ValidationError` when the mutated manifest
    compresses larger than the original region.
    """
    magic, zlen = _PREFIX.unpack_from(payload, 0)
    if magic != SEGMENT_MAGIC:
        raise ValidationError("not a segment payload")
    decompressor = zlib.decompressobj()
    raw = decompressor.decompress(bytes(payload[PREFIX_SIZE : PREFIX_SIZE + zlen]))
    raw += decompressor.flush()
    mutated = mutate(canonical_loads(raw))
    forged = zlib.compress(canonical_bytes(mutated), 9)
    if len(forged) > zlen:
        raise ValidationError(
            f"forged manifest does not fit: {len(forged)} > {zlen} bytes"
        )
    forged += b"\x00" * (zlen - len(forged))
    return payload[:PREFIX_SIZE] + forged + payload[PREFIX_SIZE + zlen :]
