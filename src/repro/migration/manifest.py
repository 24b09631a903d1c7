"""Signed migration manifests.

A manifest commits the source store's exact live contents at migration
time: sorted (object_id, digest) pairs, their Merkle root, the count,
and the source's signature over all of it.  The destination can verify
any claim about the migrated set against this one artifact.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.merkle import MerkleTree
from repro.crypto.signatures import SignedPayload, Signer, TrustStore
from repro.errors import MigrationError
from repro.util.encoding import canonical_bytes
from repro.worm.store import WormStore


@dataclass(frozen=True)
class MigrationManifest:
    """The source's signed statement of what is being migrated."""

    source_id: str
    created_at: float
    entries: tuple[tuple[str, bytes], ...]  # sorted (object_id, digest)
    merkle_root: bytes
    signed: SignedPayload

    @property
    def object_count(self) -> int:
        return len(self.entries)

    def digest_for(self, object_id: str) -> bytes:
        for entry_id, digest in self.entries:
            if entry_id == object_id:
                return digest
        raise MigrationError(f"object {object_id} is not in the manifest")

    def object_ids(self) -> list[str]:
        return [entry_id for entry_id, _ in self.entries]


def entries_tree(entries: list[tuple[str, bytes]]) -> MerkleTree:
    """The Merkle tree over ``(object_id, digest)`` entries, in order
    (a manifest's, and a backup snapshot's over its sorted digests)."""
    tree = MerkleTree()
    for object_id, digest in entries:
        tree.append(entry_leaf(object_id, digest))
    return tree


def build_manifest(
    store: WormStore, signer: Signer, timestamp: float
) -> MigrationManifest:
    """Enumerate the store's live objects and sign the manifest."""
    return build_entries_manifest(
        [(object_id, store.metadata(object_id).content_digest) for object_id in store.object_ids()],
        signer,
        timestamp,
    )


def build_entries_manifest(
    entries: list[tuple[str, bytes]], signer: Signer, timestamp: float
) -> MigrationManifest:
    """Sign a manifest over caller-supplied (object_id, digest) pairs.

    The per-patient rebalancer uses this: the moved set is one patient's
    extents, not a whole store, and the digests commit to the
    *plaintext* content (version dicts, attachment bytes) so the claim
    survives re-encryption under the destination shard's keys."""
    entries = sorted(entries)
    root = entries_tree(entries).root()
    signed = signer.sign(
        {
            "source_id": signer.signer_id,
            "created_at": timestamp,
            "entries": [[object_id, digest] for object_id, digest in entries],
            "merkle_root": root,
        }
    )
    return MigrationManifest(
        source_id=signer.signer_id,
        created_at=timestamp,
        entries=tuple(entries),
        merkle_root=root,
        signed=signed,
    )


def entry_leaf(object_id: str, digest: bytes) -> bytes:
    """The Merkle leaf encoding of one manifest entry (shared by the
    root computation and per-entry inclusion proofs)."""
    return canonical_bytes({"id": object_id, "digest": digest})


def entry_inclusion_proofs(manifest: MigrationManifest) -> dict[str, object]:
    """``object_id -> MerkleProof`` of membership in the manifest root."""
    proofs = entries_tree(manifest.entries).prove_inclusion_all()
    return {object_id: proof for (object_id, _), proof in zip(manifest.entries, proofs)}


def verify_manifest(manifest: MigrationManifest, trust: TrustStore) -> None:
    """Check the manifest's signature and internal consistency."""
    payload = trust.verify(manifest.signed)
    expected_entries = [[object_id, digest] for object_id, digest in manifest.entries]
    if payload["entries"] != expected_entries:
        raise MigrationError("manifest entries do not match the signed payload")
    if payload["merkle_root"] != manifest.merkle_root:
        raise MigrationError("manifest root does not match the signed payload")
    if payload["source_id"] != manifest.source_id:
        raise MigrationError("manifest source does not match the signed payload")
    if entries_tree(manifest.entries).root() != manifest.merkle_root:
        raise MigrationError("manifest root does not match its entries")
