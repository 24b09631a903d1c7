"""Merkle trees with inclusion and consistency proofs.

* **Audit anchoring** — the audit log periodically commits its entries'
  Merkle root to an external witness; consistency proofs show a later
  root extends an earlier one (no history rewriting).
* **Manifests** (migration, backup, cold segments) — the publisher signs
  the root over every member's digest; recomputing it proves
  completeness, and any single lost or altered member changes it.
* **Aggregated signatures** (batch custody events, move proofs) — one
  signed root, one inclusion path per member.

The construction follows RFC 6962 (Certificate Transparency) in shape —
an unbalanced tree recurses on the largest power of two smaller than n —
but is instantiated over BLAKE2b-256 with *personalization*-based
leaf/node domain separation instead of SHA-256 with prefix bytes.
BLAKE2b's lower per-call overhead wins on the 32–64 byte node inputs
these trees hash in their update loops, and personalization means the
append carry streams child digests straight into the hasher with no
``prefix + left + right`` concatenation.  Leaves may be any buffer
(``bytes``, ``bytearray``, ``memoryview``).

:class:`MerkleTree` keeps every perfect-subtree root its appends compute,
so a root or historical root costs O(log n) hashes and an inclusion path
or consistency proof O(log^2 n), however long the anchored log has grown.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.errors import IntegrityError, ValidationError

_LEAF_PERSON = b"merkle/leaf"
_NODE_PERSON = b"merkle/node"

EMPTY_ROOT = hashlib.blake2b(b"", digest_size=32).digest()
"""Root of the empty tree (hash of the empty string, as in RFC 6962)."""


def leaf_hash(data: bytes) -> bytes:
    """The domain-separated leaf hash of *data*: public so verifiers can
    compare independently derived bytes against a tree's stored leaf
    digests (:meth:`MerkleTree.leaf_digest`) without building a tree."""
    return hashlib.blake2b(data, digest_size=32, person=_LEAF_PERSON).digest()


def _node_hash(left: bytes, right: bytes) -> bytes:
    hasher = hashlib.blake2b(digest_size=32, person=_NODE_PERSON)
    hasher.update(left)
    hasher.update(right)
    return hasher.digest()


def _largest_power_of_two_below(n: int) -> int:
    """Largest power of two strictly less than n (n >= 2)."""
    return 1 << ((n - 1).bit_length() - 1)


def _reference_root(hashes: list[bytes]) -> bytes:
    """RFC 6962 MTH by plain recursion over leaf hashes, O(n) hashes a
    call: what the differential tests hold :class:`MerkleTree` to."""
    if len(hashes) == 1:
        return hashes[0]
    split = _largest_power_of_two_below(len(hashes))
    return _node_hash(_reference_root(hashes[:split]), _reference_root(hashes[split:]))


@dataclass(frozen=True)
class MerkleProof:
    """Inclusion proof: the path of sibling hashes from a leaf to the
    root, as ``(sibling_digest, sibling_is_left)`` entries."""

    leaf_index: int
    tree_size: int
    path: tuple[tuple[bytes, bool], ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        """Serializable form (for embedding in manifests/reports)."""
        return {
            "leaf_index": self.leaf_index,
            "tree_size": self.tree_size,
            "path": [[digest, is_left] for digest, is_left in self.path],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MerkleProof":
        return cls(
            leaf_index=data["leaf_index"],
            tree_size=data["tree_size"],
            path=tuple((digest, bool(is_left)) for digest, is_left in data["path"]),
        )


class MerkleTree:
    """An append-only Merkle tree over byte-string leaves.

    ``_levels[k][i]`` is the root of the perfect subtree over leaves
    ``[i << k, (i + 1) << k)``; row 0 holds the leaf hashes.  Appends
    fill the rows with the binary-counter carry CT log servers use
    (n - popcount(n) node hashes for n leaves, each computed once), and
    :meth:`_range_root` answers every root and proof out of them.
    """

    def __init__(self, leaves: list[bytes] | None = None) -> None:
        self._levels: list[list[bytes]] = [[]]
        for leaf in leaves or []:
            self.append(leaf)

    def __len__(self) -> int:
        return len(self._levels[0])

    def _push_leaf(self, leaf_hash: bytes) -> int:
        levels = self._levels
        levels[0].append(leaf_hash)
        # Binary-counter carry: a row that just reached an even length
        # completed a pair, whose parent joins the row above.
        k, count = 0, len(levels[0])
        while count & 1 == 0:
            parent = _node_hash(levels[k][-2], levels[k][-1])
            k, count = k + 1, count >> 1
            if k == len(levels):
                levels.append([])
            levels[k].append(parent)
        return len(levels[0]) - 1

    def append(self, leaf: bytes) -> int:
        """Append a leaf; returns its index."""
        if not isinstance(leaf, (bytes, bytearray, memoryview)):
            raise ValidationError("Merkle leaves must be bytes")
        return self._push_leaf(leaf_hash(leaf))

    def append_hash(self, leaf_hash: bytes) -> int:
        """Append a pre-hashed leaf (32 bytes, already leaf-hashed)."""
        if len(leaf_hash) != 32:
            raise ValidationError("leaf hash must be 32 bytes")
        return self._push_leaf(bytes(leaf_hash))

    def _range_root(self, lo: int, hi: int) -> bytes:
        """RFC 6962 MTH over leaves ``[lo, hi)``, ``lo < hi``: a look-up
        when the range is perfect, else its perfect left part hashed
        with the rest — at most log2(hi - lo) node hashes, no slice.
        *lo* must be a multiple of the range's largest power of two, as
        it is for every range the recursions below split off ``[0,
        size)``: a left child keeps its parent's start, a right child
        starts one split further on and is no longer than the split."""
        k = (hi - lo).bit_length() - 1
        left = self._levels[k][lo >> k]
        if lo + (1 << k) == hi:
            return left
        return _node_hash(left, self._range_root(lo + (1 << k), hi))

    def root(self) -> bytes:
        """Current root digest (EMPTY_ROOT for the empty tree)."""
        return self.root_at(len(self))

    def root_at(self, size: int) -> bytes:
        """Root of the historical tree containing only the first *size* leaves."""
        if size < 0 or size > len(self):
            raise ValidationError(f"size {size} out of range 0..{len(self)}")
        return self._range_root(0, size) if size else EMPTY_ROOT

    def leaf_digest(self, index: int) -> bytes:
        """The stored leaf hash at *index* (already leaf-hashed).  Audit
        verification holds device-derived bytes to these trusted
        in-memory digests: a journaled frame whose re-derived
        :func:`leaf_hash` disagrees was tampered with on the raw device."""
        if index < 0 or index >= len(self):
            raise ValidationError(f"leaf index {index} out of range 0..{len(self) - 1}")
        return self._levels[0][index]

    def prove_inclusion(self, index: int) -> MerkleProof:
        """Produce an inclusion proof for the leaf at *index*."""
        return self.prove_inclusion_at(index, len(self))

    def prove_inclusion_all(self) -> list[MerkleProof]:
        """Inclusion proofs for every leaf against the current root
        (aggregated batch signing attaches one to every record)."""
        return [self.prove_inclusion(index) for index in range(len(self))]

    def prove_inclusion_at(self, index: int, size: int) -> MerkleProof:
        """Inclusion proof against the *historical* tree of the first
        ``size`` leaves (proofs must match the root they verify against,
        e.g. a previously published anchor)."""
        if not 0 <= index < size <= len(self):
            raise ValidationError(f"no leaf {index} in the first {size} of {len(self)}")
        path: list[tuple[bytes, bool]] = []
        lo, hi = 0, size
        while hi - lo > 1:  # walks root to leaf; the path reads leaf to root
            split = lo + _largest_power_of_two_below(hi - lo)
            if index < split:
                path.append((self._range_root(split, hi), False))
                hi = split
            else:
                path.append((self._range_root(lo, split), True))
                lo = split
        return MerkleProof(leaf_index=index, tree_size=size, path=tuple(reversed(path)))

    def prove_consistency(self, old_size: int) -> list[bytes]:
        """Consistency proof that the current tree extends the tree of
        *old_size* leaves (RFC 6962 §2.1.2, simplified recursive form)."""
        n = len(self)
        if old_size < 0 or old_size > n:
            raise ValidationError(f"old_size {old_size} out of range 0..{n}")
        if old_size == 0 or old_size == n:
            return []
        proof: list[bytes] = []

        def subproof(lo: int, hi: int, m: int, complete: bool) -> None:
            # Proves the subtree over [lo, hi) is consistent with its
            # first (m - lo) leaves. `complete` means the old subtree
            # equals the whole [lo, split) range at some ancestor.
            if m == hi:
                if not complete:
                    proof.append(self._range_root(lo, hi))
                return
            split = lo + _largest_power_of_two_below(hi - lo)
            if m <= split:
                subproof(lo, split, m, complete)
                proof.append(self._range_root(split, hi))
            else:
                subproof(split, hi, m, False)
                proof.append(self._range_root(lo, split))

        subproof(0, n, old_size, True)
        return proof


def verify_inclusion(leaf: bytes, proof: MerkleProof, root: bytes) -> None:
    """Verify an inclusion proof; raises :class:`IntegrityError` on failure."""
    digest = leaf_hash(leaf)
    for sibling, sibling_is_left in proof.path:
        if sibling_is_left:
            digest = _node_hash(sibling, digest)
        else:
            digest = _node_hash(digest, sibling)
    if digest != root:
        raise IntegrityError(
            f"Merkle inclusion proof failed for leaf index {proof.leaf_index}"
        )


def verify_consistency(
    old_root: bytes,
    new_root: bytes,
    old_size: int,
    new_size: int,
    proof: list[bytes],
) -> None:
    """Verify a consistency proof produced by :meth:`MerkleTree.prove_consistency`.

    Raises :class:`IntegrityError` if *new_root* does not extend *old_root*.
    """
    if old_size == 0:
        return  # the empty tree is a prefix of everything
    if old_size == new_size:
        if old_root != new_root:
            raise IntegrityError("equal-size trees with different roots")
        return
    if old_size > new_size:
        raise IntegrityError("old tree is larger than new tree")

    # Reconstruct both roots from the proof hashes by replaying the
    # same recursion shape used by prove_consistency.
    proof_iter = iter(proof)

    def reconstruct(lo: int, hi: int, m: int, complete: bool) -> tuple[bytes, bytes]:
        # returns (old_subtree_root, new_subtree_root) for range [lo, hi)
        if m == hi:
            if complete:
                # verifier knows this subtree root: it's old_root itself
                return old_root, old_root
            digest = next(proof_iter)
            return digest, digest
        split = lo + _largest_power_of_two_below(hi - lo)
        if m <= split:
            # The old tree's first m leaves lie entirely in the left child,
            # so the old root of this range is the old root of the left child.
            old_left, new_left = reconstruct(lo, split, m, complete)
            right = next(proof_iter)
            return old_left, _node_hash(new_left, right)
        old_right, new_right = reconstruct(split, hi, m, False)
        left = next(proof_iter)
        return _node_hash(left, old_right), _node_hash(left, new_right)

    try:
        computed_old, computed_new = reconstruct(0, new_size, old_size, True)
    except StopIteration:
        raise IntegrityError("consistency proof truncated") from None
    remaining = list(proof_iter)
    if remaining:
        raise IntegrityError("consistency proof has extra hashes")
    if computed_old != old_root:
        raise IntegrityError("consistency proof does not reproduce the old root")
    if computed_new != new_root:
        raise IntegrityError("consistency proof does not reproduce the new root")
