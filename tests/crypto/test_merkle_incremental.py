"""Incremental Merkle roots must equal the RFC 6962 recursive rebuild."""

import math

import pytest

from repro.audit.anchors import AnchorWitness, publish_anchor
from repro.audit.events import AuditAction
from repro.audit.log import AuditLog
from repro.crypto import merkle
from repro.crypto.merkle import (
    EMPTY_ROOT,
    MerkleTree,
    verify_consistency,
    verify_inclusion,
)
from repro.crypto.rsa import generate_keypair
from repro.crypto.signatures import Signer
from repro.util.clock import SimulatedClock


def _leaves(n):
    return [f"event-{i}".encode() for i in range(n)]


def test_incremental_root_matches_rebuild_at_every_size():
    incremental = MerkleTree()
    assert incremental.root() == EMPTY_ROOT
    for i, leaf in enumerate(_leaves(33)):
        incremental.append(leaf)
        rebuilt = MerkleTree(_leaves(i + 1))
        assert incremental.root() == rebuilt.root(), f"size {i + 1}"
        assert incremental.root_at(i + 1) == incremental.root()


@pytest.fixture()
def node_hashes(monkeypatch):
    """Counts calls to the node hash: cost by count, not by clock."""
    calls = [0]
    real = merkle._node_hash

    def counting(left, right):
        calls[0] += 1
        return real(left, right)

    monkeypatch.setattr(merkle, "_node_hash", counting)
    return calls


def test_each_node_is_hashed_once_and_proofs_stay_logarithmic(node_hashes):
    n = 2**14 + 37
    tree = MerkleTree(_leaves(n))
    # one hash per internal node of the perfect subtrees, none repeated
    assert node_hashes[0] == n - bin(n).count("1")

    def cost(call, *args):
        node_hashes[0] = 0
        call(*args)
        return node_hashes[0]

    budget = 2 * math.log2(n) ** 2
    for size in (1, 2**13, 2**14 - 1, 2**14, 12345, n - 1, n):
        assert cost(tree.root_at, size) <= budget, size
        assert cost(tree.prove_consistency, size) <= budget, size
        for index in (0, size // 2, size - 1):
            assert cost(tree.prove_inclusion_at, index, size) <= budget, (index, size)


def test_witness_check_costs_log_n_hashes_per_anchor(node_hashes):
    clock = SimulatedClock(start=0.0)
    log = AuditLog(clock=clock)
    signer = Signer("hospital-A", keypair=generate_keypair(768))
    witness = AnchorWitness(signer.verifier())
    for _ in range(50):
        for i in range(64):
            log.append(AuditAction.RECORD_READ, "dr-a", f"rec-{i}")
        witness.receive(publish_anchor(log, signer, clock.now()), log)
    node_hashes[0] = 0
    witness.check_log(log)  # every anchor rechecked, no memo of earlier passes
    assert 0 < node_hashes[0] <= 50 * math.log2(len(log))


def test_inclusion_proofs_verify_against_incremental_root():
    tree = MerkleTree(_leaves(21))
    root = tree.root()
    for index in (0, 7, 15, 20):
        proof = tree.prove_inclusion(index)
        verify_inclusion(_leaves(21)[index], proof, root)


def test_consistency_proof_spans_incremental_appends():
    tree = MerkleTree(_leaves(12))
    old_root = tree.root()
    for leaf in _leaves(20)[12:]:
        tree.append(leaf)
    proof = tree.prove_consistency(12)
    verify_consistency(old_root, tree.root(), 12, 20, proof)


def test_historical_proof_after_more_appends():
    tree = MerkleTree(_leaves(10))
    anchored_root = tree.root()
    for leaf in _leaves(17)[10:]:
        tree.append(leaf)
    proof = tree.prove_inclusion_at(3, 10)
    verify_inclusion(_leaves(10)[3], proof, anchored_root)
