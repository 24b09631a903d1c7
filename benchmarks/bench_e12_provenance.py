"""E12 — trustworthy provenance across systems (paper §4's final gap).

Paper claim: "current storage systems do not implement trustworthy
provenance", yet records that migrate between systems over decades need
a verifiable chain of custody.  Expected shape: custody verification
cost grows linearly with hops; forged transfers, custody gaps, and
digest changes are each rejected; the signed custody chain answers
"who ever held this record" across migrations.
"""

import pytest

from benchmarks.common import new_clock, print_table
from repro.crypto.hashing import sha256
from repro.crypto.rsa import generate_keypair
from repro.crypto.signatures import Signer, TrustStore
from repro.errors import ProvenanceError
from repro.provenance.chain import CustodyRegistry

KEYPAIRS = [generate_keypair(768) for _ in range(11)]


def _world(n_sites=6):
    trust = TrustStore()
    signers = [Signer(f"site-{i}", keypair=KEYPAIRS[i]) for i in range(n_sites)]
    registry = CustodyRegistry(trust)
    for signer in signers:
        registry.register_custodian(signer)
    return registry, signers


def _chain_of_hops(registry, signers, hops):
    digest = sha256(b"the record")
    registry.record_origin("rec-1", signers[0], digest, 0.0)
    for hop in range(hops):
        releasing = signers[hop % len(signers)]
        receiving = signers[(hop + 1) % len(signers)]
        registry.record_transfer(
            "rec-1", releasing, receiving.signer_id, digest, float(hop + 1), "migration"
        )
    return registry.chain_for("rec-1")


@pytest.mark.parametrize("hops", [2, 8, 32])
def test_e12_custody_verification_scaling(benchmark, hops):
    registry, signers = _world()
    chain = _chain_of_hops(registry, signers, hops)

    benchmark.pedantic(lambda: chain.verify(registry.trust), rounds=3, iterations=1)
    assert len(chain) == hops + 1


def test_e12_forgery_matrix(benchmark):
    import dataclasses

    rows = []

    # forged recipient
    registry, signers = _world()
    chain = _chain_of_hops(registry, signers, 3)
    chain._events[2] = dataclasses.replace(chain._events[2], to_custodian="mallory")
    try:
        chain.verify(registry.trust)
        rows.append(["edited recipient", "MISSED"])
    except ProvenanceError:
        rows.append(["edited recipient", "rejected"])

    # digest swap in transit
    registry, signers = _world()
    digest = sha256(b"the record")
    registry.record_origin("rec-1", signers[0], digest, 0.0)
    registry.record_transfer(
        "rec-1", signers[0], "site-1", sha256(b"tampered"), 1.0, "migration"
    )
    try:
        registry.chain_for("rec-1").verify(registry.trust)
        rows.append(["digest change in transit", "MISSED"])
    except ProvenanceError:
        rows.append(["digest change in transit", "rejected"])

    # custody gap (spliced-out hop)
    registry, signers = _world()
    chain = _chain_of_hops(registry, signers, 3)
    del chain._events[1]
    try:
        chain.verify(registry.trust)
        rows.append(["spliced-out hop", "MISSED"])
    except ProvenanceError:
        rows.append(["spliced-out hop", "rejected"])

    # release by a non-custodian
    registry, signers = _world()
    registry.record_origin("rec-1", signers[0], sha256(b"x"), 0.0)
    try:
        registry.record_transfer("rec-1", signers[2], "site-3", sha256(b"x"), 1.0, "theft")
        rows.append(["non-custodian release", "MISSED"])
    except ProvenanceError:
        rows.append(["non-custodian release", "rejected"])

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print_table("E12 custody forgery attempts", ["attack", "verdict"], rows)
    assert all(verdict == "rejected" for _, verdict in rows)


def test_e12_custodians_across_signed_transfers(benchmark):
    """One object handed across 11 sites by 10 signed transfers: the
    chain that proves each hand-off is the one that names every holder."""
    hops = 10
    registry, signers = _world(n_sites=hops + 1)
    chain = _chain_of_hops(registry, signers, hops)

    def trace():
        chain.verify(registry.trust)
        return chain.custodians()

    holders = benchmark.pedantic(trace, rounds=5, iterations=1)
    assert holders == [f"site-{i}" for i in range(hops + 1)]
    print(f"\nE12b: record traced through {len(holders)} custodians across "
          f"{len(chain) - 1} signed transfers")
