"""Shared fixtures for the cluster suite.

RSA keygen is the slow part of building an engine; one module-scoped
keypair plays the HSM-held site identity for every cluster under test,
mirroring the production setup where shards share the signing HSM.
"""

import pytest

from repro.cluster import CuratorCluster
from repro.core.config import CuratorConfig
from repro.crypto.rsa import generate_keypair
from repro.records.model import ClinicalNote
from repro.util import SimulatedClock

MASTER_KEY = bytes(range(32))


@pytest.fixture(scope="session")
def keypair():
    return generate_keypair(768)


@pytest.fixture()
def clock():
    return SimulatedClock(start=1.17e9)


@pytest.fixture()
def config(clock, keypair):
    return CuratorConfig(
        master_key=MASTER_KEY, clock=clock, signing_keypair=keypair
    )


@pytest.fixture()
def cluster(config):
    return CuratorCluster(config, shards=3)


def make_note(record_id: str, patient_id: str, created_at: float,
              text: str = "routine cardiology followup") -> ClinicalNote:
    return ClinicalNote.create(
        record_id=record_id,
        patient_id=patient_id,
        created_at=created_at,
        author="dr-cluster",
        specialty="cardiology",
        text=text,
    )
