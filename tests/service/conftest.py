"""Shared fixtures for the wire-service suite.

Most tests drive :meth:`CuratorService.handle_request` in-process —
the full pipeline (routing, sessions, admission, authorization, audit)
without a socket.  The transport-specific tests (slow client, drain,
keep-alive) start a real :class:`ServiceServer` on port 0.
"""

from __future__ import annotations

import pytest

from repro.access.principals import Role, User
from repro.cluster import CuratorCluster
from repro.core.config import CuratorConfig
from repro.crypto.rsa import generate_keypair
from repro.service import CuratorService, ServiceConfig
from repro.service.auth import Challenge, respond
from repro.service.service import Request
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
    return CuratorConfig(master_key=MASTER_KEY, clock=clock, signing_keypair=keypair)


@pytest.fixture()
def cluster(config):
    built = CuratorCluster(config, shards=2)
    yield built
    built.close()


@pytest.fixture()
def service(cluster):
    return CuratorService(cluster, ServiceConfig(port=0))


@pytest.fixture()
def actors(service):
    """Enrolled principals: ``{key: (user, secret)}``."""
    users = {
        "physician": User.make(
            "dr-001", "Dr One", [Role.PHYSICIAN], "cardiology",
            treating={"pat-001", "pat-002"},
        ),
        "nurse": User.make("nurse-001", "Nurse One", [Role.NURSE], "er"),
        "officer": User.make(
            "po-001", "Privacy Officer", [Role.PRIVACY_OFFICER], "privacy"
        ),
    }
    return {key: (user, service.enroll(user)) for key, user in users.items()}


def wire_login(service: CuratorService, user_id: str, secret: bytes) -> str:
    """Run the challenge-response protocol through the wire pipeline;
    returns the bearer token."""
    challenged = service.handle_request(
        Request("POST", "/v1/auth/challenge", body={"user_id": user_id})
    )
    assert challenged.status == 200, challenged.body
    proof = respond(
        secret,
        Challenge(
            user_id=user_id,
            nonce=bytes.fromhex(challenged.body["nonce"]),
            issued_at=challenged.body["issued_at"],
        ),
    )
    logged_in = service.handle_request(
        Request(
            "POST",
            "/v1/auth/login",
            body={"user_id": user_id, "response": proof.hex()},
        )
    )
    assert logged_in.status == 200, logged_in.body
    return logged_in.body["token"]


def note_body(record_id: str, patient_id: str, text: str = "sinus rhythm") -> dict:
    return {
        "record_id": record_id,
        "patient_id": patient_id,
        "record_type": "clinical_note",
        "created_at": 1.17e9,
        "body": {"author": "dr-001", "specialty": "cardiology", "text": text},
    }


def store_note(service, bearer, record_id, patient_id, text="sinus rhythm"):
    return service.handle_request(
        Request(
            "POST",
            "/v1/records",
            body=note_body(record_id, patient_id, text),
            bearer=bearer,
        )
    )
