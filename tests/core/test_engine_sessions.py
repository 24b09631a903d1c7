"""Session-authenticated access to the engine: a bearer session from the
wire service's front door, the engine's own decision behind it."""

import dataclasses

import pytest

from repro.access.principals import Role, User
from repro.audit.events import AuditAction
from repro.cluster import CuratorCluster
from repro.core import CuratorConfig
from repro.crypto.rsa import generate_keypair
from repro.records.model import ClinicalNote
from repro.service import CuratorService, ServiceConfig
from repro.service.auth import DEFAULT_SESSION_SECONDS, decode_token, encode_token
from repro.service.service import Request
from repro.util.clock import SimulatedClock

from tests.service.conftest import wire_login

MASTER = bytes(range(32))


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(768)


@pytest.fixture()
def world(keypair):
    clock = SimulatedClock(start=1.17e9)
    cluster = CuratorCluster(
        CuratorConfig(master_key=MASTER, clock=clock, signing_keypair=keypair),
        shards=1,
    )
    service = CuratorService(cluster, ServiceConfig(port=0))
    secret = service.enroll(
        User.make("dr-a", "Dr A", [Role.PHYSICIAN], "oncology", treating={"pat-1"})
    )
    note = ClinicalNote.create(
        record_id="rec-1",
        patient_id="pat-1",
        created_at=clock.now(),
        author="dr-a",
        specialty="oncology",
        text="routine followup",
    )
    cluster.store(note, author_id="dr-a")
    yield service, clock, secret
    cluster.close()


def read(service, bearer):
    return service.handle_request(Request("GET", "/v1/records/rec-1", bearer=bearer))


def engine_actions(service):
    return [event["action"] for event in service.cluster.audit_events()]


def test_session_read_happy_path(world):
    service, _clock, secret = world
    response = read(service, wire_login(service, "dr-a", secret))
    assert response.status == 200
    assert response.body["record_id"] == "rec-1"
    # the session's use is in the service chain, the read in the engine's
    assert service.audit_events()[-1].action is AuditAction.API_REQUEST
    assert "record_read" in engine_actions(service)


def test_expired_session_denied_and_audited(world):
    service, clock, secret = world
    bearer = wire_login(service, "dr-a", secret)
    clock.advance(DEFAULT_SESSION_SECONDS + 1)
    response = read(service, bearer)
    assert response.status == 401
    assert response.body["error"]["code"] == "session_expired"
    rejected = service.audit_events()[-1]
    assert rejected.action is AuditAction.API_REJECTED
    assert rejected.detail["rule"] == "deny:session:expired"
    assert "record_read" not in engine_actions(service)


def test_forged_session_denied(world):
    service, _clock, secret = world
    bearer = wire_login(service, "dr-a", secret)
    forged = encode_token(
        dataclasses.replace(decode_token(bearer), user_id="dr-evil")
    )
    response = read(service, forged)
    assert response.status == 401
    assert response.body["error"]["rule_id"] == "deny:session:forged-token"


def test_enroll_user_registers_and_enrolls(world):
    service, _clock, _secret = world
    secret = service.enroll(
        User.make("rn-1", "Nurse", [Role.NURSE], treating=["pat-1"])
    )
    assert service.cluster.shards[0].principal("rn-1") is not None
    response = read(service, wire_login(service, "rn-1", secret))
    assert response.status == 200


def test_session_of_valid_user_still_respects_rbac(world):
    service, _clock, _secret = world
    # A media technician with a perfectly valid session still has no
    # record-read capability: authentication is not authorization.
    secret = service.enroll(User.make("tech", "T", [Role.MEDIA_TECHNICIAN]))
    response = read(service, wire_login(service, "tech", secret))
    assert response.status == 403
    assert response.body["error"]["code"] == "access_denied"
    assert "access_denied" in engine_actions(service)


def test_billing_session_gets_minimum_necessary_view(world):
    service, _clock, _secret = world
    # Billing reads for payment, but the narrative is projected away.
    service.enroll(User.make("bill", "B", [Role.BILLING]))
    assert service.cluster.read_view("rec-1", actor_id="bill") == {}
