"""A record body too deep to read back never gets past the front door:
``POST /v1/records`` answers 400 with exactly one ``API_REJECTED``
event and writes nothing, while a body at the bound round-trips
store -> read -> verify_integrity."""

from repro.audit.events import AuditAction
from repro.records.model import MAX_BODY_DEPTH
from repro.service.service import Request

from tests.records.test_model import nested
from tests.service.conftest import note_body, wire_login


def store(service, bearer, record_id, depth):
    payload = {**note_body(record_id, "pat-001"), "body": nested(depth)}
    return service.handle_request(Request("POST", "/v1/records", body=payload, bearer=bearer))


def test_a_700_deep_body_is_a_400_with_one_rejection_event(service, actors):
    user, secret = actors["physician"]
    bearer = wire_login(service, user.user_id, secret)
    before = len(service.audit_events())
    response = store(service, bearer, "rec-deep", 700)
    assert response.status == 400
    assert response.body["error"]["code"] == "validation_error"
    rejected = service.audit_events()[before:]
    assert [event.action for event in rejected] == [AuditAction.API_REJECTED]
    assert service.cluster.record_ids() == []


def test_a_body_at_the_bound_round_trips(service, actors):
    user, secret = actors["physician"]
    bearer = wire_login(service, user.user_id, secret)
    assert store(service, bearer, "rec-deep", MAX_BODY_DEPTH).status == 201
    read = service.handle_request(Request("GET", "/v1/records/rec-deep", bearer=bearer))
    assert read.status == 200
    assert read.body["body"] == nested(MAX_BODY_DEPTH)
    assert service.cluster.verify_integrity().ok
