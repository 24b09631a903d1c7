"""A value typed into the wrong field may be PHI.  A rejected request's
error names the field and the reason, and its ``API_REJECTED`` audit
event keeps the code, the handler and the field name: never the value.
The service audit chain is append-only and never disposed, so a value
that reached it could never be destroyed."""

from repro.audit.events import AuditAction
from repro.service.service import Request

from tests.service.conftest import note_body, wire_login

PHI = "John Smith SSN 123-45-6789"


def test_a_phi_record_type_reaches_neither_the_400_nor_the_audit_device(service, actors):
    user, secret = actors["physician"]
    bearer = wire_login(service, user.user_id, secret)
    before = len(service.audit_events())
    payload = {**note_body("rec-phi", "pat-001"), "record_type": PHI}
    response = service.handle_request(
        Request("POST", "/v1/records", body=payload, bearer=bearer)
    )
    assert response.status == 400
    assert response.body["error"]["code"] == "validation_error"
    assert "record_type" in response.body["error"]["message"]
    assert PHI not in str(response.body)

    rejected = service.audit_events()[before:]
    assert [event.action for event in rejected] == [AuditAction.API_REJECTED]
    assert rejected[0].detail == {
        "method": "POST", "status": 400, "code": "validation_error",
        "handler": "store_record", "field": "record_type",
    }
    raw = service._audit.device.raw_dump()
    assert b"store_record" in raw  # the event itself is on the device
    for needle in (PHI, "John Smith", "123-45-6789"):
        assert needle.encode() not in raw
    service.verify_service_audit()
