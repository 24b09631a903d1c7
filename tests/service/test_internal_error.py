"""An exception no handler expected is still answered and audited: the
opaque 500 ``internal_error``, with its text kept off the wire, out of
the audit chain and out of the log."""

from __future__ import annotations

import logging

from repro.audit.events import AuditAction
from repro.service.service import Request

from tests.service.conftest import wire_login


def test_an_escaped_exception_is_an_audited_opaque_500(service, actors, monkeypatch, caplog):
    user, secret = actors["physician"]
    bearer = wire_login(service, user.user_id, secret)

    phi = "patient Jane Roe, MRN 1234"

    def boom(*_args, **_kwargs):
        raise RuntimeError(phi)

    monkeypatch.setattr(service.cluster, "read", boom)
    before = len(service.audit_events())
    with caplog.at_level(logging.ERROR, logger="repro.service.service"):
        response = service.handle_request(
            Request("GET", "/v1/records/rec-001", bearer=bearer)
        )
    assert response.status == 500
    assert response.body["error"] == {
        "status": 500, "code": "internal_error", "message": "internal error"
    }
    events = service.audit_events()
    assert len(events) == before + 1
    assert events[-1].action is AuditAction.API_REJECTED
    assert events[-1].detail["code"] == "internal_error"
    assert "Jane Roe" not in str(events[-1].to_dict())
    assert "RuntimeError" in caplog.text and "_read_record" in caplog.text
    assert "Jane Roe" not in caplog.text
    assert service.admission.in_flight == 0
