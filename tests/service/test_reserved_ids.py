"""Ids bearing the object-id grammar's own tokens never get past the
front door: ``POST /v1/records`` answers ``400 validation_error`` and
nothing is written."""

import pytest

from tests.records.test_ids import HOSTILE_IDS
from tests.service.conftest import store_note, wire_login


@pytest.mark.parametrize("hostile", HOSTILE_IDS)
def test_store_with_a_hostile_record_id_is_400(service, actors, hostile):
    user, secret = actors["physician"]
    bearer = wire_login(service, user.user_id, secret)
    response = store_note(service, bearer, hostile, "pat-001")
    assert response.status == 400
    assert response.body["error"]["code"] == "validation_error"
    assert service.cluster.record_ids() == []
    # and a well-formed id still goes through
    assert store_note(service, bearer, "rec-001", "pat-001").status == 201
