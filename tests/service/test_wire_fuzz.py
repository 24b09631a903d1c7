"""Fuzzed wire bodies: the codec never fails any other way than
:class:`~repro.service.api.WireError`, and every body a client can send
to a body-taking route is answered below 500 with exactly one service
audit event."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.access.principals import Role, User
from repro.service import CuratorService, ServiceConfig, api
from repro.service.service import Request

from tests.service.conftest import note_body, wire_login
from tests.service.test_api import SAMPLES

#: Values a codec trips on: a bool where a number goes, an integer past
#: float range, blanks, empty containers.
NASTY = st.sampled_from([True, 0, -1, 10**400, "", "  ", [], {}])

#: Any JSON value, the nasty ones often.
JSON = NASTY | st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=10,
)


def mutated(valid: dict) -> st.SearchStrategy:
    """*valid* with up to two fields replaced or dropped, a stranger
    added, or something that is not the object at all."""
    keys = st.sampled_from(sorted(valid))
    replaced = st.dictionaries(keys, JSON, min_size=1, max_size=2).map(
        lambda changes: {**valid, **changes}
    )
    dropped = keys.map(lambda key: {k: v for k, v in valid.items() if k != key})
    stranger = st.tuples(st.text(max_size=8), JSON).map(
        lambda extra: {**valid, extra[0]: extra[1]}
    )
    return replaced | dropped | stranger | JSON


def overflowing(valid: dict) -> dict:
    """*valid* with every float field sent as an integer past float range."""
    return {k: 10**400 if isinstance(v, float) else v for k, v in valid.items()}


@pytest.mark.parametrize("wire_type", api.WIRE_TYPES, ids=lambda t: t.__name__)
def test_from_wire_returns_an_instance_or_raises_wire_error(wire_type):
    wire = SAMPLES[wire_type].to_wire()
    payloads = mutated(wire)
    if wire_type is api.ErrorBody:
        payloads |= mutated(wire["error"]).map(lambda error: {"error": error})

    @settings(max_examples=60, deadline=None)
    @given(payload=payloads)
    @example(payload=overflowing(wire))
    def check(payload):
        try:
            decoded = wire_type.from_wire(payload)
        except api.WireError:
            return
        assert isinstance(decoded, wire_type)

    check()


#: The routes that read a request body, with a well-formed body each for
#: the fuzzer to mutate.
BODY_ROUTES = {
    "/v1/auth/challenge": {"user_id": "dr-001"},
    "/v1/auth/login": {"user_id": "dr-001", "response": "00"},
    "/v1/records": note_body("rec-fuzz", "pat-001"),
    "/v1/verify": {"incremental": True},
    "/v1/break-glass": {"patient_id": "pat-001", "justification": "fuzzed"},
}


@pytest.mark.parametrize("path", sorted(BODY_ROUTES))
def test_any_body_is_answered_below_500_and_audited_once(cluster, path):
    service = CuratorService(
        cluster, ServiceConfig(port=0, rate_capacity=1e9, rate_refill_per_second=1e9)
    )
    user = User.make(
        "dr-001", "Dr One", [Role.PHYSICIAN], "cardiology", treating={"pat-001"}
    )
    bearer = wire_login(service, user.user_id, service.enroll(user))
    valid = BODY_ROUTES[path]

    def answer(body):
        before = len(service.audit_events())
        response = service.handle_request(Request("POST", path, body=body, bearer=bearer))
        assert response.status < 500, (body, response.body)
        assert len(service.audit_events()) == before + 1, body

    deep: list = []
    for _ in range(600):  # past the recursion limit of a recursive walk
        deep = [deep]
    answer({**valid, "body": {"x": deep}})

    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(body=mutated(valid))
    @example(body=overflowing(valid))
    def check(body):
        answer(body)

    check()
    service.verify_service_audit()
