"""Admission control: rate limits, queue bounds, slow clients, drain."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.service import CuratorService, ServiceConfig, ServiceServer
from repro.service.admission import AdmissionController, TokenBucket
from repro.service.service import Request
from repro.util import SimulatedClock

from tests.service.conftest import store_note, wire_login


# ---------------------------------------------------------------------------
# white-box: the token bucket and the controller
# ---------------------------------------------------------------------------


def test_token_bucket_burst_then_refill():
    bucket = TokenBucket(capacity=3, refill_per_second=1.0, now=0.0)
    assert [bucket.take(0.0) for _ in range(4)] == [True, True, True, False]
    assert bucket.retry_after(0.0) == pytest.approx(1.0)
    assert bucket.take(2.0) is True  # two seconds refilled two tokens
    assert bucket.take(2.0) is True
    assert bucket.take(2.0) is False


def test_bucket_never_exceeds_capacity():
    bucket = TokenBucket(capacity=2, refill_per_second=100.0, now=0.0)
    assert bucket.take(1000.0) and bucket.take(1000.0)
    assert not bucket.take(1000.0)


def _controller(clock, **overrides):
    defaults = dict(queue_limit=2, rate_capacity=10.0, rate_refill_per_second=0.0)
    defaults.update(overrides)
    return AdmissionController(clock, **defaults)


def test_queue_full_is_a_policy_decision():
    clock = SimulatedClock(start=0.0)
    controller = _controller(clock)
    first, _ = controller.admit("a")
    second, _ = controller.admit("a")
    assert first.allowed and second.allowed
    denied, _ = controller.admit("a")
    assert not denied.allowed
    assert denied.rule_id == "deny:service:queue-full"
    controller.release()
    again, _ = controller.admit("a")
    assert again.allowed


def test_rate_limit_is_per_actor_with_retry_after():
    clock = SimulatedClock(start=0.0)
    controller = _controller(
        clock, queue_limit=100, rate_capacity=2.0, rate_refill_per_second=0.5
    )
    assert controller.admit("a")[0].allowed
    assert controller.admit("a")[0].allowed
    denied, retry_after = controller.admit("a")
    assert not denied.allowed
    assert denied.rule_id == "deny:service:rate-limited"
    assert retry_after == pytest.approx(2.0)
    # another actor has their own bucket
    assert controller.admit("b")[0].allowed
    # time refills
    clock.advance(2.0)
    assert controller.admit("a")[0].allowed


def test_draining_denies_admission():
    clock = SimulatedClock(start=0.0)
    controller = _controller(clock)
    controller.start_draining()
    denied, _ = controller.admit("a")
    assert not denied.allowed
    assert denied.rule_id == "deny:service:draining"


def test_denied_admission_consumes_nothing():
    clock = SimulatedClock(start=0.0)
    controller = _controller(clock, queue_limit=1, rate_capacity=5.0)
    assert controller.admit("a")[0].allowed
    for _ in range(10):  # 503s while the queue is full
        assert not controller.admit("a")[0].allowed
    controller.release()
    # the queue-full denials burned no rate tokens: 4 of 5 remain
    for _ in range(4):
        decision, _ = controller.admit("a")
        assert decision.allowed, "queue-full denials must not charge the bucket"
        controller.release()


# ---------------------------------------------------------------------------
# through the wire pipeline
# ---------------------------------------------------------------------------


def test_burst_over_budget_yields_429_with_retry_after(cluster):
    service = CuratorService(
        cluster,
        ServiceConfig(port=0, rate_capacity=5.0, rate_refill_per_second=0.0),
    )
    from repro.access.principals import Role, User

    secret = service.enroll(
        User.make("dr-burst", "Dr B", [Role.PHYSICIAN], "er", treating={"pat-001"})
    )
    bearer = wire_login(service, "dr-burst", secret)
    statuses = [
        service.handle_request(
            Request("GET", "/v1/records/rec-x", bearer=bearer)
        ).status
        for _ in range(8)
    ]
    # 5 admitted (404: no such record), 3 rate-limited; every request accounted
    assert statuses.count(404) == 5
    assert statuses.count(429) == 3
    limited = service.handle_request(Request("GET", "/v1/records/rec-x", bearer=bearer))
    assert limited.status == 429
    assert limited.body["error"]["code"] == "rate_limited"
    assert limited.body["error"]["rule_id"] == "deny:service:rate-limited"
    assert int(limited.headers["Retry-After"]) >= 1


def test_concurrent_burst_all_requests_accounted(cluster):
    """Threads hammering one service: every request gets exactly one of
    2xx/429, nothing hangs, and the queue drains back to zero."""
    service = CuratorService(
        cluster,
        ServiceConfig(port=0, rate_capacity=20.0, rate_refill_per_second=0.0,
                      queue_limit=8),
    )
    from repro.access.principals import Role, User

    secret = service.enroll(
        User.make("dr-c", "Dr C", [Role.PHYSICIAN], "er", treating={"pat-001"})
    )
    bearer = wire_login(service, "dr-c", secret)
    store_note(service, bearer, "rec-001", "pat-001")

    statuses: list[int] = []
    lock = threading.Lock()

    def worker():
        response = service.handle_request(
            Request("GET", "/v1/records/rec-001", bearer=bearer)
        )
        with lock:
            statuses.append(response.status)

    threads = [threading.Thread(target=worker) for _ in range(30)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert len(statuses) == 30
    assert set(statuses) <= {200, 429, 503}
    # 20-token budget minus login/store already spent
    assert statuses.count(200) <= 20
    assert statuses.count(200) >= 1
    assert service.admission.in_flight == 0


def test_slow_client_gets_408_and_audit_event(cluster):
    """One deadline from the first byte, not one per ``recv``: a client
    that stalls and one that trickles a byte every 0.1 s both get their
    408 well within a second of a 0.3 s timeout."""
    service = CuratorService(cluster, ServiceConfig(port=0, slow_client_timeout=0.3))
    server = ServiceServer(service).start()
    head = b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n"  # never finishes
    stalled = [head]
    trickled = [bytes([byte]) for byte in head + b"X-Trickle: " + b"a" * 100]
    try:
        for segments in (stalled, trickled):
            before = len(service.audit_events())
            data = b""
            with socket.create_connection(("127.0.0.1", server.port), timeout=5) as raw:
                raw.settimeout(0.1)
                start = time.monotonic()
                for segment in segments:
                    raw.sendall(segment)
                    try:
                        data = raw.recv(65536)
                        break
                    except TimeoutError:
                        pass
                if not data:
                    raw.settimeout(5)
                    data = raw.recv(65536)
                elapsed = time.monotonic() - start
            assert b"408" in data.split(b"\r\n", 1)[0]
            assert b"slow_client" in data
            assert elapsed < 1.0
            events = service.audit_events()
            assert len(events) == before + 1
            assert events[-1].action.value == "api_rejected"
            assert events[-1].detail["code"] == "slow_client"
    finally:
        server.stop()


def test_graceful_drain(cluster):
    service = CuratorService(cluster, ServiceConfig(port=0))
    from repro.access.principals import Role, User
    from repro.service import ServiceClient, ServiceClientError

    secret = service.enroll(
        User.make("dr-d", "Dr D", [Role.PHYSICIAN], "er", treating={"pat-001"})
    )
    server = ServiceServer(service).start()
    try:
        client = ServiceClient(server.host, server.port)
        client.login("dr-d", secret)
        service.start_draining()
        # healthz still answers, reporting the drain
        health = client.healthz()
        assert health.status == "draining" and health.draining
        # new work is refused with the draining code
        with pytest.raises(ServiceClientError) as denied:
            client.read("rec-001")
        assert denied.value.status == 503
        assert denied.value.code == "service_draining"
        assert denied.value.rule_id == "deny:service:draining"
    finally:
        server.stop()


def test_queue_peak_metric_recorded(cluster):
    from repro.util.metrics import METRICS

    service = CuratorService(cluster, ServiceConfig(port=0))
    from repro.access.principals import Role, User

    METRICS.reset()
    secret = service.enroll(
        User.make("dr-q", "Dr Q", [Role.PHYSICIAN], "er", treating={"pat-001"})
    )
    bearer = wire_login(service, "dr-q", secret)
    service.handle_request(Request("GET", "/v1/records/x", bearer=bearer))
    snapshot = METRICS.snapshot()
    assert snapshot.get("service_queue_peak", 0) >= 1
    assert snapshot.get("service_requests", 0) >= 1
