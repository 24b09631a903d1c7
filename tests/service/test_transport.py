"""The thread-per-connection transport: pipelined requests, the
admission queue bounding real in-flight work, a peer hanging up
mid-request, running out of threads, and shutdown with idle keep-alive
peers."""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.access.principals import Role, User
from repro.service import (
    CuratorService,
    ServiceClient,
    ServiceClientError,
    ServiceConfig,
    ServiceServer,
)

from tests.service.conftest import note_body


def _responses(raw: socket.socket, count: int) -> list[tuple[bytes, dict]]:
    """Read *count* responses off *raw*: ``(status line, JSON body)`` each."""
    data, replies = b"", []
    while len(replies) < count:
        head_end = data.find(b"\r\n\r\n")
        if head_end >= 0:
            head = data[:head_end].split(b"\r\n")
            length = next(
                int(line.split(b":", 1)[1])
                for line in head
                if line.lower().startswith(b"content-length:")
            )
            body_end = head_end + 4 + length
            if len(data) >= body_end:
                replies.append((head[0], json.loads(data[head_end + 4 : body_end])))
                data = data[body_end:]
                continue
        chunk = raw.recv(65536)
        assert chunk, f"connection closed after {len(replies)} responses"
        data += chunk
    return replies


@pytest.fixture()
def serve(cluster):
    """Start a server over *cluster* with the given config overrides."""
    servers = []

    def start(**config) -> tuple[CuratorService, ServiceServer]:
        service = CuratorService(cluster, ServiceConfig(port=0, **config))
        servers.append(ServiceServer(service).start())
        return service, servers[-1]

    yield start
    for server in servers:
        server.stop()


def test_pipelined_requests_are_answered_in_order_and_audited_once(serve):
    service, server = serve()
    service.enroll(User.make("dr-p", "Dr P", [Role.PHYSICIAN]))
    challenge = b'{"user_id": "dr-p"}'
    pipeline = (
        b"POST /v1/auth/challenge HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(challenge)
        + challenge
        + b"GET /v1/healthz HTTP/1.1\r\n\r\n"
        + b"GET /v1/nowhere HTTP/1.1\r\n\r\n"
    )
    before = len(service.audit_events())
    with socket.create_connection(("127.0.0.1", server.port), timeout=5) as raw:
        raw.sendall(pipeline)  # one segment: three requests
        replies = _responses(raw, 3)
    assert [status for status, _body in replies] == [
        b"HTTP/1.1 200 OK",
        b"HTTP/1.1 200 OK",
        b"HTTP/1.1 404 Not Found",
    ]
    assert replies[0][1]["user_id"] == "dr-p"
    assert replies[1][1]["status"] == "ok"
    events = service.audit_events()[before:]
    assert [(e.action.value, e.subject_id) for e in events] == [
        ("api_request", "/v1/auth/challenge"),
        ("api_request", "/v1/healthz"),
        ("api_rejected", "/v1/nowhere"),
    ]


def test_queue_limit_bounds_the_requests_inside_the_engine(serve, cluster, monkeypatch):
    service, server = serve(queue_limit=1)
    clients = []
    for name in ("dr-a", "dr-b"):
        user = User.make(name, name, [Role.PHYSICIAN], treating={"pat-q"})
        client = ServiceClient(server.host, server.port, timeout=10)
        client.login(name, service.enroll(user))
        clients.append(client)
    first, second = clients
    first.store(note_body("rec-q", "pat-q"))

    entered, release = threading.Event(), threading.Event()
    read = cluster.read

    def held_read(*args, **kwargs):
        entered.set()
        assert release.wait(10)
        return read(*args, **kwargs)

    monkeypatch.setattr(cluster, "read", held_read)
    held: list = []
    reader = threading.Thread(target=lambda: held.append(first.read("rec-q")))
    reader.start()
    try:
        assert entered.wait(5)
        before = len(service.audit_events())
        with pytest.raises(ServiceClientError) as refused:
            second.read("rec-q")
        assert (refused.value.status, refused.value.code) == (503, "queue_full")
        assert refused.value.rule_id == "deny:service:queue-full"
        events = service.audit_events()[before:]
        assert [(e.action.value, e.detail["code"]) for e in events] == [
            ("api_rejected", "queue_full")
        ]
    finally:
        release.set()
        reader.join(10)
    assert not reader.is_alive()
    assert held[0].record_id == "rec-q"
    # both connections keep serving once the slot is free again
    assert first.read("rec-q").record_id == second.read("rec-q").record_id == "rec-q"
    for client in clients:
        client.close()


def test_a_peer_that_hangs_up_mid_request_is_audited(serve):
    """A hang-up after the first byte is an unfinished request (audited
    ``slow_client``); one between requests is not a request at all."""
    service, server = serve()
    before = len(service.audit_events())
    with socket.create_connection(("127.0.0.1", server.port), timeout=5) as raw:
        raw.sendall(b"GET /v1/healthz HTTP/1.1\r\n\r\n")
        assert _responses(raw, 1)[0][0] == b"HTTP/1.1 200 OK"
    with socket.create_connection(("127.0.0.1", server.port), timeout=5) as raw:
        raw.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n")  # then hangs up
    deadline = time.monotonic() + 5
    while len(service.audit_events()) < before + 2 and time.monotonic() < deadline:
        time.sleep(0.02)
    events = service.audit_events()[before:]
    assert [(e.action.value, e.subject_id) for e in events] == [
        ("api_request", "/v1/healthz"),
        ("api_rejected", "/"),
    ]
    assert events[1].detail["code"] == "slow_client"


def test_a_connection_thread_that_will_not_start_does_not_stop_accepting(
    serve, monkeypatch
):
    service, server = serve()
    start = threading.Thread.start
    refused: list[threading.Thread] = []

    def start_once(thread):
        if thread.name == "svc-conn" and not refused:
            refused.append(thread)
            raise RuntimeError("can't start new thread")
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", start_once)
    with socket.create_connection(("127.0.0.1", server.port), timeout=5) as raw:
        try:
            assert raw.recv(1) == b""  # closed unanswered, not left open
        except ConnectionResetError:
            pass
    assert refused
    with socket.create_connection(("127.0.0.1", server.port), timeout=5) as raw:
        raw.sendall(b"GET /v1/healthz HTTP/1.1\r\n\r\n")
        assert _responses(raw, 1)[0][0] == b"HTTP/1.1 200 OK"
    assert server._thread.is_alive()
    assert refused[0] not in server._connections.values()


def test_stop_closes_idle_keep_alive_peers_within_the_drain_timeout(cluster):
    service = CuratorService(cluster, ServiceConfig(port=0, drain_timeout=1.0))
    server = ServiceServer(service).start()
    peers = [
        socket.create_connection(("127.0.0.1", server.port), timeout=5) for _ in range(3)
    ]
    try:
        for peer in peers:
            peer.sendall(b"GET /v1/healthz HTTP/1.1\r\n\r\n")
            assert _responses(peer, 1)[0][0] == b"HTTP/1.1 200 OK"
        start = time.monotonic()
        server.stop()
        assert time.monotonic() - start < 1.0 + 1.0
        for peer in peers:
            assert peer.recv(1) == b""  # EOF, not a reset or a hang
    finally:
        for peer in peers:
            peer.close()
