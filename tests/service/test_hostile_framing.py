"""Hostile request framing: every unparseable or ambiguously framed
request gets the structured 400 and exactly one audit event — none kills
the connection's thread, and none is read as two requests."""

from __future__ import annotations

import socket

import pytest

from repro.access.principals import Role, User
from repro.service import CuratorService, ServiceClient, ServiceConfig, ServiceServer

_GET = b"GET /v1/healthz HTTP/1.1\r\n"
_POST = b"POST /v1/auth/challenge HTTP/1.1\r\n"
_NOTE = (
    b'{"record_id": "rec-h", "patient_id": "pat-h", "record_type": "clinical_note", '
    b'"created_at": %s, "body": %s}'
)
_BODY = b'{"user_id": "x"}'  # 16 bytes


def _store(body: bytes) -> bytes:
    """A record store from a logged-in client (the test fills in
    ``{bearer}``)."""
    return (
        b"POST /v1/records HTTP/1.1\r\nAuthorization: Bearer {bearer}\r\n"
        b"Content-Length: %d\r\n\r\n" % len(body)
    ) + body


HOSTILE = {
    "request_line_70kB": b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
    "header_line_70kB": _GET + b"X-Pad: " + b"a" * 70_000 + b"\r\n\r\n",
    "negative_content_length": _POST + b"Content-Length: -5\r\n\r\n",
    "non_numeric_content_length": _POST + b"Content-Length: five\r\n\r\n",
    "headers_33kB": _GET + b"".join(
        b"X-Pad-%d: %s\r\n" % (i, b"a" * 1000) for i in range(33)
    ) + b"\r\n",
    "bad_json": _POST + b"Content-Length: 7\r\n\r\n{\"user_",
    "content_length_5MB": _POST + b"Content-Length: 5242880\r\n\r\n",
    # past the 4,300 digits int() converts: refused before it is tried
    "content_length_5000_digits": _POST + b"Content-Length: " + b"9" * 5000 + b"\r\n\r\n",
    "non_ascii_request_line": "GET /v1/récords HTTP/1.1\r\n\r\n".encode("utf-8"),
    "json_nested_3000_deep": _POST + b"Content-Length: 6000\r\n\r\n"
    + b"[" * 3000 + b"]" * 3000,
    "record_body_nested_600_deep": _store(
        _NOTE % (b"1.17e9", b'{"x": ' + b"[" * 600 + b"]" * 600 + b"}")
    ),
    "created_at_10_pow_400": _store(_NOTE % (b"1" + b"0" * 400, b"{}")),
    # each of these would otherwise frame _BODY as a valid 16-byte challenge
    "content_length_underscore": _POST + b"Content-Length: 1_6\r\n\r\n" + _BODY,
    "content_length_plus_sign": _POST + b"Content-Length: +16\r\n\r\n" + _BODY,
    "content_length_repeated": _POST
    + b"Content-Length: 5\r\nContent-Length: 16\r\n\r\n" + _BODY,
    "transfer_encoding_chunked": _POST
    + b"Transfer-Encoding: chunked\r\n\r\n10\r\n" + _BODY + b"\r\n0\r\n\r\n",
}

#: A body nested past ``MAX_BODY_DEPTH`` parses but fails record
#: validation; every other framing cannot be parsed at all.
CODES = {"record_body_nested_600_deep": b"validation_error"}


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_framing_answered_400_and_audited_once(cluster, name):
    service = CuratorService(cluster, ServiceConfig(port=0))
    server = ServiceServer(service).start()
    try:
        payload = HOSTILE[name]
        if b"{bearer}" in payload:
            client = ServiceClient(server.host, server.port)
            user = User.make("dr-h", "Dr H", [Role.PHYSICIAN], treating={"pat-h"})
            client.login(user.user_id, service.enroll(user))
            client.close()
            payload = payload.replace(b"{bearer}", client.bearer.encode())
        before = len(service.audit_events())
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as raw:
            raw.sendall(payload)
            raw.shutdown(socket.SHUT_WR)  # all sent: a 400 need not close
            reply = b""
            try:
                while chunk := raw.recv(65536):
                    reply += chunk
            except ConnectionResetError:
                pass  # closed on bytes the server never read; the reply came first
        code = CODES.get(name, b"malformed_request")
        assert reply.split(b"\r\n", 1)[0] == b"HTTP/1.1 400 Bad Request"
        assert code in reply
        events = service.audit_events()
        assert len(events) == before + 1
        assert events[-1].action.value == "api_rejected"
        assert events[-1].detail["code"] == code.decode()
    finally:
        server.stop()
