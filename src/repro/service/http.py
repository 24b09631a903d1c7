"""The HTTP/1.1 transport (stdlib only, no frameworks): one thread per
connection.

This layer is deliberately thin: an accept thread hands each connection
to a thread of its own, which parses bytes into a
:class:`~repro.service.service.Request`, calls
:meth:`CuratorService.handle_request` itself, and writes the
:class:`Response` back.  Policy, auth, admission, and audit all live
below in the service core — a unit test that never opens a socket
exercises the identical pipeline.

Transport behaviors owned here:

* **framing** — a request is cut from the connection's one receive
  buffer: the head up to the blank line, then ``Content-Length`` bytes
  of body; bytes past it are the next (pipelined) request.  A request
  that could be framed two ways — any ``Transfer-Encoding``, a
  ``Content-Length`` that is not plain digits, or two that disagree —
  is refused, never guessed at;
* **keep-alive** with a bounded idle timeout (closed silently — an
  idle connection is not a request, so it is not audited);
* **slow-client cutoff** — a peer that starts a request but does not
  finish it within ``slow_client_timeout`` of its first byte (one
  deadline, however the bytes trickle in; hanging up counts too) gets
  a structured 408 and the connection is closed (slowloris
  containment);
* **graceful drain** — :meth:`ServiceServer.stop` flips the service to
  draining (new work is refused with 503 ``service_draining``), waits
  for in-flight requests to finish up to ``drain_timeout``, then closes
  the listener and every connection.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http import HTTPStatus
from urllib.parse import parse_qsl

from repro.service import api
from repro.service.service import CuratorService, Request, Response, _Deny

MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 4 * 1024 * 1024
IDLE_KEEPALIVE_SECONDS = 30.0

#: Why a request could not be read -> the wire code and message it is
#: rejected with (``"closed"`` is not here: a peer gone between requests
#: gets nothing; one gone mid-request is ``"slow"``).
_TRANSPORT_FAILURES = {
    "slow": ("slow_client", "client did not complete the request in time"),
    "oversize": ("malformed_request", "request exceeds the size limits"),
    "bad": ("malformed_request", "request could not be parsed"),
}


class _Unread(Exception):
    """No request could be read; the argument is ``"closed"`` or a key
    of :data:`_TRANSPORT_FAILURES`."""


def _render(response: Response, *, keep_alive: bool) -> bytes:
    body = json.dumps(response.body).encode("utf-8")
    lines = [
        f"HTTP/1.1 {response.status} {HTTPStatus(response.status).phrase}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in response.headers.items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


class ServiceServer:
    """One listening socket over one :class:`CuratorService`.

    Usable two ways: ``run_forever()`` accepts on the current thread
    (the CLI's ``repro serve``), or ``start()``/``stop()`` accepts on a
    background thread (tests, benchmarks, the in-process demo).
    """

    def __init__(self, service: CuratorService) -> None:
        self.service = service
        self.host = service.config.host
        self.port = service.config.port
        self._listener: socket.socket | None = None
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self._connections: dict[socket.socket, threading.Thread] = {}

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    @staticmethod
    def _fill(conn: socket.socket, buffer: bytearray, deadline: float, late: str) -> None:
        """Append the peer's next bytes to *buffer*, or raise
        :class:`_Unread` with *late* if none came by *deadline* or the
        peer hung up (between requests *late* is ``"closed"``; inside
        one, a hang-up is as unfinished as a stall)."""
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise _Unread(late)
        conn.settimeout(remaining)
        try:
            chunk = conn.recv(65536)
        except OSError:  # TimeoutError included
            chunk = b""
        if not chunk:
            raise _Unread(late)
        buffer += chunk

    def _read_request(self, conn: socket.socket, buffer: bytearray) -> Request:
        """Cut one request off the front of *buffer*, receiving into it
        as needed; raises :class:`_Unread` when there is none to cut."""
        if not buffer:
            self._fill(conn, buffer, time.monotonic() + IDLE_KEEPALIVE_SECONDS, "closed")
        deadline = time.monotonic() + self.service.config.slow_client_timeout
        while (end := buffer.find(b"\r\n\r\n")) < 0:
            if len(buffer) > MAX_HEADER_BYTES:
                raise _Unread("oversize")
            self._fill(conn, buffer, deadline, "slow")
        if end + 4 > MAX_HEADER_BYTES:
            raise _Unread("oversize")
        request_line, *lines = bytes(buffer[:end]).split(b"\r\n")
        del buffer[: end + 4]
        try:
            method, target, _version = request_line.decode("ascii").strip().split(" ", 2)
        except ValueError:
            raise _Unread("bad") from None

        headers: dict[str, str] = {}
        lengths = set()
        for line in lines:
            name, _, value = line.decode("latin-1").partition(":")
            name, value = name.strip().lower(), value.strip()
            headers[name] = value
            if name == "content-length":
                lengths.add(value)
        length = headers.get("content-length", "0")
        if "transfer-encoding" in headers or len(lengths) > 1 or not (
            length.isascii() and length.isdigit()
        ):
            raise _Unread("bad")
        # int() refuses strings past 4,300 digits; no such length fits anyway
        if len(length.lstrip("0")) > len(str(MAX_BODY_BYTES)):
            raise _Unread("oversize")
        content_length = int(length)
        if content_length > MAX_BODY_BYTES:
            raise _Unread("oversize")
        while len(buffer) < content_length:
            self._fill(conn, buffer, deadline, "slow")
        body_raw = bytes(buffer[:content_length])
        del buffer[:content_length]

        body = None
        if body_raw:
            try:
                body = json.loads(body_raw.decode("utf-8"))
            except (ValueError, RecursionError):
                raise _Unread("bad") from None

        path, _, raw_query = target.partition("?")
        bearer = ""
        authorization = headers.get("authorization", "")
        if authorization.lower().startswith("bearer "):
            bearer = authorization[7:].strip()
        return Request(
            method=method.upper(),
            path=path,
            query=dict(parse_qsl(raw_query, keep_blank_values=True)),
            body=body,
            bearer=bearer,
        )

    def _serve_connection(self, conn: socket.socket) -> None:
        buffer = bytearray()  # bytes received past the last request cut
        try:
            while True:
                try:
                    request = self._read_request(conn, buffer)
                except _Unread as unread:
                    if unread.args[0] == "closed":
                        return
                    code_name, message = _TRANSPORT_FAILURES[unread.args[0]]
                    response = self.service._reject(
                        Request(method="?", path="/"),
                        "",
                        _Deny(api.SERVICE_CODES[code_name], message),
                    )
                    keep_alive = False
                else:
                    response = self.service.handle_request(request)
                    keep_alive = not self.service.admission.draining
                conn.settimeout(self.service.config.slow_client_timeout)
                conn.sendall(_render(response, keep_alive=keep_alive))
                if not keep_alive:
                    # lingering close: closing on bytes the peer already sent
                    # would reset the connection and could lose the reply
                    conn.shutdown(socket.SHUT_WR)
                    deadline = time.monotonic() + self.service.config.slow_client_timeout
                    try:
                        while True:
                            self._fill(conn, bytearray(), deadline, "closed")
                    except _Unread:
                        return
        except OSError:
            pass
        finally:
            with self._lock:
                del self._connections[conn]
            conn.close()

    def _accept(self, listener: socket.socket) -> None:
        while True:
            try:
                conn, _peer = listener.accept()
            except OSError:
                if self._listener is None:  # stop() closed it
                    return
                time.sleep(0.05)  # e.g. out of descriptors: back off, retry
                continue
            # no Nagle wait on a delayed ACK for a response's last segment
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True, name="svc-conn"
            )
            with self._lock:
                self._connections[conn] = thread
            try:
                thread.start()
            except RuntimeError:  # out of threads: drop this one, keep accepting
                with self._lock:
                    del self._connections[conn]
                conn.close()
                time.sleep(0.05)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def _bind(self) -> socket.socket:
        family = socket.AF_INET6 if ":" in self.host else socket.AF_INET
        self._listener = socket.create_server((self.host, self.port), family=family)
        self.port = self._listener.getsockname()[1]
        return self._listener

    def run_forever(self) -> None:
        """Serve on the calling thread until KeyboardInterrupt, then
        drain as :meth:`stop` does."""
        try:
            self._accept(self._bind())
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def start(self) -> "ServiceServer":
        """Serve on a background thread; returns once the socket is
        bound (``self.port`` then holds the real port, so ``port=0``
        works for tests)."""
        self._thread = threading.Thread(
            target=self._accept, args=(self._bind(),), daemon=True, name="svc-accept"
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Graceful drain, then close the listener and every connection
        (an idle keep-alive peer reads EOF)."""
        self.service.start_draining()
        deadline = time.monotonic() + self.service.config.drain_timeout
        while not self.service.admission.idle() and time.monotonic() < deadline:
            time.sleep(0.02)
        listener, self._listener = self._listener, None
        if listener is not None:
            try:
                listener.shutdown(socket.SHUT_RDWR)  # wakes a blocked accept()
            except OSError:
                pass
            listener.close()
        if self._thread is not None:
            self._thread.join(timeout=10)
        with self._lock:
            connections = dict(self._connections)
            for conn in connections:
                try:
                    conn.shutdown(socket.SHUT_RDWR)  # wakes a blocked recv()
                except OSError:
                    pass  # the peer is already gone
        deadline = time.monotonic() + 1.0
        for thread in connections.values():
            thread.join(timeout=max(0.0, deadline - time.monotonic()))

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"
