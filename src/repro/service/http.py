"""The asyncio HTTP/1.1 transport (stdlib only, no frameworks).

This layer is deliberately thin: parse bytes into a
:class:`~repro.service.service.Request`, hand it to
:meth:`CuratorService.handle_request` on an executor thread (engine
calls do real crypto and I/O; they must not block the event loop), and
write the :class:`Response` back.  Policy, auth, admission, and audit
all live below in the service core — a unit test that never opens a
socket exercises the identical pipeline.

Transport behaviors owned here:

* **keep-alive** with a bounded idle timeout (closed silently — an
  idle connection is not a request, so it is not audited);
* **slow-client cutoff** — a peer that starts a request but does not
  finish it within ``slow_client_timeout`` gets a structured 408 and
  the connection is closed (slowloris containment);
* **graceful drain** — :meth:`ServiceServer.stop` flips the service to
  draining (new work is refused with 503 ``service_draining``), waits
  for in-flight requests to finish up to ``drain_timeout``, then closes
  the listener.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from urllib.parse import unquote_plus

from repro.service import api
from repro.service.service import CuratorService, Request, Response, _Deny

MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 4 * 1024 * 1024
IDLE_KEEPALIVE_SECONDS = 30.0
#: Threads that run ``handle_request`` off the event loop.
EXECUTOR_WORKERS = 16

#: Why a request could not be read -> the wire code and message it is
#: rejected with (``"closed"`` is not here: a vanished peer gets nothing).
_TRANSPORT_FAILURES = {
    "slow": ("slow_client", "client did not complete the request in time"),
    "oversize": ("malformed_request", "request exceeds the size limits"),
    "bad": ("malformed_request", "request could not be parsed"),
}


def _parse_query(raw: str) -> dict[str, str]:
    query: dict[str, str] = {}
    for pair in raw.split("&"):
        if not pair:
            continue
        key, _, value = pair.partition("=")
        query[unquote_plus(key)] = unquote_plus(value)
    return query


def _render(response: Response, *, keep_alive: bool) -> bytes:
    body = json.dumps(response.body).encode("utf-8")
    lines = [
        f"HTTP/1.1 {response.status} {_REASONS.get(response.status, 'Status')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in response.headers.items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    410: "Gone",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ServiceServer:
    """One asyncio server over one :class:`CuratorService`.

    Usable two ways: ``run_forever()`` on the current thread (the CLI's
    ``repro serve``), or ``start()``/``stop()`` with the loop on a
    background thread (tests, benchmarks, the in-process demo).
    """

    def __init__(self, service: CuratorService) -> None:
        self.service = service
        self._executor = ThreadPoolExecutor(
            max_workers=EXECUTOR_WORKERS, thread_name_prefix="svc"
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self.host = service.config.host
        self.port = service.config.port

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[Request | None, str]:
        """Parse one request off the stream.

        Returns ``(request, "")`` on success, ``(None, reason)`` where
        reason is ``"closed"`` (peer gone / idle timeout — drop
        silently) or ``"slow"``/``"oversize"``/``"bad"`` (answer 408/400
        then close).
        """
        try:
            first = await asyncio.wait_for(
                reader.readline(), timeout=IDLE_KEEPALIVE_SECONDS
            )
        except (asyncio.TimeoutError, ConnectionError):
            return None, "closed"
        except ValueError:  # a line past the StreamReader's own limit
            return None, "oversize"
        if not first:
            return None, "closed"

        deadline = time.monotonic() + self.service.config.slow_client_timeout
        try:
            request_line = first.decode("ascii").strip()
            method, target, _version = request_line.split(" ", 2)
        except ValueError:
            return None, "bad"

        headers: dict[str, str] = {}
        total = len(first)
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None, "slow"
            try:
                line = await asyncio.wait_for(reader.readline(), timeout=remaining)
            except (asyncio.TimeoutError, ConnectionError):
                return None, "slow"
            except ValueError:  # a line past the StreamReader's own limit
                return None, "oversize"
            if not line:
                return None, "closed"
            total += len(line)
            if total > MAX_HEADER_BYTES:
                return None, "oversize"
            text = line.decode("latin-1").rstrip("\r\n")
            if not text:
                break
            name, _, value = text.partition(":")
            headers[name.strip().lower()] = value.strip()

        body_raw = b""
        length = headers.get("content-length", "0")
        try:
            content_length = int(length)
        except ValueError:
            return None, "bad"
        if content_length < 0:
            return None, "bad"
        if content_length > MAX_BODY_BYTES:
            return None, "oversize"
        if content_length:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None, "slow"
            try:
                body_raw = await asyncio.wait_for(
                    reader.readexactly(content_length), timeout=remaining
                )
            except (asyncio.TimeoutError, asyncio.IncompleteReadError, ConnectionError):
                return None, "slow"

        body = None
        if body_raw:
            try:
                body = json.loads(body_raw.decode("utf-8"))
            except (ValueError, UnicodeDecodeError, RecursionError):
                return None, "bad"

        path, _, raw_query = target.partition("?")
        bearer = ""
        authorization = headers.get("authorization", "")
        if authorization.lower().startswith("bearer "):
            bearer = authorization[7:].strip()
        return (
            Request(
                method=method.upper(),
                path=path,
                query=_parse_query(raw_query),
                body=body,
                bearer=bearer,
            ),
            "",
        )

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        loop = asyncio.get_running_loop()
        try:
            while True:
                request, reason = await self._read_request(reader)
                if request is None:
                    if reason != "closed":
                        code_name, message = _TRANSPORT_FAILURES[reason]
                        rejection = await loop.run_in_executor(
                            self._executor,
                            self.service._reject,
                            Request(method="?", path="/"),
                            "",
                            _Deny(api.SERVICE_CODES[code_name], message),
                        )
                        writer.write(_render(rejection, keep_alive=False))
                        await writer.drain()
                    return
                response = await loop.run_in_executor(
                    self._executor, self.service.handle_request, request
                )
                keep_alive = not self.service.admission.draining
                writer.write(_render(response, keep_alive=keep_alive))
                await writer.drain()
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def _serve(self, ready: threading.Event | None = None) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if ready is not None:
            ready.set()
        async with self._server:
            await self._server.serve_forever()

    def run_forever(self) -> None:
        """Serve on the calling thread until KeyboardInterrupt."""
        try:
            asyncio.run(self._serve())
        except KeyboardInterrupt:
            pass

    def start(self) -> "ServiceServer":
        """Serve on a background thread; returns once the socket is
        bound (``self.port`` then holds the real port, so ``port=0``
        works for tests)."""
        def runner() -> None:
            self._loop = asyncio.new_event_loop()
            asyncio.set_event_loop(self._loop)
            try:
                self._loop.run_until_complete(self._serve(self._started))
            except asyncio.CancelledError:
                pass
            finally:
                # let cancelled connection handlers unwind before the
                # loop closes (else "Task was destroyed but pending")
                pending = asyncio.all_tasks(self._loop)
                if pending:
                    self._loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
                self._loop.close()

        self._thread = threading.Thread(target=runner, daemon=True, name="svc-loop")
        self._thread.start()
        if not self._started.wait(timeout=10):
            raise RuntimeError("service failed to start within 10s")
        return self

    def stop(self) -> None:
        """Graceful drain, then close the listener and join the loop."""
        self.service.start_draining()
        deadline = time.monotonic() + self.service.config.drain_timeout
        while not self.service.admission.idle() and time.monotonic() < deadline:
            time.sleep(0.02)
        loop, server = self._loop, self._server
        if loop is not None and server is not None:

            def shutdown() -> None:
                server.close()
                for task in asyncio.all_tasks(loop):
                    task.cancel()

            loop.call_soon_threadsafe(shutdown)
        if self._thread is not None:
            self._thread.join(timeout=10)
        self._executor.shutdown(wait=False)

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"
