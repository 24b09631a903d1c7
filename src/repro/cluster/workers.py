"""Process-backed shard workers for the cluster router.

In-process shard engines share one interpreter and its GIL, so a
fan-out over them runs in the caller's thread, one shard after another;
only process workers overlap.  A :class:`ShardWorkerProxy` moves one
whole engine into a dedicated worker process and speaks a compact
command protocol over a pipe:

* **request** — ``(call, args, kwargs)``, pickled once; *call* must
  be one of :data:`ENGINE_CALLS`, checked before it is resolved, and
  names either an engine method (``"read"``) or a method of one of the
  engine's parts by path (``"transfer.retire_patient"``: the move
  protocol lives on :class:`~repro.core.transfer.PatientTransfer`); the
  worker resolves it on its private
  :class:`~repro.core.engine.CuratorStore` and invokes it.
* **response** — ``(True, result)`` on success or ``(False, exception)``
  on failure; the proxy re-raises the exception in the caller, so error
  semantics match the in-process engine call for every picklable error
  (all of :mod:`repro.errors` is).

The proxy carries exactly the engine calls the cluster makes
(:data:`ENGINE_CALLS`) — the routing/locking code does not know whether
a shard is local or a process.  A part path becomes an attribute of one
namespace per part (``proxy.transfer.retire_patient``); anything else
is an ``AttributeError`` at the call site.  Raw **device access**
(``devices``/``device_set``/``audit_devices``/attribute reads like
``_clock``) deliberately fails fast instead of pretending: a
:class:`~repro.storage.block.BlockDevice` proxy would be a copy, and
tampering with a copy proves nothing.
Harnesses that need raw media (the detection-equivalence oracle, crash
sweeps) must run the cluster with ``workers=0``.

Worker processes are daemons: an abandoned cluster cannot wedge
interpreter shutdown, but call :meth:`ShardWorkerProxy.close` (via
``CuratorCluster.close``) for an orderly drain.
"""

from __future__ import annotations

import multiprocessing
from functools import partial
from operator import attrgetter
from types import SimpleNamespace
from typing import Any

from repro.core.config import CuratorConfig
from repro.errors import ClusterError

_SHUTDOWN = "__shutdown__"

#: The engine calls that cross the pipe: what the router, the rebalancer
#: and migration-proof verification invoke on a shard, and nothing else.
#: A dotted entry is a part's method, called as ``engine.<part>.<name>``.
ENGINE_CALLS = frozenset({
    "accounting_of_disclosures", "attach", "attachments_of",
    "audit_events", "break_glass", "cold_record_ids", "correct",
    "create_backup", "declared_features", "demote_records",
    "demotion_sweep", "dispose", "patient_ids", "place_hold",
    "principal", "read", "read_attachment", "read_version", "read_view",
    "record_ids", "records_in_window", "records_of_patient",
    "register_user", "release_hold", "restore_from_backup",
    "retention_sweep", "revoke_break_glass", "search", "store",
    "store_many", "tier_stats", "verify_audit_trail", "verify_integrity",
    "version_count",
    "transfer.adopt_access_state", "transfer.adopt_audit_delta",
    "transfer.export_access_state", "transfer.export_audit_delta",
    "transfer.export_patient_history", "transfer.import_patient_history",
    "transfer.imported_segment", "transfer.patient_history_digests",
    "transfer.retire_patient",
})


def _serve(conn, config: CuratorConfig) -> None:
    """Worker-process main loop: build the shard engine, answer commands."""
    from repro.core.engine import CuratorStore

    engine = CuratorStore(config)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message == _SHUTDOWN:
            conn.send((True, None))
            break
        method, args, kwargs = message
        try:
            if method not in ENGINE_CALLS:
                raise ClusterError(f"{method!r} is not a call a shard worker serves")
            result = attrgetter(method)(engine)(*args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 — every error crosses the pipe
            try:
                conn.send((False, exc))
            except Exception:
                # Unpicklable exception: degrade to a ClusterError that
                # at least carries the message.
                conn.send(
                    (False, ClusterError(f"shard worker {method} failed: {exc}"))
                )
        else:
            try:
                conn.send((True, result))
            except Exception as exc:
                # Connection.send pickles before writing, so a pickling
                # failure leaves the pipe clean for the error response.
                conn.send(
                    (False, ClusterError(f"unpicklable result from {method}: {exc}"))
                )
    conn.close()


class ShardWorkerProxy:
    """One shard engine hosted in a worker process, behind the
    :data:`ENGINE_CALLS` slice of the engine API.  Engine internals are
    plain missing attributes, so code that reaches for them fails loudly
    instead of operating on a phantom (run the cluster with ``workers=0``
    for that)."""

    def __init__(self, config: CuratorConfig, shard_id: str) -> None:
        context = multiprocessing.get_context()
        self._conn, child = context.Pipe()
        self._process = context.Process(
            target=_serve,
            args=(child, config),
            name=f"curator-shard-{shard_id}",
            daemon=True,
        )
        self._process.start()
        child.close()
        self._shard_id = shard_id
        self._closed = False
        parts: dict[str, dict[str, Any]] = {}
        for name in ENGINE_CALLS:
            part, _, leaf = name.rpartition(".")
            if part:
                parts.setdefault(part, {})[leaf] = partial(self._call, name)
            else:
                setattr(self, name, partial(self._call, name))
        for part, calls in parts.items():
            setattr(self, part, SimpleNamespace(**calls))

    # -- command protocol ------------------------------------------------

    def _call(self, method: str, *args: Any, **kwargs: Any) -> Any:
        if self._closed:
            raise ClusterError(f"shard worker {self._shard_id} is closed")
        try:
            self._conn.send((method, args, kwargs))
            ok, payload = self._conn.recv()
        except (EOFError, OSError) as exc:
            raise ClusterError(
                f"shard worker {self._shard_id} died during {method}: {exc}"
            ) from exc
        if not ok:
            raise payload
        return payload

    # -- the deliberately unsupported surface ----------------------------

    def devices(self):
        raise ClusterError(
            "raw device access is not available on a process-backed shard; "
            "run the cluster with workers=0 for device-level harnesses"
        )

    device_set = audit_devices = devices

    # -- lifecycle -------------------------------------------------------

    @property
    def recovery_report(self):
        """Worker shards are always built live (recovery needs device
        hand-off, which cannot cross the pipe)."""
        return None

    def close(self) -> None:
        """Orderly shutdown: drain, ack, join; terminate as a last resort."""
        if self._closed:
            return
        self._closed = True
        try:
            self._conn.send(_SHUTDOWN)
            self._conn.recv()
        except (EOFError, OSError):
            pass
        self._conn.close()
        self._process.join(timeout=5)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=5)
