"""Running a call on the right shard: per-shard locks, one read path,
one move-gated write path, and the fan-out (in the caller's thread,
unless the shards are worker processes).

Every delegated call runs under its shard's lock; requests to different
shards proceed concurrently.  Everything is keyed by *patient*: the
router turns a record id into its patient before it gets here.

Reads and writes share one loop: find the patient's home, take that
shard's lock, re-check the home (the ring's answer only changes with the
snapshot, so the check is two lookups, not a second hash), run.

* :meth:`Dispatch.read` never waits for a move — before cutover the
  source serves, after it the destination does.
* :meth:`Dispatch.write` is the only place a write meets a move: it
  waits out a live :class:`~repro.cluster.rebalancer.MoveTicket` for that
  one patient (writes to every other patient are unaffected).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor, wait
from functools import partial
from typing import Any, Callable, TypeVar

from repro.cluster.topology import Topology, _Topology
from repro.util.metrics import METRICS

T = TypeVar("T")


class Dispatch:
    """Locks, gates and the fan-out over a :class:`Topology`."""

    def __init__(self, topology: Topology, name: str) -> None:
        self._topology = topology
        self._name = name
        #: patient id -> the live (or orphaned) ticket of that patient's move
        self.moves: dict[str, Any] = {}
        self._pool: ThreadPoolExecutor | None = None
        self._pool_width = 0
        self._pool_lock = threading.Lock()

    # -- one shard -------------------------------------------------------------

    @staticmethod
    def _on(topo: _Topology, shard_id: str, fn: Callable[[Any], T]) -> T:
        with topo.locks[shard_id]:
            return fn(topo.engines[shard_id])

    def on(self, shard_id: str, fn: Callable[[Any], T]) -> T:
        """Run *fn* on one named shard, under its lock."""
        return self._on(self._topology.current, shard_id, fn)

    def _at_home(
        self,
        patient_id: str,
        fn: Callable[[Any], T],
        *,
        gated: bool,
        claims: dict[str, str],
        count: str | None = None,
    ) -> T:
        while True:
            topo = self._topology.current
            pinned = topo.placements.get(patient_id)
            shard_id = pinned or topo.ring.owner_of(patient_id)
            with topo.locks[shard_id]:
                ticket = self.moves.get(patient_id) if gated else None
                if ticket is None or not ticket.held():
                    # (a published ticket whose lock is free means the
                    # mover died; routing is still right, so proceed)
                    if (
                        self._topology.current is not topo
                        or topo.placements.get(patient_id) != pinned
                    ):
                        continue  # reshaped, or moved, while we waited
                    if count:
                        METRICS.incr_labelled(count, shard_id)
                    self._topology.refuse_reuse(claims)
                    result = fn(topo.engines[shard_id])
                    self._topology.claim(claims)
                    return result
            ticket.wait()  # outside the shard lock

    def read(
        self, patient_id: str, fn: Callable[[Any], T], count: str | None = None
    ) -> T:
        """Run a read on the patient's home shard.  Holding that shard's
        lock with the home re-checked is enough: a move retires the
        source copy under the same lock, so the call sees the whole
        patient there or is re-routed."""
        return self._at_home(patient_id, fn, gated=False, claims={}, count=count)

    def write(
        self,
        patient_id: str,
        fn: Callable[[Any], T],
        claims: dict[str, str] | None = None,
        count: str | None = None,
    ) -> T:
        """Run a write on the patient's home shard, waiting out a live
        move of that patient first.  *claims* (the records a store
        creates, each mapped to the patient) are recorded under the shard
        lock, so a racing move's export and the record table never skew."""
        return self._at_home(patient_id, fn, gated=True, claims=claims or {}, count=count)

    def write_settled(
        self,
        shard_id: str,
        claims: dict[str, str],
        fn: Callable[[Any], T],
    ) -> T | None:
        """Run a batched write for several patients on *shard_id* — but
        only if every one of them is settled there (home unchanged, no
        move ticket published).  Returns ``None`` without running *fn*
        otherwise, and the caller falls back to :meth:`write` per
        patient.  *claims* maps the new record ids to their patients."""
        topo = self._topology.current
        lock = topo.locks.get(shard_id)
        if lock is None:
            return None
        with lock:
            if any(
                patient_id in self.moves or self._topology.home(patient_id) != shard_id
                for patient_id in set(claims.values())
            ):
                return None
            self._topology.refuse_reuse(claims)
            result = fn(topo.engines[shard_id])
            self._topology.claim(claims)
            return result

    # -- every shard -----------------------------------------------------------

    def each(self, fn: Callable[[Any], Any]) -> None:
        """Run *fn* on every shard, one after another."""
        topo = self._topology.current
        for shard_id in topo.engines:
            self._on(topo, shard_id, fn)

    def parallel(self, calls: dict[str, Callable[[], T]]) -> dict[str, T]:
        """Run the keyed *calls*; results keyed alike.  In-process shards
        share this interpreter's GIL, so their calls run here, in the
        caller's thread, in key order; only process workers (whose pipe
        ``recv`` releases the GIL) overlap, on a long-lived pool created
        on first use.  Either way every call runs to its end before the
        first failure in key order is raised."""
        if len(calls) <= 1 or not self._topology.workers:
            results: dict[str, T] = {}
            failures = []
            for key, call in calls.items():
                try:
                    results[key] = call()
                except Exception as exc:
                    failures.append(exc)
            if failures:
                raise failures[0]
            return results
        with self._pool_lock:  # a pool too narrow is replaced, never mid-submit
            if self._pool_width < len(calls):
                if self._pool is not None:
                    self._pool.shutdown(wait=False)
                self._pool_width = max(len(calls), len(self._topology.current.engines))
                self._pool = ThreadPoolExecutor(
                    max_workers=self._pool_width,
                    thread_name_prefix=f"{self._name}-fanout",
                )
            futures = {key: self._pool.submit(call) for key, call in calls.items()}
        wait(futures.values())
        return {key: future.result() for key, future in futures.items()}

    def fan_out(self, fn: Callable[[Any], T]) -> dict[str, T]:
        """Run *fn* on every shard of one topology snapshot through
        :meth:`parallel`; results keyed by shard id, in slot order.
        Mid-transition the snapshot is the union topology, so
        not-yet-drained shards are still covered."""
        topo = self._topology.current
        return self.parallel(
            {sid: partial(self._on, topo, sid, fn) for sid in topo.engines}
        )

    def close(self) -> None:
        """Reap the process workers' fan-out pool, if one was started."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=False)
            self._pool, self._pool_width = None, 0
