"""Cheap process-wide performance counters and timers.

The write-path pipeline (batched ingest, KDF caching,
amortized journal flushes) needs observability to prove its caches hit
and its flushes coalesce — and later PRs need the same hooks to chase
regressions.  This module is the first such hook: named monotonic
counters (``kdf_cache_hits``, ``journal_flush_count`` ...) and
nanosecond accumulators (``encrypt_ns``) that hot paths bump with one
dict operation.

Design constraints:

* **Cheap.**  ``incr`` is a dict ``get`` + add; no locks, no logging,
  no allocation beyond the first touch of a name.  Hot loops (the
  keystore's cipher memo, the journal) call it per operation.
* **No dependencies.**  This module imports nothing from ``repro`` so
  every layer — crypto, storage, index, engine — can use it without
  import cycles.
* **Inspectable anywhere.**  ``METRICS`` is the process-wide registry;
  benchmarks and the CLI dump :meth:`Metrics.snapshot` and tests call
  :meth:`Metrics.reset` between scenarios.

Counters are observability, not audit: nothing here persists, and no
security property may ever depend on a metric value.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator


class Metrics:
    """A registry of named counters (ints, monotonically increasing)."""

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}

    def incr(self, name: str, delta: int = 1) -> None:
        """Add *delta* to counter *name* (created at 0 on first touch)."""
        self._counters[name] = self._counters.get(name, 0) + delta

    def get(self, name: str) -> int:
        """Current value of *name* (0 if never incremented)."""
        return self._counters.get(name, 0)

    def incr_labelled(self, name: str, label: str, delta: int = 1) -> None:
        """Add *delta* to the labelled counter ``name{label}`` — the
        per-shard flavour the cluster router bumps per routed request
        (``cluster_reads{shard-01}`` ...).  Same cost as :meth:`incr`;
        the label is folded into the counter name."""
        self._counters[f"{name}{{{label}}}"] = (
            self._counters.get(f"{name}{{{label}}}", 0) + delta
        )

    def labelled(self, name: str) -> dict[str, int]:
        """All labels recorded under *name*, as ``{label: value}``."""
        prefix = f"{name}{{"
        return {
            key[len(prefix) : -1]: value
            for key, value in sorted(self._counters.items())
            if key.startswith(prefix) and key.endswith("}")
        }

    def record_max(self, name: str, value: int) -> None:
        """Keep the high-water mark of *value* under *name* (e.g. the
        service's peak admission-queue depth).  Same cost class as
        :meth:`incr`; the counter is monotone like every other."""
        if value > self._counters.get(name, 0):
            self._counters[name] = value

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Accumulate the wrapped block's wall time into ``<name>`` in
        nanoseconds (use names ending in ``_ns`` by convention)."""
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.incr(name, time.perf_counter_ns() - start)

    def ms(self, name: str) -> float:
        """A ``_ns`` accumulator read back in milliseconds (0.0 if
        never touched) — for benchmark tables and CLI reporting."""
        return self._counters.get(name, 0) / 1e6

    def snapshot(self) -> dict[str, int]:
        """All counters, sorted by name (a plain, serializable dict)."""
        return dict(sorted(self._counters.items()))

    def reset(self) -> None:
        """Zero every counter (test/benchmark isolation)."""
        self._counters.clear()


METRICS = Metrics()
"""The process-wide registry every subsystem increments."""
