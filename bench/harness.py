"""What every workload shares: building the system with the product's
default configuration, counting, latency statistics and the mandatory
post-run verification."""

from __future__ import annotations

import hashlib
import os
import math
import platform
import re
import resource
import statistics
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro.cluster import CuratorCluster
from repro.core.config import CuratorConfig
from repro.crypto.rsa import generate_keypair
from repro.util.encoding import canonical_bytes
from repro.util.metrics import METRICS

SHARDS = 4
MASTER_KEY = hashlib.sha256(b"bench master key").digest()
START_TIME = 1.17e9  # early 2007, like the E-experiments
#: A device this full after a run is a failed run.
MAX_DEVICE_FILL = 0.75
#: Index terms every workload queries (all occur in ``repro.workload.vocab``).
SEARCH_TERMS = ("hypertension", "asthma", "glucose", "cardiology", "metformin")
_TOKEN = re.compile(r"[a-z][a-z0-9'-]*")


def build_cluster(clock) -> CuratorCluster:
    """The product's default ``CuratorConfig`` (default device capacity,
    read cache, anchoring cadence, verification knobs); only the master
    key, the clock and one shared signing keypair are supplied."""
    config = CuratorConfig(
        master_key=MASTER_KEY, clock=clock, signing_keypair=generate_keypair(768)
    )
    return CuratorCluster(config, shards=SHARDS, workers=0)


def user_bytes(records) -> int:
    return sum(len(canonical_bytes(record.to_dict())) for record in records)


def mentions(record, term: str) -> bool:
    """Whether *record*'s indexed text contains *term* — the runner's
    own tokenisation, so search results are checked against something
    the index did not compute."""
    return term in _TOKEN.findall(record.searchable_text().lower())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint() -> dict[str, Any]:
    return {
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
    }


# -- machine speed -------------------------------------------------------------


class SpeedGauge:
    """Times a fixed pure-Python loop every ``INTERVAL`` seconds of
    work and scales what is measured between to reference speed.

    This sandbox's speed wanders: the loop below, and nothing else
    running, takes anything from 0.8x to 1.2x its median from one
    two-second stretch to the next, and whole minutes run 15 % slow.
    Left in, that is the spread of every timing here (10-20 % between
    runs of one commit); a ten-second window cannot average it away.
    So every duration is multiplied by ``REFERENCE_MS ÷ burst time``
    of the bursts around it, which removes what the loop and the
    program have in common (same-commit spread falls 2-3x).  The
    factor is the same for two commits measured at the same moment, so
    ratios between commits are untouched; the raw figures are printed
    beside the scaled ones.
    """

    INTERVAL = 0.02
    LOOP = 12_000
    #: One burst at the speed this machine has when it is quiet.
    REFERENCE_MS = 0.70

    def __init__(self) -> None:
        self.bursts_ms: list[float] = []
        self.factor = 1.0
        self.scaled_s = 0.0  # accumulated work time at reference speed
        self.raw_s = 0.0  # the same, as the clock read it
        self._mark: float | None = None
        self._last = 0.0
        self.burst()

    def burst(self) -> None:
        start = time.perf_counter()
        h = 0
        for i in range(self.LOOP):
            h = (h * 31 + i) % 1000003
        self._last = time.perf_counter()
        self.bursts_ms.append((self._last - start) * 1e3)
        self.factor = self.REFERENCE_MS / statistics.median(self.bursts_ms[-5:])

    def start(self) -> None:
        """Begin accumulating work time."""
        self._mark = time.perf_counter()

    def stop(self) -> None:
        """Account the work since :meth:`start` at the mean of the
        factors before and after it."""
        now = time.perf_counter()
        before = self.factor
        self.burst()
        self.scaled_s += (now - self._mark) * (before + self.factor) / 2
        self.raw_s += now - self._mark
        self._mark = None

    def tick(self) -> None:
        """Call between operations; runs a burst when one is due."""
        if time.perf_counter() - self._last < self.INTERVAL:
            return
        if self._mark is None:
            self.burst()
        else:
            self.stop()
            self.start()

    def timed(self, call) -> tuple[Any, float, float]:
        """``(result, scaled seconds, raw seconds)`` of one long call.
        A sampler thread keeps the bursts coming while it runs (two
        bursts around a call of seconds say nothing about its middle)."""
        done = threading.Event()

        def sample() -> None:
            while not done.wait(self.INTERVAL):
                self.burst()

        sampler = threading.Thread(target=sample, daemon=True, name="bench-gauge")
        self.burst()
        first = len(self.bursts_ms) - 1
        sampler.start()
        start = time.perf_counter()
        try:
            result = call()
        finally:
            raw = time.perf_counter() - start
            done.set()
            sampler.join()
        self.burst()
        factor = self.REFERENCE_MS / statistics.median(self.bursts_ms[first:])
        return result, raw * factor, raw

    def median_burst_ms(self) -> float:
        return statistics.median(self.bursts_ms)


# -- tallies and latency statistics -------------------------------------------


@dataclass
class Tally:
    """Outcomes of the operations a run attempted.  A miss never lowers
    a latency; it is counted, named, and fails the run."""

    attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)
    latency_ms: dict[str, list[float]] = field(
        default_factory=lambda: {"read": [], "store": [], "query": []}
    )

    def miss(self, what: str) -> None:
        self.failed += 1
        self.failures[what] += 1

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.update(other.failures)
        for kind, samples in other.latency_ms.items():
            self.latency_ms[kind].extend(samples)


def tail_quantile(samples: int) -> float:
    """p99 where at least ten samples lie beyond it (>= 1,000 samples),
    else the highest percentile that still has ten beyond it (never
    below the median)."""
    if samples <= 0:
        return 0.99
    return max(0.5, min(0.99, 1.0 - 10.0 / samples))


def quantile(sorted_samples: list[float], q: float) -> float:
    if not sorted_samples:
        return math.nan
    position = q * (len(sorted_samples) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_samples) - 1)
    return sorted_samples[low] + (sorted_samples[high] - sorted_samples[low]) * (
        position - low
    )


def latency_metrics(tally: Tally) -> dict[str, dict[str, Any]]:
    out: dict[str, dict[str, Any]] = {}
    for kind, samples in tally.latency_ms.items():
        ordered = sorted(samples)
        tail = tail_quantile(len(ordered))
        out[f"{kind}_p50_ms"] = {
            "value": statistics.median(ordered) if ordered else math.nan,
            "unit": "ms",
            "samples": len(ordered),
        }
        out[f"{kind}_p99_ms"] = {
            "value": quantile(ordered, tail),
            "unit": "ms",
            "samples": len(ordered),
            "percentile": round(100 * tail, 2),
        }
    return out


# -- counters read from the program's public surfaces -------------------------


def read_counters(cluster: CuratorCluster) -> dict[str, int]:
    """``METRICS`` plus device and anchor counts, as one flat dict."""
    counters = dict(METRICS.snapshot())
    devices = cluster.devices()
    counters["block_writes"] = sum(d.stats.writes for d in devices)
    counters["block_bytes_written"] = sum(d.stats.bytes_written for d in devices)
    counters["index_bytes_written"] = sum(
        d.stats.bytes_written for d in devices if d.device_id == "curator-idx"
    )
    counters["anchors"] = sum(len(engine.witness.anchors) for engine in cluster.shards)
    return counters


def counter_delta(before: dict[str, int], after: dict[str, int]) -> dict[str, int]:
    delta = {name: after[name] - before.get(name, 0) for name in after}
    # a high-water mark, not a sum
    delta["service_queue_peak"] = after.get("service_queue_peak", 0)
    return delta


# -- the mandatory end of every run -------------------------------------------


def used_bytes(cluster: CuratorCluster) -> int:
    return sum(device.used for device in cluster.devices())


def verify_and_measure(
    cluster: CuratorCluster, tally: Tally, gauge: SpeedGauge
) -> dict[str, float]:
    """Full (never incremental) integrity and audit-trail verification,
    the device-capacity check, and the space the run left on devices."""
    integrity, integrity_s, _raw = gauge.timed(
        lambda: cluster.verify_integrity(incremental=False)
    )
    audit, audit_s, _raw = gauge.timed(lambda: cluster.verify_audit_trail(incremental=False))
    tally.attempted += 2
    if not integrity.ok:
        tally.miss("verify_integrity")
    if not audit.ok:
        tally.miss("verify_audit_trail")
    fullest = max(device.used / device.capacity for device in cluster.devices())
    tally.attempted += 1
    if fullest > MAX_DEVICE_FILL:
        tally.miss("device_over_capacity")
    return {
        "verify_s": integrity_s + audit_s,
        "stored_bytes": float(used_bytes(cluster)),
        "fullest_device": fullest,
    }
