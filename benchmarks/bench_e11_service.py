"""E11 — the wire service under closed-loop clinician load.

Paper claim: a secure record store is only useful if authorized
clinicians get their records *now* — authentication, authorization,
and trustworthy logging must not price the system out of interactive
use (paper §3 Performance, §3 Access control).  This benchmark drives
the full v1 wire pipeline — real sockets, per-session bearer tokens,
policy decisions, admission control, and a structured audit event for
every request — with hundreds of concurrent authenticated sessions,
and measures sustained throughput and tail latency.

Shape of the experiment:

* a 4-shard :class:`CuratorCluster` on a wall clock, fronted by
  :class:`ServiceServer` on a loopback port;
* ``N_SESSIONS`` clinicians enrolled, each treating their own panel
  patient with one seeded record;
* every clinician runs the challenge-response login **over the wire**
  and then a closed loop (read-heavy with periodic search and store)
  on a persistent keep-alive connection for ``MEASURE_SECONDS``;
* sustained RPS counts only requests completed inside the measurement
  window (after a barrier-aligned warmup); p50/p99 are computed over
  the same window;
* the run is only admissible if **every** request left exactly one
  service audit event and the audit chain still verifies afterwards —
  throughput bought by skipping the trustworthy log does not count.

The bars (a session floor, an absolute RPS floor, a p99 ceiling, zero
errors, and the audit-coverage invariant) are the ``e11_service`` rows
of ``benchmarks/bars.py``.
"""

from __future__ import annotations

import threading
import time

from benchmarks.bars import gate
from benchmarks.common import MASTER_KEY, print_table
from repro.access.principals import Role, User
from repro.cluster import CuratorCluster
from repro.core.config import CuratorConfig
from repro.crypto.rsa import generate_keypair
from repro.errors import AuditError
from repro.service import ServiceClient, ServiceClientError, ServiceConfig, ServiceServer
from repro.service.service import CuratorService
from repro.util.clock import WallClock

N_SESSIONS = 200       #: concurrent authenticated clinician sessions
WARMUP_SECONDS = 1.0   #: closed-loop ramp excluded from the window
MEASURE_SECONDS = 5.0  #: the measurement window itself
SHARDS = 4

#: Closed-loop op mix per 10 iterations: read-heavy interactive use
#: with an occasional panel listing and a new note (paper §2: reads
#: dominate clinical workflows).
READS_PER_CYCLE = 8    # ops 0..7: read own patient's record
SEARCH_SLOT = 8        # op 8: list own patient's records
STORE_SLOT = 9         # op 9: store a fresh note for the panel patient


def _service_under_load() -> tuple[CuratorService, ServiceServer, list[tuple[str, bytes]]]:
    """A wall-clock cluster + service with N_SESSIONS enrolled
    clinicians (each treating their own panel patient) and one seeded
    record per patient."""
    clock = WallClock()
    config = CuratorConfig(
        master_key=MASTER_KEY, clock=clock, signing_keypair=generate_keypair(768)
    )
    cluster = CuratorCluster(config, shards=SHARDS)
    service = CuratorService(
        cluster,
        ServiceConfig(
            port=0,
            queue_limit=max(256, 2 * N_SESSIONS),
            # generous per-actor budget: the gate measures engine +
            # pipeline throughput, not the limiter (E11 admission
            # behavior is covered by tests/service/test_admission.py)
            rate_capacity=10_000.0,
            rate_refill_per_second=10_000.0,
            slow_client_timeout=30.0,
        ),
    )
    credentials: list[tuple[str, bytes]] = []
    for i in range(N_SESSIONS):
        user_id = f"dr-{i:03d}"
        secret = service.enroll(
            User.make(
                user_id,
                f"Clinician {i:03d}",
                [Role.PHYSICIAN],
                "medicine",
                treating={f"pat-{i:03d}"},
            )
        )
        credentials.append((user_id, secret))
    server = ServiceServer(service).start()
    return service, server, credentials


def _note(record_id: str, patient_id: str, text: str) -> dict:
    return {
        "record_id": record_id,
        "patient_id": patient_id,
        "record_type": "clinical_note",
        "created_at": time.time(),
        "body": {"author": "load", "specialty": "medicine", "text": text},
    }


class _Worker:
    """One clinician: wire login once, then a closed loop of reads
    with periodic search and store on a persistent connection."""

    def __init__(self, index: int, host: str, port: int, user_id: str, secret: bytes):
        self.index = index
        self.user_id = user_id
        self.patient_id = f"pat-{index:03d}"
        self.record_id = f"rec-{index:03d}"
        self.secret = secret
        self.client = ServiceClient(host, port, timeout=60.0)
        self.samples: list[tuple[float, float]] = []  # (done_at, latency_s)
        self.ops = {"read": 0, "search": 0, "store": 0}
        self.errors: list[str] = []
        self.logged_in = False

    def prepare(self) -> None:
        """Login + seed outside the measurement window."""
        self.client.login(self.user_id, self.secret)
        self.logged_in = True
        self.client.store(_note(self.record_id, self.patient_id, "baseline note"))

    def run(self, barrier: threading.Barrier, deadline_holder: list[float]) -> None:
        try:
            barrier.wait()
            deadline = deadline_holder[0]
            i = 0
            while time.perf_counter() < deadline:
                slot = i % 10
                i += 1
                start = time.perf_counter()
                try:
                    if slot == STORE_SLOT:
                        self.client.store(
                            _note(
                                f"{self.record_id}-n{i}",
                                self.patient_id,
                                f"follow-up {i}",
                            )
                        )
                        kind = "store"
                    elif slot == SEARCH_SLOT:
                        self.client.patient_records(self.patient_id)
                        kind = "search"
                    else:
                        self.client.read(self.record_id)
                        kind = "read"
                except ServiceClientError as exc:
                    self.errors.append(f"{self.user_id}: {exc}")
                    continue
                done = time.perf_counter()
                self.samples.append((done, done - start))
                self.ops[kind] += 1
        except Exception as exc:  # noqa: BLE001 - counted in the metrics
            self.errors.append(f"{self.user_id}: {type(exc).__name__}: {exc}")
        finally:
            self.client.close()


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return float("nan")
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def test_e11_service_closed_loop_load(benchmark):
    """The headline measurement."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    service, server, credentials = _service_under_load()
    try:
        workers = [
            _Worker(i, server.host, server.port, user_id, secret)
            for i, (user_id, secret) in enumerate(credentials)
        ]

        # Phase 1: every session logs in over the wire and seeds its
        # record, concurrently (this alone exercises 200 simultaneous
        # challenge-response handshakes).
        login_start = time.perf_counter()
        prep_threads = [threading.Thread(target=w.prepare) for w in workers]
        for thread in prep_threads:
            thread.start()
        for thread in prep_threads:
            thread.join()
        login_s = time.perf_counter() - login_start
        sessions = sum(1 for w in workers if w.logged_in)
        assert sessions == N_SESSIONS, [w.errors for w in workers if not w.logged_in][:3]

        # Phase 2: barrier-aligned closed loop.
        deadline_holder = [0.0]
        barrier = threading.Barrier(
            N_SESSIONS + 1,
            action=lambda: deadline_holder.__setitem__(
                0, time.perf_counter() + WARMUP_SECONDS + MEASURE_SECONDS
            ),
        )
        run_threads = [
            threading.Thread(target=w.run, args=(barrier, deadline_holder))
            for w in workers
        ]
        for thread in run_threads:
            thread.start()
        barrier.wait()
        window_start = deadline_holder[0] - MEASURE_SECONDS
        for thread in run_threads:
            thread.join()

        # Only ops *completed inside the window* count toward the
        # sustained rate; latencies come from the same set.
        window = [
            latency
            for worker in workers
            for (done, latency) in worker.samples
            if done >= window_start
        ]
        window.sort()
        total_ops = sum(len(w.samples) for w in workers)
        errors = [e for w in workers for e in w.errors]
        sustained_rps = len(window) / MEASURE_SECONDS
        p50_ms = _percentile(window, 0.50) * 1e3
        p99_ms = _percentile(window, 0.99) * 1e3

        # The admissibility check: every wire request (logins, seeds,
        # loop ops, anything rejected) left a service audit event, and
        # the chain still verifies after the stampede.
        audit_events = len(service.audit_events())
        audit_ok = audit_events >= total_ops + 2 * N_SESSIONS  # + login handshakes
        try:
            service.verify_service_audit()
            chain_ok = True
        except AuditError as exc:
            print(f"service audit: {exc}")
            chain_ok = False
    finally:
        server.stop()
        service.cluster.close()

    mix = {
        kind: sum(w.ops[kind] for w in workers) for kind in ("read", "search", "store")
    }
    print_table(
        f"E11 wire service: {sessions} sessions, closed loop "
        f"({MEASURE_SECONDS:.0f}s window)",
        ["metric", "value"],
        [
            ["concurrent sessions", sessions],
            ["login storm wall time", f"{login_s:6.2f} s"],
            ["ops in window", len(window)],
            ["sustained RPS", f"{sustained_rps:8.1f}"],
            ["p50 latency", f"{p50_ms:7.2f} ms"],
            ["p99 latency", f"{p99_ms:7.2f} ms"],
            ["op mix r/s/w", f"{mix['read']}/{mix['search']}/{mix['store']}"],
            ["errors", len(errors)],
            ["audit events", audit_events],
        ],
    )

    if errors:
        print("first errors:", errors[:5])
    gate(
        "e11_service",
        {
            "sessions": sessions,
            "login_storm_s": round(login_s, 3),
            "ops_in_window": len(window),
            "total_ops": total_ops,
            "sustained_rps": round(sustained_rps, 1),
            "p50_ms": round(p50_ms, 3),
            "p99_ms": round(p99_ms, 3),
            **{f"{kind}_ops": count for kind, count in mix.items()},
            "errors": len(errors),
            "audit_events": audit_events,
            "audit_coverage_ok": int(audit_ok),
            "audit_chain_ok": int(chain_ok),
        },
        {
            "shards": SHARDS,
            "measure_seconds": MEASURE_SECONDS,
        },
    )
