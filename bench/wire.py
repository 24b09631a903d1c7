"""``wire_clinic``: the generator side.  A child server process
(``bench/wire_server.py``), two keep-alive client connections, one
closed loop each, in this one process."""

from __future__ import annotations

import json
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.service.client import ServiceClient, ServiceClientError

from bench import harness
from bench.harness import SpeedGauge, Tally
from bench.trace import Span
from bench.workloads import (
    OUT_DIR,
    SETUP_REPEATS,
    Outcome,
    corpus_generator,
    exact_mix,
    scaled,
    zipf_picker,
)

SERVER = Path(__file__).resolve().parent / "wire_server.py"
CLINICIANS = 2  # == connections == generator threads (nproc here)
PANEL_PATIENTS = 32
OPS_PER_CLINICIAN = 2_400
#: read own / read the other's (must be 403) / patient_records / store
MIX = {"read": 0.78, "denied": 0.02, "query": 0.10, "store": 0.10}


@dataclass
class Clinician:
    user_id: str
    panel: list[str]  # patient ids
    preload: list  # HealthRecord, own panel: 4 per patient
    schedule: list[tuple[str, Any]]
    others: list  # the other clinician's preloaded records


def plan(seed: int, scale: float) -> list[Clinician]:
    generator = corpus_generator()
    panel_size = scaled(PANEL_PATIENTS, scale, 4)
    patients = generator.create_population(CLINICIANS * panel_size)
    ops = scaled(OPS_PER_CLINICIAN, scale, 100)
    panels = [patients[i * panel_size : (i + 1) * panel_size] for i in range(CLINICIANS)]
    clinicians = []
    for index, panel in enumerate(panels):
        preload = []
        for patient in panel:
            preload += [
                generator.note_record(patient).record,
                generator.observation_record(patient).record,
                generator.encounter_record(patient).record,
                generator.note_record(patient).record,
            ]
        clinicians.append(
            Clinician(f"dr-wire-{index}", [p.patient_id for p in panel], preload, [], [])
        )
    for index, (clinician, panel) in enumerate(zip(clinicians, panels)):
        rng = random.Random(f"wire_clinic/{seed}/{index}")
        clinician.others = clinicians[(index + 1) % CLINICIANS].preload
        kinds = exact_mix(rng, MIX, ops)
        # the notes to be stored: round-robin over the panel from the
        # corpus generator, handed out in the seed's order
        notes = [
            generator.note_record(panel[i % len(panel)]).record
            for i in range(kinds.count("store"))
        ]
        rng.shuffle(notes)
        own = iter(zipf_picker(rng, clinician.preload)(ops))
        for kind in kinds:
            if kind == "read":
                what: Any = next(own)
            elif kind == "denied":
                what = rng.choice(clinician.others)
            elif kind == "query":
                what = rng.choice(clinician.panel)
            else:
                what = notes.pop()
            clinician.schedule.append((kind, what))
    return clinicians


def server_spec(clinicians: list[Clinician], trace: bool, spans_path: Path) -> dict:
    return {
        "trace": trace,
        "spans_path": str(spans_path),
        "users": [
            {"user_id": c.user_id, "name": f"Clinician {c.user_id}", "treating": c.panel}
            for c in clinicians
        ],
        "preload": [
            {"author": c.user_id, "records": [r.to_dict() for r in c.preload]}
            for c in clinicians
        ],
    }


class ServerProcess:
    """``bench/wire_server.py`` as a child: JSON lines on its stdin and
    stdout, SIGINT (what Ctrl-C sends ``repro serve``) to stop it."""

    def __init__(self, spec: dict) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(SERVER)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            self._send(spec)
            ready = self._receive("ready")
        except BaseException:
            self.kill()
            raise
        self.port = ready["port"]
        self.secrets = {user: bytes.fromhex(s) for user, s in ready["secrets"].items()}

    def _send(self, message: dict | str) -> None:
        line = message if isinstance(message, str) else json.dumps(message)
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def _receive(self, event: str) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"wire server exited ({self.proc.wait()}) before {event!r}")
        message = json.loads(line)
        if message.get("event") != event:
            raise RuntimeError(f"wire server sent {message!r}, expected {event!r}")
        return message

    def counters(self) -> dict[str, int]:
        self._send("counters")
        return self._receive("counters")["counters"]

    def finish(self) -> dict:
        """Stop serving; the child then verifies, reports and exits."""
        self.proc.send_signal(signal.SIGINT)
        try:
            return self._receive("done")
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


class WireClient:
    """One clinician: one keep-alive connection, one closed loop."""

    def __init__(self, clinician: Clinician, port: int, secret: bytes) -> None:
        self.clinician = clinician
        self.client = ServiceClient("127.0.0.1", port, timeout=60.0)
        self.secret = secret
        self.tally = Tally()
        self.gauge = SpeedGauge()
        self.requests = 0  # every wire request sent, logins included
        self.ops = 0
        self.stored: list = []  # the notes acknowledged
        self.spans: list[tuple[int, int]] = []  # client-observed (start, end) ns
        self.records_of: dict[str, list[str]] = {pid: [] for pid in clinician.panel}
        for record in clinician.preload:
            self.records_of[record.patient_id].append(record.record_id)

    def login(self) -> None:
        self.client.login(self.clinician.user_id, self.secret)
        self.requests += 2  # challenge + login

    def run(self, barrier: threading.Barrier) -> None:
        tally, client, spans, gauge = self.tally, self.client, self.spans, self.gauge
        latency = tally.latency_ms
        clock = time.perf_counter_ns
        barrier.wait()
        gauge.start()
        try:
            for kind, what in self.clinician.schedule:
                tally.attempted += 1
                self.requests += 1
                gauge.tick()
                start = clock()
                try:
                    if kind == "read" or kind == "denied":
                        reply = client.read(what.record_id)
                    elif kind == "query":
                        reply = client.patient_records(what)
                    else:
                        reply = client.store(what.to_dict())
                    error = None
                except ServiceClientError as exc:
                    reply, error = None, exc
                end = clock()
                spans.append((start, end))
                ms = (end - start) / 1e6 * gauge.factor
                if kind == "denied":
                    if error is None:
                        tally.miss("wrongly_allowed")
                    elif (error.status, error.code) != (403, "access_denied"):
                        tally.miss(f"denied_with:{error.status}_{error.code}")
                    else:
                        self.ops += 1
                    continue
                if error is not None:
                    tally.miss(f"{kind}_refused:{error.status}_{error.code}")
                    continue
                if kind == "read":
                    expected = what.to_dict()
                    if {key: getattr(reply, key) for key in expected} != expected:
                        tally.miss("read_wrong_content")
                        continue
                    latency["read"].append(ms)
                elif kind == "query":
                    if list(reply.record_ids) != sorted(self.records_of[what]):
                        tally.miss("query_wrong_ids")
                        continue
                    latency["query"].append(ms)
                else:
                    if (reply.record_id, reply.versions) != (what.record_id, 1):
                        tally.miss("store_wrong_ack")
                        continue
                    self.records_of[what.patient_id].append(what.record_id)
                    self.stored.append(what)
                    latency["store"].append(ms)
                self.ops += 1
        except Exception as exc:  # noqa: BLE001 - a dead connection fails the run
            tally.miss(f"client_died:{type(exc).__name__}")
        finally:
            gauge.stop()


class WireClinic:
    """Closed loop over real sockets against a child server process."""

    name = "wire_clinic"

    @staticmethod
    def _setup(clinicians, trace: bool) -> tuple[ServerProcess, list[WireClient]]:
        OUT_DIR.mkdir(exist_ok=True)
        server = ServerProcess(server_spec(clinicians, trace, OUT_DIR / "server_spans.json"))
        try:
            clients = [WireClient(c, server.port, server.secrets[c.user_id]) for c in clinicians]
            for client in clients:
                client.login()
        except BaseException:
            server.kill()
            raise
        return server, clients

    def run(
        self, seed: int, scale: float, trace: bool, *, reference_only: bool = False
    ) -> Outcome:
        clinicians = plan(seed, scale)
        gauge = SpeedGauge()
        setup_s: list[float] = []
        server = None
        for _ in range(1 if (trace or reference_only) else SETUP_REPEATS):
            if server is not None:
                for client in clients:
                    client.client.close()
                server.kill()
            (server, clients), seconds, _raw = gauge.timed(
                lambda: self._setup(clinicians, trace)
            )
            setup_s.append(seconds)
        try:
            before = server.counters() if trace else {}
            barrier = threading.Barrier(len(clients) + 1)
            threads = [
                threading.Thread(target=client.run, args=(barrier,), name=client.clinician.user_id)
                for client in clients
            ]
            for thread in threads:
                thread.start()
            barrier.wait()
            begin = time.perf_counter_ns()
            for thread in threads:
                thread.join()
            end = time.perf_counter_ns()
            after = server.counters() if trace else {}
            # connections stay open (idle keep-alive) until the server has
            # stopped: closing them first races its shutdown
            report = server.finish()
            for client in clients:
                client.client.close()
        except BaseException:
            server.kill()
            raise
        tally = Tally()
        for client in clients:
            tally.merge(client.tally)
        requests = sum(client.requests for client in clients)
        preloaded = [record for c in clinicians for record in c.preload]
        for check, passed in (
            ("verify_integrity", report["integrity_ok"]),
            ("verify_audit_trail", report["audit_trail_ok"]),
            ("verify_service_audit", report["service_audit_ok"]),
            ("device_over_capacity", report["fullest_device"] <= harness.MAX_DEVICE_FILL),
            ("preload_short", report["preloaded"] == len(preloaded)),
            # exactly one service audit event per request sent, logins included
            ("audit_events_ne_requests", report["api_audit_events"] == requests),
        ):
            tally.attempted += 1
            if not passed:
                tally.miss(check)
        # clients run side by side, each for its own span of the window:
        # the loop's rate is the sum of theirs
        window_s = sum(c.ops for c in clients) / sum(
            c.ops / c.gauge.scaled_s for c in clients
        )
        outcome = Outcome(
            tally=tally,
            ops=sum(client.ops for client in clients),
            window_s=window_s,
            raw_window_s=statistics.mean(c.gauge.raw_s for c in clients),
            window_ns=(begin, end),
            setup_s=setup_s,
            verify_s=report["verify_s"],
            user_bytes=harness.user_bytes(
                preloaded + [note for client in clients for note in client.stored]
            ),
            stored_bytes=report["stored_bytes"],
            peak_rss_mb=report["peak_rss_mb"],
            burst_ms=statistics.median(
                ms for client in clients for ms in client.gauge.bursts_ms
            ),
            clients=len(clients),
            counters=harness.counter_delta(before, after) if trace else {},
            records_stored=sum(len(client.stored) for client in clients),
        )
        if trace:
            self._merge_spans(outcome, clients, Path(report["spans_path"]))
        return outcome

    @staticmethod
    def _merge_spans(outcome: Outcome, clients: list[WireClient], path: Path) -> None:
        """One trace from two processes: each client-observed request is
        a root span of layer ``service.http``; the server's
        ``handle_request`` span that carried the same bearer token, in
        order (the loop is closed, so order is identity), is its child."""
        dumped = json.loads(path.read_text())
        path.unlink()
        names: list[str] = dumped["names"]
        layer_of: list[str] = dumped["layers"]
        spans = [Span(*row) for row in dumped["spans"]]
        handle = names.index("repro.service.service:CuratorService.handle_request")
        names.append("bench.wire:WireClient.run/request")
        layer_of.append("service.http")
        next_id = max((span.sid for span in spans), default=0) + 1
        parent_of: dict[int, int] = {}
        for index, client in enumerate(clients):
            served = sorted(
                (
                    span
                    for span in spans
                    if span.name == handle
                    and dumped["tags"].get(str(span.sid)) == client.client.bearer
                ),
                key=lambda span: span.start,
            )
            if len(served) != len(client.spans):
                raise RuntimeError(
                    f"{client.clinician.user_id}: {len(client.spans)} requests sent, "
                    f"{len(served)} handle_request spans"
                )
            for (start, end), inner in zip(client.spans, served):
                spans.append(Span(next_id, 0, len(names) - 1, -1 - index, start, end))
                parent_of[inner.sid] = next_id
                next_id += 1
        outcome.spans = [
            span._replace(parent=parent_of[span.sid]) if span.sid in parent_of else span
            for span in spans
        ]
        outcome.span_names, outcome.span_layers = names, layer_of
