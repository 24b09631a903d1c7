"""The server side of ``wire_clinic``: a child process that composes
``CuratorCluster`` → ``CuratorService`` → ``ServiceServer.run_forever()``
exactly as ``repro.cli._serve`` does, with the product's default
configuration.

Protocol (JSON lines; the generator process is the parent):

* stdin, first line: the spec — users to enrol, records to preload,
  whether to trace;
* stdout ``{"event": "ready", "port": ..., "secrets": {...}}`` once the
  socket is bound;
* stdin ``counters`` → stdout ``{"event": "counters", ...}``;
* SIGINT (what Ctrl-C sends ``repro serve``) ends ``run_forever``; the
  process then runs the mandatory full verification, dumps its spans if
  it traced, prints ``{"event": "done", ...}`` and exits.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.access.principals import Role, User  # noqa: E402
from repro.audit.events import AuditAction  # noqa: E402
from repro.errors import CuratorError  # noqa: E402
from repro.records.model import HealthRecord  # noqa: E402
from repro.service import CuratorService, ServiceConfig, ServiceServer  # noqa: E402
from repro.util.clock import WallClock  # noqa: E402

from bench import harness, layers  # noqa: E402
from bench.trace import Tracer  # noqa: E402


def _say(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def main() -> int:
    # a background job of a non-interactive shell inherits SIGINT ignored
    signal.signal(signal.SIGINT, signal.default_int_handler)
    spec = json.loads(sys.stdin.readline())
    tracer = None
    if spec["trace"]:
        tracer = Tracer(layers.BOUNDARIES, layers.TAGS).install()

    cluster = harness.build_cluster(WallClock())
    service = CuratorService(
        cluster,
        ServiceConfig(
            port=0,
            # raised so that the limiter is not what is measured
            queue_limit=256,
            rate_capacity=1e9,
            rate_refill_per_second=1e9,
        ),
    )
    secrets = {}
    for user in spec["users"]:
        secrets[user["user_id"]] = service.enroll(
            User.make(
                user["user_id"], user["name"], [Role.PHYSICIAN], "medicine",
                treating=user["treating"],
            )
        ).hex()
    preloaded = 0
    for feed in spec["preload"]:
        records = [HealthRecord.from_dict(raw) for raw in feed["records"]]
        for offset in range(0, len(records), 64):
            preloaded += cluster.store_many(records[offset : offset + 64], feed["author"])

    server = ServiceServer(service)

    def control() -> None:
        while not server.port:  # run_forever() publishes the bound port
            time.sleep(0.001)
        _say({"event": "ready", "port": server.port, "secrets": secrets})
        for line in sys.stdin:
            if line.strip() == "counters":
                _say({"event": "counters", "counters": harness.read_counters(cluster)})

    threading.Thread(target=control, daemon=True, name="bench-control").start()
    try:
        server.run_forever()

        tally = harness.Tally()
        closing = harness.verify_and_measure(cluster, tally, harness.SpeedGauge())
        try:
            service.verify_service_audit()
            service_audit_ok = True
        except CuratorError:
            service_audit_ok = False
        api_events = sum(
            1
            for event in service.audit_events()
            if event.action in (AuditAction.API_REQUEST, AuditAction.API_REJECTED)
        )
        if tracer is not None:
            tracer.uninstall()
            Path(spec["spans_path"]).write_text(
                json.dumps(
                    {
                        "names": [target for _layer, target in tracer.boundaries],
                        "layers": [layer for layer, _target in tracer.boundaries],
                        "spans": tracer.spans(),
                        "tags": tracer.tags,
                    }
                )
            )
        _say(
            {
                "event": "done",
                "integrity_ok": not tally.failures["verify_integrity"],
                "audit_trail_ok": not tally.failures["verify_audit_trail"],
                "service_audit_ok": service_audit_ok,
                "api_audit_events": api_events,
                "preloaded": preloaded,
                "verify_s": closing["verify_s"],
                "stored_bytes": closing["stored_bytes"],
                "fullest_device": closing["fullest_device"],
                "peak_rss_mb": harness.peak_rss_mb(),
                "spans_path": spec["spans_path"],
            }
        )
    finally:
        cluster.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
