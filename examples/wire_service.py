"""The quickstart over the wire: serve, log in, store, search, read, audit.

Runs an in-process v1 service over a two-shard cluster, logs a
physician in with a challenge-response secret, and drives every
operation through a real HTTP client, so each call is attributed to the
authenticated session actor.  An unauthorized probe (physicians may not
read the audit trail) is refused with its deciding rule, and the
refusal lands in the service's own audit chain next to everything else.

Run:  python examples/wire_service.py
"""

import secrets

from repro import CuratorCluster, CuratorConfig
from repro.access import Role, User
from repro.records import ClinicalNote
from repro.service import (
    CuratorService,
    ServiceClient,
    ServiceClientError,
    ServiceConfig,
    ServiceServer,
)


def main() -> None:
    cluster = CuratorCluster(
        CuratorConfig(master_key=secrets.token_bytes(32), site_id="demo"), shards=2
    )
    service = CuratorService(cluster, ServiceConfig(port=0))
    secret = service.enroll(
        User.make("dr-demo", "Dr Demo", [Role.PHYSICIAN], "cardiology", treating={"pat-1"})
    )
    server = ServiceServer(service).start()
    print(f"in-process service on {server.base_url}")
    try:
        client = ServiceClient(server.host, server.port)
        envelope = client.login("dr-demo", secret)
        print(f"logged in as {envelope.user_id} (session {envelope.session_id})")
        note = ClinicalNote.create(
            record_id="rec-1",
            patient_id="pat-1",
            created_at=1.17e9,
            author="dr-demo",
            specialty="cardiology",
            text="patient reports palpitations; echocardiogram ordered",
        )
        stored = client.store(note.to_dict())
        print(f"stored {stored.record_id} (version {stored.versions})")
        print("search('palpitations') ->", list(client.search("palpitations").record_ids))
        record = client.read("rec-1")
        print(f"read {record.record_id}: {record.body['text']!r}")
        try:  # an unauthorized probe: physicians may not read the audit trail
            client.audit_query()
        except ServiceClientError as exc:
            print(f"audit probe denied: {exc.status} {exc.code} "
                  f"(rule {exc.rule_id or 'default:deny'})")
        print("service audit chain (every wire call, including the denial):")
        for event in service.audit_events():
            print(f"  [{event.sequence:03d}] {event.action.value:<17} "
                  f"{event.actor_id:<10} {event.subject_id}")
        service.verify_service_audit()
        print("service audit chain verifies")
    finally:
        server.stop()
        cluster.close()


if __name__ == "__main__":
    main()
