"""The one table that says where the layers of the served path begin.

Each row is ``(layer, "module:attribute.path")``.  The layer is named
after its module under ``src/repro``; the target is a public callable
of that module.  In the traced run (never the timed one)
:class:`bench.trace.Tracer` replaces each target with a wrapper that
records a span; nothing in ``src/`` knows about it.

Module-level functions that callers import by name (``from
repro.crypto.aead import encrypt_many``) are listed once per binding
site, because rebinding the defining module would not reach them.
"""

from __future__ import annotations

#: Outermost first; this is also the row order of the printed waterfall.
LAYERS: tuple[str, ...] = (
    "service.http",
    "service.auth",
    "service.admission",
    "service.service",
    "policy",
    "cluster",
    "core",
    "crypto.keys",
    "crypto.aead",
    "crypto.signatures",
    "provenance",
    "worm",
    "storage.journal",
    "storage.block",
    "index",
    "audit",
    "archive",
)

#: ``service.http`` has no row: its span is the client-observed request
#: in the generator process (see ``bench/workloads.py``), so that its
#: self time is client latency minus the ``handle_request`` span.
BOUNDARIES: tuple[tuple[str, str], ...] = (
    ("service.service", "repro.service.service:CuratorService.handle_request"),
    ("service.auth", "repro.service.auth:SessionBroker.request_challenge"),
    ("service.auth", "repro.service.auth:SessionBroker.login"),
    ("service.auth", "repro.service.auth:SessionBroker.validate_bearer"),
    ("service.admission", "repro.service.admission:AdmissionController.admit"),
    ("service.admission", "repro.service.admission:AdmissionController.release"),
    ("policy", "repro.policy.engine:PolicyEngine.decide"),
    ("cluster", "repro.cluster.router:CuratorCluster.store"),
    ("cluster", "repro.cluster.router:CuratorCluster.store_many"),
    ("cluster", "repro.cluster.router:CuratorCluster.read"),
    ("cluster", "repro.cluster.router:CuratorCluster.search"),
    ("cluster", "repro.cluster.router:CuratorCluster.records_of_patient"),
    ("cluster", "repro.cluster.router:CuratorCluster.version_count"),
    ("cluster", "repro.cluster.router:CuratorCluster.demote_records"),
    ("core", "repro.core.engine:CuratorStore.store"),
    ("core", "repro.core.engine:CuratorStore.store_many"),
    ("core", "repro.core.engine:CuratorStore.read"),
    ("core", "repro.core.engine:CuratorStore.search"),
    ("core", "repro.core.engine:CuratorStore.records_of_patient"),
    ("core", "repro.core.engine:CuratorStore.version_count"),
    ("core", "repro.core.engine:CuratorStore.demote_records"),
    ("crypto.keys", "repro.crypto.keys:KeyStore.create_key"),
    ("crypto.keys", "repro.crypto.keys:KeyStore.create_keys"),
    ("crypto.keys", "repro.crypto.keys:KeyStore.cipher_for"),
    ("crypto.aead", "repro.crypto.aead:AeadCipher.encrypt"),
    ("crypto.aead", "repro.crypto.aead:AeadCipher.decrypt"),
    ("crypto.aead", "repro.core.engine:aead_encrypt_many"),
    ("crypto.aead", "repro.crypto.keys:encrypt_many"),
    ("crypto.aead", "repro.index.trustworthy:encrypt_many"),
    ("crypto.aead", "repro.index.trustworthy:decrypt_many"),
    ("crypto.signatures", "repro.crypto.signatures:Signer.sign"),
    ("crypto.signatures", "repro.crypto.signatures:Signer.sign_batch"),
    ("provenance", "repro.provenance.chain:CustodyRegistry.record_origin"),
    ("provenance", "repro.provenance.chain:CustodyRegistry.record_origins"),
    ("worm", "repro.worm.store:WormStore.put"),
    ("worm", "repro.worm.store:WormStore.put_many"),
    ("worm", "repro.worm.store:WormStore.get"),
    ("storage.journal", "repro.storage.journal:Journal.append"),
    ("storage.journal", "repro.storage.journal:Journal.append_many"),
    ("storage.journal", "repro.storage.journal:Journal.append_scattered"),
    ("storage.journal", "repro.storage.journal:Journal.read"),
    ("storage.block", "repro.storage.block:BlockDevice.write"),
    ("storage.block", "repro.storage.block:BlockDevice.writev"),
    ("storage.block", "repro.storage.block:BlockDevice.read"),
    ("index", "repro.index.trustworthy:TrustworthyIndex.add_document"),
    ("index", "repro.index.trustworthy:TrustworthyIndex.add_documents"),
    ("index", "repro.index.trustworthy:TrustworthyIndex.search"),
    ("audit", "repro.audit.log:AuditLog.append"),
    ("audit", "repro.audit.log:AuditLog.begin_batch"),
    ("audit", "repro.audit.log:AuditLog.commit"),
    ("archive", "repro.archive.cold:ColdStore.read_sealed"),
    ("archive", "repro.archive.cold:ColdStore.verify_sealed"),
    ("archive", "repro.archive.cold:ColdStore.write_segment"),
)

#: Spans whose call count is ``crypto.signatures.signs_per_record``.
SIGN_TARGETS = frozenset(
    target for layer, target in BOUNDARIES if layer == "crypto.signatures"
)

#: Boundaries whose spans carry a tag.  ``handle_request`` is tagged with
#: the bearer token it was called with, which is how the generator pairs
#: each request it sent with the server-side span that served it.
TAGS = {
    "repro.service.service:CuratorService.handle_request": (
        lambda _service, request: request.bearer
    ),
}
