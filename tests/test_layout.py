"""Layout ratchets: file sizes under ``src/repro/core/`` and the public
surface of ``CuratorStore``.  Parts may move between modules; neither
the engine's size nor its surface may drift without this file
changing in the same diff."""

from pathlib import Path

import repro.core
from repro.core.engine import CuratorStore

CORE_LINE_LIMIT = 1_300

#: ``StorageModel``, ``ShardWorkerProxy.__getattr__``, the router and
#: rebalancer lambdas, and ``bench/layers.py`` all bind these by name.
CURATOR_STORE_PUBLIC_NAMES = [
    "accounting_of_disclosures",
    "adopt_audit_delta",
    "adopt_consent_directives",
    "attach",
    "attachments_of",
    "audit_devices",
    "audit_events",
    "audit_log",
    "audit_query",
    "authenticator",
    "break_glass",
    "breakglass",
    "checkpoints",
    "cold",
    "cold_record_ids",
    "consent",
    "correct",
    "create_backup",
    "custody",
    "declared_features",
    "demote_records",
    "demotion_candidates",
    "demotion_sweep",
    "devices",
    "dirty_record_ids",
    "dispose",
    "enroll_user",
    "explain_access",
    "export_audit_delta",
    "export_consent_directives",
    "export_deidentified",
    "export_patient_history",
    "import_patient_history",
    "imported_segment_snapshot",
    "index",
    "insider_keys",
    "media_pool",
    "medium",
    "model_name",
    "patient_history_digests",
    "patient_ids",
    "place_hold",
    "policy",
    "prepare_access_probe",
    "principal",
    "prove_audit_event",
    "provenance",
    "read",
    "read_attachment",
    "read_version",
    "read_view",
    "read_with_session",
    "record_ids",
    "records_in_window",
    "records_of_patient",
    "recover_from_devices",
    "refresh_media",
    "register_user",
    "release_hold",
    "restore_from_backup",
    "retention_sweep",
    "retire_patient",
    "revoke_break_glass",
    "search",
    "segment_attestation",
    "signer",
    "store",
    "store_many",
    "supports",
    "tier_stats",
    "vault",
    "verify_audit_trail",
    "verify_integrity",
    "version_count",
    "witness",
    "worm",
]


def test_no_core_module_outgrows_the_limit():
    sizes = {
        path.name: len(path.read_text().splitlines())
        for path in Path(repro.core.__file__).parent.glob("*.py")
    }
    assert sizes["engine.py"] > 0
    oversized = {name: n for name, n in sizes.items() if n > CORE_LINE_LIMIT}
    assert not oversized, f"over {CORE_LINE_LIMIT} lines: {oversized}"


def test_curator_store_public_surface_is_the_literal_list():
    names = sorted(name for name in dir(CuratorStore) if not name.startswith("_"))
    assert names == CURATOR_STORE_PUBLIC_NAMES
