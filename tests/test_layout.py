"""Layout ratchets: file sizes under ``src/repro/core/`` and
``src/repro/cluster/``, the public surfaces of ``CuratorStore`` and
``CuratorCluster``, and the cluster's one-of-each rules.  Parts may move
between modules; neither a size nor a surface may drift without this
file changing in the same diff."""

import re
from pathlib import Path

import repro.cluster
import repro.core
from repro.cluster.router import CuratorCluster
from repro.cluster.workers import ENGINE_CALLS
from repro.core.engine import CuratorStore

CORE_LINE_LIMIT = 1_300
CLUSTER_LINE_LIMIT = 800

#: ``StorageModel``, ``repro.cluster.workers.ENGINE_CALLS``, the router
#: and rebalancer lambdas, and ``bench/layers.py`` all bind these by name.
CURATOR_STORE_PUBLIC_NAMES = [
    "accounting_of_disclosures",
    "adopt_access_state",
    "adopt_audit_delta",
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
    "export_access_state",
    "export_audit_delta",
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

#: The wire service, the CLI, the oracles and ``bench/layers.py`` bind these.
CURATOR_CLUSTER_PUBLIC_NAMES = [
    "accounting_of_disclosures",
    "attach",
    "attachments_of",
    "audit_devices",
    "audit_events",
    "break_glass",
    "close",
    "cold_record_ids",
    "compliance_findings",
    "config",
    "correct",
    "create_backup",
    "declared_features",
    "demote_records",
    "demotion_sweep",
    "device_sets",
    "devices",
    "dispose",
    "export_deidentified",
    "insider_keys",
    "manifest",
    "model_name",
    "place_hold",
    "policy_ruleset",
    "prepare_access_probe",
    "read",
    "read_attachment",
    "read_version",
    "read_view",
    "rebalance",
    "record_ids",
    "records_in_window",
    "records_of_patient",
    "recover_from_devices",
    "recover_interrupted_moves",
    "recovery_reports",
    "register_user",
    "release_hold",
    "restore_from_backup",
    "retention_sweep",
    "revoke_break_glass",
    "ring",
    "salvage_report",
    "search",
    "shard_count",
    "shard_for",
    "shard_ids",
    "shard_of_record",
    "shards",
    "store",
    "store_many",
    "supports",
    "tier_stats",
    "verify_audit_trail",
    "verify_integrity",
    "verify_move_proof",
    "version_count",
    "worker_count",
]


def _sources(package) -> dict[str, str]:
    return {
        path.name: path.read_text()
        for path in Path(package.__file__).parent.glob("*.py")
    }


def _oversized(package, limit: int) -> dict[str, int]:
    sizes = {name: len(text.splitlines()) for name, text in _sources(package).items()}
    return {name: n for name, n in sizes.items() if n > limit}


def test_no_core_module_outgrows_the_limit():
    assert "engine.py" in _sources(repro.core)
    oversized = _oversized(repro.core, CORE_LINE_LIMIT)
    assert not oversized, f"over {CORE_LINE_LIMIT} lines: {oversized}"


def test_no_cluster_module_outgrows_the_limit():
    assert "router.py" in _sources(repro.cluster)
    oversized = _oversized(repro.cluster, CLUSTER_LINE_LIMIT)
    assert not oversized, f"over {CLUSTER_LINE_LIMIT} lines: {oversized}"


def test_curator_store_public_surface_is_the_literal_list():
    names = sorted(name for name in dir(CuratorStore) if not name.startswith("_"))
    assert names == CURATOR_STORE_PUBLIC_NAMES


def test_curator_cluster_public_surface_is_the_literal_list():
    names = sorted(name for name in dir(CuratorCluster) if not name.startswith("_"))
    assert names == CURATOR_CLUSTER_PUBLIC_NAMES


def test_every_call_a_shard_worker_serves_is_a_public_engine_name():
    assert ENGINE_CALLS <= set(CURATOR_STORE_PUBLIC_NAMES)


def test_the_cluster_keeps_one_of_each():
    """One ring type, one place a topology snapshot is built and its
    manifest sealed, one write gate, an explicit worker call table, and
    a rebalancer that is handed its parts."""
    sources = _sources(repro.cluster)
    everything = "\n".join(sources.values())

    def sites(pattern: str, skip: str = "") -> list[str]:
        return [
            name
            for name, text in sources.items()
            for _ in re.finditer(pattern, text)
            if name != skip
        ]

    assert not re.search(r"HashRing|isinstance\([^)]*[Rr]ing", everything)
    assert sites(r"\b_Topology\(") == ["topology.py"]
    assert sites(r"\bClusterManifest\(", skip="manifest.py") == ["topology.py"]
    assert sites(r"not ticket\.held\(\)") == ["dispatch.py", "router.py"]
    assert "__getattr__" not in sources["workers.py"]
    assert not re.search(r"cluster\._|_cluster\b", sources["rebalancer.py"])
