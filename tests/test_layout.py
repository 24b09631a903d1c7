"""Layout ratchets: file sizes under ``src/repro/core/``,
``src/repro/cluster/``, ``src/repro/verify/`` and ``src/repro/service/``,
the size of ``src/repro/cli.py`` and of ``src/repro`` as a whole, the public surfaces of
``CuratorStore`` and ``CuratorCluster``, the scenario-table rows callers
ask for by name, and the engine's, the cluster's, the oracles', the wire
service's, the policy's, the verification sweeps' and destruction's
one-of-each rules, and a package that imports nothing outside the
standard library.  Parts may move between modules; neither a size nor
a surface may drift without this file changing in the same diff."""

import inspect
import os
import re
import subprocess
import sys
import textwrap
from operator import attrgetter
from pathlib import Path

import repro.cli
import repro.cluster
import repro.core
import repro.service
import repro.verify
from repro.cluster.router import CuratorCluster
from repro.cluster.workers import ENGINE_CALLS
from repro.archive.cold import ColdStore
from repro.core.config import CuratorConfig
from repro.core.engine import CuratorStore
from repro.policy.model import CheckResult
from repro.retention.shredder import SecureShredder
from repro.storage.media import Medium

CORE_LINE_LIMIT = 858
CLUSTER_LINE_LIMIT = 800
VERIFY_LINE_LIMIT = 800
SERVICE_LINE_LIMIT = 800
#: The operator CLI (``info``, ``serve``, ``client``, ``verify``,
#: ``policy``); walkthroughs belong in ``examples/``.
CLI_LINE_LIMIT = 450
#: Every ``*.py`` line under ``src/repro`` (ROADMAP item 3's scoreboard:
#: 26,424 when the round began).  Lower it with each PR that deletes;
#: never raise it to fit one that adds.
TREE_LINE_LIMIT = 24_111

#: ``StorageModel``, ``repro.cluster.workers.ENGINE_CALLS``, the router
#: and rebalancer lambdas, and ``bench/layers.py`` all bind these by name.
#: Read on an instance: the collaborators are attributes set in ``_wire``.
CURATOR_STORE_PUBLIC_NAMES = [
    "accounting_of_disclosures",
    "attach",
    "attachments_of",
    "audit_devices",
    "audit_events",
    "audit_log",
    "audit_query",
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
    "demotion_sweep",
    "device_set",
    "devices",
    "dispose",
    "export_deidentified",
    "index",
    "insider_keys",
    "media_pool",
    "medium",
    "model_name",
    "patient_ids",
    "place_hold",
    "policy",
    "prepare_access_probe",
    "principal",
    "prove_audit_event",
    "read",
    "read_attachment",
    "read_version",
    "read_view",
    "record_ids",
    "records_in_window",
    "records_of_patient",
    "recover_from_devices",
    "recovery_report",
    "refresh_media",
    "register_user",
    "release_hold",
    "restore_from_backup",
    "retention_sweep",
    "revoke_break_glass",
    "search",
    "signer",
    "store",
    "store_many",
    "supports",
    "tier_stats",
    "transfer",
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
    "config",
    "correct",
    "create_backup",
    "declared_features",
    "demote_records",
    "demotion_sweep",
    "device_sets",
    "devices",
    "dispose",
    "insider_keys",
    "manifest",
    "model_name",
    "place_hold",
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


#: E6b, E8, E9b and the oracle tests ask the scenario table for these
#: rows by name.
_FRESH_TAMPERS = [
    "audit_chain_field_edit",
    "audit_prefix_rewrite",
    "audit_suffix_rewrite",
    "audit_truncation",
    "cold_manifest_rot",
    "cold_recall_truncation",
    "cold_segment_body_rot",
    "index_chunk_reorder",
    "index_chunk_replay",
    "index_chunk_rot",
    "index_chunk_swap",
    "index_fold_drop",
    "index_tail_rollback",
    "no_tamper_control",
    "refresh_after_rot",
    "watermark_destruction",
    "watermark_forgery",
    "worm_batch_member_decay",
    "worm_batch_member_rot",
    "worm_clean_object_rot",
    "worm_dirty_object_rot",
]
ASKED_FOR_ROWS = sorted(
    [
        *(
            f"{deployment}/fresh/{tamper}"
            for deployment in ("engine", "shard-00", "shard-01")
            for tamper in _FRESH_TAMPERS
        ),
        *(
            f"{deployment}/restored/worm_clean_object_rot"
            for deployment in ("engine", "shard-00", "shard-01")
        ),
        "engine/refreshed/worm_clean_object_rot",
        "shard-00/grown/no_tamper_control",
        "shard-00/grown/worm_clean_object_rot",
        "shard-00/grown/stale_source_rot",
        "shard-00/crashed_move/worm_clean_object_rot",
        "shard-00/rotted_arrival/worm_clean_object_rot",
    ]
)
SCENARIO_ROWS = 417


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


def test_no_service_module_outgrows_the_limit():
    assert "service.py" in _sources(repro.service)
    oversized = _oversized(repro.service, SERVICE_LINE_LIMIT)
    assert not oversized, f"over {SERVICE_LINE_LIMIT} lines: {oversized}"


def test_the_cli_holds_no_demos():
    lines = len(Path(repro.cli.__file__).read_text().splitlines())
    assert lines <= CLI_LINE_LIMIT, f"cli.py is {lines} lines"


def test_the_source_tree_only_shrinks():
    total = sum(
        len(path.read_text().splitlines())
        for path in Path(repro.__file__).parent.rglob("*.py")
    )
    assert total <= TREE_LINE_LIMIT, f"src/repro is {total} lines"


def test_the_package_needs_only_the_standard_library():
    """Importing every ``repro`` module (bar ``__main__``, which runs
    the CLI) loads nothing outside ``repro`` and the standard library:
    the package has no runtime dependency.  A fresh interpreter, so what
    the test runner loaded does not count; the baseline is taken after
    start-up, so what the interpreter's site hooks preload does not
    either."""
    script = textwrap.dedent(
        """
        import importlib, pkgutil, sys
        before = set(sys.modules)
        import repro
        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            if module.name != "repro.__main__":
                importlib.import_module(module.name)
        loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
        # multiprocessing files __main__ under a second name
        ours = {"repro", "__mp_main__"}
        print(sorted(loaded - ours - set(sys.stdlib_module_names)))
        """
    )
    src = str(Path(repro.__file__).parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]", result.stdout


def test_curator_store_public_surface_is_the_literal_list():
    store = CuratorStore(CuratorConfig(master_key=bytes(32)))
    names = sorted(name for name in dir(store) if not name.startswith("_"))
    assert names == CURATOR_STORE_PUBLIC_NAMES


def test_the_engine_keeps_one_of_each():
    """One decision path: ``PolicyEngine.decide`` is called under
    ``core/`` only by ``Access``.  One anchored append: no
    ``maybe_anchor`` anywhere, and every ``core/`` module reaches the
    audit chain only by ``AnchorSchedule.append``, never by an audit
    log's own ``append``.  One way to open a store: no class has a
    ``recover`` classmethod beside its constructor, and ``_wire`` takes
    the devices a restart opens (the :meth:`device_set` names), never a
    pre-built collaborator."""
    core = _sources(repro.core)
    assert [name for name, text in core.items() if ".decide(" in text] == ["access.py"]
    everything = "\n".join(
        path.read_text() for path in Path(repro.__file__).parent.rglob("*.py")
    )
    assert "maybe_anchor" not in everything
    assert {"engine.py", "transfer.py", "recovery.py"} <= set(core)
    for name, text in core.items():
        direct = re.findall(r"\b(?:audit|audit_log|_audit|log)\.append\(", text)
        assert not direct, (name, direct)
    assert not re.search(r"@classmethod\s+def recover\(", everything)
    devices = list(CuratorStore(CuratorConfig(master_key=bytes(32))).device_set())
    wire = list(inspect.signature(CuratorStore._wire).parameters)
    assert wire == ["self", "config", *devices, "signer", "witnesses"]


def test_curator_cluster_public_surface_is_the_literal_list():
    names = sorted(name for name in dir(CuratorCluster) if not name.startswith("_"))
    assert names == CURATOR_CLUSTER_PUBLIC_NAMES


def test_every_call_a_shard_worker_serves_is_a_public_engine_name():
    """Each worker call resolves, by path, to a callable on an engine
    whose first step is a public name; a part's method is called on the
    part (``transfer.retire_patient``), so no engine forward of the same
    name is kept beside it."""
    store = CuratorStore(CuratorConfig(master_key=bytes(32)))
    for call in ENGINE_CALLS:
        assert call.split(".")[0] in CURATOR_STORE_PUBLIC_NAMES, call
        assert callable(attrgetter(call)(store)), call
    for call in (call for call in ENGINE_CALLS if "." in call):
        assert not hasattr(store, call.rpartition(".")[2]), call


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


def test_the_service_keeps_one_of_each():
    """One session broker, one wire codec (plus ``ErrorBody``'s
    envelope), one compiled service ruleset, one place an error body is
    built, and a transport whose connection thread calls
    ``handle_request`` itself: no event loop, no executor."""
    sources = _sources(repro.service)
    everything = "\n".join(
        path.read_text() for path in Path(repro.__file__).parent.rglob("*.py")
    )
    assert "Authenticator" not in everything
    assert not (Path(repro.__file__).parent / "access" / "sessions.py").exists()
    for codec in (r"def to_wire\(", r"def from_wire\("):
        assert len(re.findall(codec, sources["api.py"])) == 2
        assert not re.search(codec, everything.replace(sources["api.py"], ""))
    assert len(re.findall(r"PolicyEngine\(SERVICE_RULES\)", everything)) == 1
    assert len(re.findall(r"(?<!class )\bErrorBody\(", everything)) == 1
    http = sources["http.py"]
    assert not re.search(r"^\s*(import|from)\s+(asyncio|concurrent)\b", http, re.M)
    assert len(re.findall(r"\bhandle_request\(", http)) == 1


def test_the_policy_keeps_one_of_each():
    """Rules are declared, not compiled: no capability table and no
    compiler remain, each ruleset constant is defined once, and every
    engine decides with a declared ruleset (the lint's enumerator, which
    is handed the ruleset it checks, aside).  Every request is decided
    from the rules: no decision cache, no cacheable flag on a condition's
    answer, no purge hook for destruction to call, and the engine builds
    a decision in one place besides the default deny."""
    sources = {
        path.relative_to(Path(repro.__file__).parent).as_posix(): path.read_text()
        for path in Path(repro.__file__).parent.rglob("*.py")
    }
    everything = "\n".join(sources.values())
    assert not re.search(r"_ROLE_PERMISSIONS|_PURPOSE_RULES|\bcompile_\w+\(", everything)
    assert not (Path(repro.__file__).parent / "policy" / "compiler.py").exists()
    for name in ("DEFAULT", "SESSION", "SERVICE", "DISPOSITION", "BREAKGLASS"):
        assert len(re.findall(rf"^{name}_RULES = ", everything, re.M)) == 1
    engines = [
        (path, rules)
        for path, text in sources.items()
        for rules in re.findall(r"\bPolicyEngine\(\s*(\w*)", text)
    ]
    assert len(engines) == 7
    for path, rules in engines:
        assert re.fullmatch(r"[A-Z]+_RULES", rules) or (path, rules) == (
            "policy/lint.py",
            "rules",
        ), (path, rules)
    cache = r"OrderedDict|purge_decisions|cacheable|CACHE_SIZE|bind_policy"
    for path, text in sources.items():
        if path.startswith(("policy/", "retention/")):
            assert not re.findall(cache, text), (path, re.findall(cache, text))
    assert CheckResult._fields == ("ok", "detail")
    assert sources["policy/engine.py"].count("Decision(") <= 2


def test_no_verify_module_outgrows_the_limit():
    assert "equivalence.py" in _sources(repro.verify)
    oversized = _oversized(repro.verify, VERIFY_LINE_LIMIT)
    assert not oversized, f"over {VERIFY_LINE_LIMIT} lines: {oversized}"


def test_the_oracles_keep_their_names():
    """Callers ask the one table for rows by name; there is no second
    naming scheme and no per-bar runner."""
    from repro.verify import equivalence

    table = equivalence.scenarios()
    assert len(ASKED_FOR_ROWS) == 72
    assert set(ASKED_FOR_ROWS) <= set(table)
    assert len(table) == SCENARIO_ROWS
    assert callable(repro.verify.run_scenario_table)
    for retired in (
        "LEGACY_NAMES",
        "run_detection_equivalence",
        "run_cluster_detection_equivalence",
        "run_rebalance_detection_equivalence",
    ):
        assert not hasattr(equivalence, retired)
        assert not hasattr(repro.verify, retired)


def test_each_store_keeps_one_verification_sweep():
    """A full pass is the incremental pass with nothing trusted: one
    rotation helper serves every clean sample, no store keeps a cursor of
    its own, the WORM and cold full passes are their dirty sweeps with no
    sample, and the audit log has one replay loop and one frame check."""
    root = Path(repro.__file__).parent
    sources = {
        path.relative_to(root).as_posix(): path.read_text()
        for path in root.rglob("*.py")
    }
    rotations = [path for path, text in sources.items() if "class Rotation" in text]
    assert rotations == ["util/rotation.py"]
    for path, text in sources.items():
        if path.startswith(("worm/", "archive/", "core/")):
            assert not re.search(r"_\w*cursor\b", text), path
    for path in ("worm/store.py", "archive/cold.py"):
        assert sources[path].count("return self.verify_dirty(clean_sample=0)") == 1
    audit = sources["audit/log.py"]
    assert len(re.findall(r"\bfor sequence in range\(", audit)) == 1
    assert len(re.findall(r"\bif chain != new_head\b", audit)) == 1
    assert not re.search(r"\bdeep\b|def _verify_(full|incremental)\b", audit)


def test_the_oracles_keep_one_of_each():
    """One substrate: one config, one verdict, one place the bounded
    policy runs, no per-case functions and no module state."""
    sources = _sources(repro.verify)
    oracles = "\n".join(
        sources[name] for name in ("substrate.py", "equivalence.py", "oracle.py")
    )
    assert len(re.findall(r"\bCuratorConfig\(", oracles)) == 1
    assert len(re.findall(r"\bEquivalenceCase\(", oracles)) == 1
    assert len(re.findall(r"<= FULL_RESCAN_EVERY", oracles)) == 2  # one loop
    assert not re.search(r"^\s*global\b|_RebalanceSub", oracles, re.M)
    assert not re.search(r"def _\w+_case\b", sources["equivalence.py"])
    # one WORM frame walk, one device hand-off
    everything = "\n".join(
        path.read_text() for path in Path(repro.__file__).parent.rglob("*.py")
    )
    assert len(re.findall(r'canonical_loads\(payload\[:separator\]\)\["batch"\]', everything)) == 1
    tests = "\n".join(
        path.read_text()
        for path in Path(__file__).parent.rglob("*.py")
        if path != Path(__file__)
    )
    assert not re.search(r"= \(?\s*(store|engine)\.devices\(\)", everything + tests)


def test_destruction_keeps_one_overwrite():
    """The index deletes in place (no wrapper module), and every zero-fill
    of a device extent is ``BlockDevice.scrub`` with its one pass count:
    no pass option anywhere, and no other zero-filled ``raw_write`` but
    the adversary simulations' (``verify/``, ``storage/failures.py``)."""
    root = Path(repro.__file__).parent
    sources = {
        path.relative_to(root).as_posix(): path.read_text()
        for path in root.rglob("*.py")
    }
    assert "index/secure_deletion.py" not in sources
    everything = "\n".join(sources.values())
    assert not re.search(r"SecureDeletionIndex|SHREDDER_PASSES", everything)
    assert list(inspect.signature(SecureShredder).parameters) == ["keystore"]
    assert list(inspect.signature(Medium.sanitize).parameters) == ["self"]
    assert list(inspect.signature(ColdStore.scrub_record).parameters) == [
        "self",
        "record_id",
    ]
    zero_fill = re.compile(r'raw_write\(\s*[^,]+,\s*(bytes\((?!\[)|b"\\x00"|zeros\b)')
    fills = {
        path
        for path, text in sources.items()
        if zero_fill.search(text)
        and not path.startswith("verify/")
        and path != "storage/failures.py"
    }
    assert fills == {"storage/block.py"}
