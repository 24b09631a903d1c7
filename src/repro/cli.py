"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``serve`` — run the v1 wire API (threaded HTTP frontend) over a
  sharded cluster; ``--seed-demo`` enrolls demo principals and prints
  their login secrets.
* ``client`` — talk to a running service over the wire: ``login``,
  ``store``, ``read``, ``audit-query``, ``verify``, ``break-glass``,
  ``healthz``.  Every call is authenticated, authorized, and audited
  server-side; there is no direct-engine path here by design.
* ``demo`` — the quickstart flow over the wire: serve in-process,
  login, store, search, read, show the audit trail (including the
  denial left by an unauthorized probe).
* ``matrix`` — run the full E1 requirements matrix (slow: probes all
  six models with the attack suite).
* ``thirty-years`` — the OSHA retention simulation with media refresh.
* ``audit-ops`` — build a small deployment, drift it, and print the
  operational-findings report.
* ``metrics`` — ingest a small workload as 16 batches of one and as one
  batch of 16, and print the performance counters side by side.
* ``verify`` — crash-consistency sweep, differential conformance
  across all six models, and the whole detection-equivalence scenario
  table (engine, cluster and rebalance rows alike: deployment x history
  x raw-device tamper -> exact blame); ``--incremental`` demos the
  watermarked verification fast path; non-zero exit on any
  violation/divergence.
* ``cluster-demo`` — build a sharded :class:`CuratorCluster`, route a
  workload across it, and print per-shard counters and the merged
  verification reports.
* ``policy lint`` — decide every tuple of every shipped ruleset's
  decision space and report dead rules and broken invariants; non-zero
  exit on any finding.
* ``policy explain <actor> <action> [resource]`` — trace one access
  decision through the declared default ruleset and print the rules
  consulted; exit status mirrors allow/deny.
* ``info`` — library version and subsystem inventory.
"""

from __future__ import annotations

import argparse
import secrets
import sys


def _cmd_info(_args) -> int:
    import repro

    print(f"repro (Curator) {repro.__version__}")
    print(__doc__)
    subsystems = [
        "crypto", "storage", "worm", "records", "audit", "provenance",
        "index", "access", "retention", "migration", "backup", "cost",
        "workload", "threats", "baselines", "compliance", "core",
    ]
    print("subsystems: " + ", ".join(f"repro.{s}" for s in subsystems))
    return 0


def _quickstart() -> int:
    """The demo now runs over the wire: an in-process server, a real
    login, and every operation attributed to the authenticated session
    actor — the direct-engine path the old demo used bypassed exactly
    the attribution this PR's front door enforces."""
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

    cluster = CuratorCluster(
        CuratorConfig(master_key=secrets.token_bytes(32), site_id="demo"), shards=2
    )
    service = CuratorService(cluster, ServiceConfig(port=0))
    secret = service.enroll(
        User.make("dr-demo", "Dr Demo", [Role.PHYSICIAN], "cardiology",
                  treating={"pat-1"})
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
    return 0


def _serve(args) -> int:
    from repro import CuratorCluster, CuratorConfig
    from repro.access import Role, User
    from repro.service import CuratorService, ServiceConfig, ServiceServer

    cluster = CuratorCluster(
        CuratorConfig(master_key=secrets.token_bytes(32), site_id="serve"),
        shards=args.shards,
        workers=args.workers,
    )
    service = CuratorService(
        cluster,
        ServiceConfig(
            host=args.host,
            port=args.port,
            queue_limit=args.queue_limit,
            rate_capacity=args.rate_capacity,
            rate_refill_per_second=args.rate_refill,
        ),
    )
    if args.seed_demo:
        demo_users = (
            User.make("dr-demo", "Dr Demo", [Role.PHYSICIAN], "cardiology",
                      treating={"pat-1", "pat-2"}),
            User.make("nurse-demo", "Nurse Demo", [Role.NURSE], "er",
                      treating={"pat-1"}),
            User.make("po-demo", "Privacy Officer", [Role.PRIVACY_OFFICER],
                      "privacy"),
        )
        print("seeded demo principals (login with `repro client login`):")
        for user in demo_users:
            secret = service.enroll(user)
            roles = ",".join(sorted(r.value for r in user.roles))
            print(f"  {user.user_id:<12} roles={roles:<16} secret={secret.hex()}")
    server = ServiceServer(service)
    print(f"serving v1 API on http://{args.host}:{args.port} "
          f"({args.shards} shards, {args.workers} workers); Ctrl-C to stop")
    try:
        server.run_forever()
    finally:
        cluster.close()
    return 0


def _client(args) -> int:
    from repro.service import ServiceClient, ServiceClientError

    client = ServiceClient(args.host, args.port)
    client.bearer = getattr(args, "token", "") or ""
    try:
        return _client_dispatch(args, client)
    except ServiceClientError as exc:
        print(f"error: {exc.status} {exc.code}: {exc.error.message}",
              file=sys.stderr)
        if exc.rule_id:
            print(f"  denied by rule {exc.rule_id}", file=sys.stderr)
            for entry in exc.trace:
                print(f"    consulted {entry.get('rule', '?')}: "
                      f"{entry.get('outcome', '?')}", file=sys.stderr)
        return 1


def _client_dispatch(args, client) -> int:
    import json as _json

    command = args.client_command
    if command == "login":
        envelope = client.login(args.user, bytes.fromhex(args.secret))
        print(f"user: {envelope.user_id}")
        print(f"session: {envelope.session_id} (expires {envelope.expires_at})")
        print(f"token: {envelope.token}")
        return 0
    if command == "healthz":
        health = client.healthz()
        print(f"status: {health.status}")
        print(f"shards: {', '.join(health.shards)}")
        print(f"queue: {health.queue_depth}/{health.queue_limit}; "
              f"sessions: {health.active_sessions}")
        return 0
    if command == "store":
        from repro.records import ClinicalNote

        note = ClinicalNote.create(
            record_id=args.record_id,
            patient_id=args.patient_id,
            created_at=args.created_at,
            author=args.author or "wire-client",
            specialty=args.specialty,
            text=args.text,
        )
        stored = client.store(note.to_dict())
        print(f"stored {stored.record_id} for {stored.patient_id} "
              f"(version {stored.versions})")
        return 0
    if command == "read":
        record = client.read(args.record_id, purpose=args.purpose)
        print(_json.dumps(record.to_wire(), indent=2, sort_keys=True))
        return 0
    if command == "audit-query":
        result = client.audit_query(
            actor_id=args.actor, action=args.action, limit=args.limit
        )
        print(f"{result.total} matching event(s); showing {len(result.events)}:")
        for event in result.events:
            print(f"  [{event.get('sequence', '?')}] {event.get('action'):<18} "
                  f"{event.get('actor_id'):<12} {event.get('subject_id')}")
        return 0
    if command == "verify":
        report = client.verify(incremental=args.incremental)
        print(f"ok: {report.ok}")
        print(f"integrity: {report.integrity_summary}")
        print(f"audit:     {report.audit_summary}")
        for violation in report.violations:
            print(f"  violation: {violation}")
        return 0 if report.ok else 1
    if command == "break-glass":
        grant = client.break_glass(args.patient_id, args.justification)
        print(f"grant {grant.grant_id}: {grant.user_id} -> {grant.patient_id}")
        return 0
    print(f"unknown client command {command!r}", file=sys.stderr)
    return 2


def _matrix() -> int:
    from repro.baselines import (
        EncryptedStore,
        HippocraticStore,
        ObjectStore,
        PlainWormStore,
        RelationalStore,
    )
    from repro.compliance import ComplianceChecker, render_matrix
    from repro.core import CuratorConfig, CuratorStore
    from repro.util import SimulatedClock

    master = bytes(range(32))

    def curator():
        clock = SimulatedClock(start=1.17e9)
        return CuratorStore(CuratorConfig(master_key=master, clock=clock)), clock

    def plainworm():
        clock = SimulatedClock(start=1.17e9)
        return PlainWormStore(clock=clock), clock

    factories = {
        "relational": lambda: (RelationalStore(), None),
        "encrypted": lambda: (EncryptedStore(), None),
        "hippocratic": lambda: (HippocraticStore(), None),
        "objectstore": lambda: (ObjectStore(), None),
        "plainworm": plainworm,
        "curator": curator,
    }
    print("probing all six models with the attack suite (this takes a few minutes)...")
    print(render_matrix(ComplianceChecker().evaluate_all(factories)))
    return 0


def _thirty_years(_args) -> int:
    from repro import ArchiveLifecycle, CuratorConfig, CuratorStore
    from repro.util import SimulatedClock
    from repro.workload import WorkloadGenerator

    clock = SimulatedClock(start=1.17e9)
    store = CuratorStore(CuratorConfig(master_key=secrets.token_bytes(32), clock=clock))
    generator = WorkloadGenerator("cli", clock)
    generator.create_population(10)
    for _ in range(12):
        g = generator.exposure_record()
        store.store(g.record, g.author_id)
    lifecycle = ArchiveLifecycle(store, clock, media_refresh_years=5.0, backup_every_years=1.0)
    report = lifecycle.run_years(31.0, step_years=1.0)
    print(f"simulated {report.years_simulated:.0f} years: "
          f"{report.media_refreshes} media refreshes, "
          f"{report.backups_taken} backups, "
          f"{report.records_disposed} records disposed, "
          f"{len(report.integrity_failures)} integrity failures")
    print("audit trail verifies:", store.verify_audit_trail().summary())
    return 0


def _audit_ops(_args) -> int:
    from repro import CuratorConfig, CuratorStore
    from repro.access import Role, User
    from repro.compliance.operations import operational_findings, render_findings
    from repro.records import ClinicalNote
    from repro.util import SimulatedClock

    clock = SimulatedClock(start=1.17e9)
    store = CuratorStore(CuratorConfig(master_key=secrets.token_bytes(32), clock=clock))
    note = ClinicalNote.create(
        record_id="rec-1", patient_id="pat-1", created_at=clock.now(),
        author="dr-a", specialty="oncology", text="routine followup",
    )
    store.store(note, author_id="dr-a")
    store.register_user(User.make("dr-er", "ER", [Role.PHYSICIAN]))
    store.break_glass("dr-er", "pat-1", "emergency override during night shift")
    clock.advance_years(8)  # age the media, expire the note, miss the review
    print(render_findings(operational_findings(store)))
    return 0


def _metrics(_args) -> int:
    from repro import CuratorConfig, CuratorStore
    from repro.util import SimulatedClock
    from repro.util.metrics import METRICS
    from repro.workload import WorkloadGenerator

    def build():
        clock = SimulatedClock(start=1.17e9)
        store = CuratorStore(CuratorConfig(master_key=bytes(range(32)), clock=clock))
        generator = WorkloadGenerator("cli-metrics", clock)
        generator.create_population(8)
        return store, [generator.encounter_record() for _ in range(16)]

    METRICS.reset()
    store, batch = build()
    for generated in batch:
        store.store(generated.record, generated.author_id)
    for record_id in store.record_ids()[:4]:
        store.read(record_id, actor_id="system")
        store.read(record_id, actor_id="system")  # second read hits the LRU
    singles = METRICS.snapshot()

    METRICS.reset()
    store, batch = build()
    store.store_many([g.record for g in batch], batch[0].author_id)
    batched = METRICS.snapshot()

    from repro.crypto import chacha20, rsa

    names = sorted(set(singles) | set(batched))
    width = max(len(n) for n in names)
    print(f"chacha20 backend: {chacha20.BACKEND}")
    print(f"rsa backend: {rsa.BACKEND}")
    print(f"{'counter':<{width}}  {'16 x store':>12}  {'store_many':>12}")
    for name in names:
        print(f"{name:<{width}}  {singles.get(name, 0):>12}  {batched.get(name, 0):>12}")

    # tier traffic: age the batch, demote it cold, then serve reads
    # from each tier so the counters and ratios have something to say
    from repro.archive import DemotionPolicy

    METRICS.reset()
    clock = store._clock  # noqa: SLF001 — demo plumbing
    record_ids = store.record_ids()
    for record_id in record_ids[:4]:
        store.read(record_id, actor_id="system")   # warm miss
        store.read(record_id, actor_id="system")   # hot LRU hit
    clock.advance_years(3.0)
    store.demotion_sweep(DemotionPolicy(), actor_id="cli-metrics")
    store.read(record_ids[0], actor_id="system")    # read-through recall
    store.read(record_ids[0], actor_id="system")    # hot again post-recall

    tiers = METRICS.snapshot()
    hot = tiers.get("tier_hot_hits", 0)
    warm = tiers.get("tier_warm_reads", 0)
    cold = tiers.get("tier_cold_reads", 0)
    served = hot + warm + cold
    stats = store.tier_stats()
    print()
    print("tier traffic (post-demotion scenario)")
    for name in sorted(n for n in tiers if n.startswith("tier_")):
        print(f"  {name:<24}  {tiers[name]:>8}")
    if served:
        print(f"  {'hot hit ratio':<24}  {hot / served:>8.2f}")
        print(f"  {'warm read ratio':<24}  {warm / served:>8.2f}")
        print(f"  {'cold recall ratio':<24}  {cold / served:>8.2f}")
    print(
        f"  occupancy: {stats['warm_records']} warm / "
        f"{stats['cold_records']} cold in {stats['cold_segments']} "
        f"segment(s); {stats['warm_bytes']} warm bytes, "
        f"{stats['cold_bytes']} cold bytes"
    )

    # wire service: serve a short in-process burst (logins, reads, a
    # denial, an unknown endpoint) so the request/denial/queue counters
    # have real traffic behind them
    from repro import CuratorCluster
    from repro.access import Role, User
    from repro.records import ClinicalNote
    from repro.service import (
        CuratorService,
        ServiceClient,
        ServiceClientError,
        ServiceConfig,
        ServiceServer,
    )

    METRICS.reset()
    cluster = CuratorCluster(
        CuratorConfig(master_key=bytes(range(32)), site_id="cli-metrics"), shards=2
    )
    service = CuratorService(cluster, ServiceConfig(port=0))
    secret = service.enroll(
        User.make("dr-m", "Dr M", [Role.PHYSICIAN], "cardio", treating={"pat-1"})
    )
    server = ServiceServer(service).start()
    try:
        wire = ServiceClient(server.host, server.port)
        wire.login("dr-m", secret)
        wire.store(ClinicalNote.create(
            record_id="rec-m", patient_id="pat-1", created_at=1.17e9,
            author="dr-m", specialty="cardio", text="metrics demo note",
        ).to_dict())
        for _ in range(3):
            wire.read("rec-m")
        for call in (wire.audit_query, wire.healthz):  # one denial, one ok
            try:
                call()
            except ServiceClientError:
                pass
        try:
            wire.request("GET", "/v1/nope")
        except ServiceClientError:
            pass
    finally:
        server.stop()
        cluster.close()
    snapshot = METRICS.snapshot()
    print()
    print("wire service (in-process burst)")
    for name in sorted(snapshot):
        if name.startswith("service_"):
            print(f"  {name:<36}  {snapshot[name]:>8}")
    return 0


def _cluster_demo(args) -> int:
    from repro import CuratorCluster, CuratorConfig
    from repro.records import ClinicalNote
    from repro.util import SimulatedClock
    from repro.util.metrics import METRICS

    clock = SimulatedClock(start=1.17e9)
    cluster = CuratorCluster(
        CuratorConfig(master_key=secrets.token_bytes(32), clock=clock),
        shards=args.shards,
    )
    METRICS.reset()
    for n in range(12):
        cluster.store(
            ClinicalNote.create(
                record_id=f"rec-{n:02d}",
                patient_id=f"pat-{n % 8}",
                created_at=clock.now(),
                author="dr-demo",
                specialty="cardiology",
                text=f"cluster demo note {n}: sinus rhythm",
            ),
            author_id="dr-demo",
        )
    for n in range(12):
        cluster.read(f"rec-{n:02d}", actor_id="dr-demo")
    hits = cluster.search("rhythm", actor_id="dr-demo")

    print(f"cluster {cluster.manifest.cluster_id}: "
          f"{cluster.shard_count} shards, {len(cluster.record_ids())} records")
    print(f"merged search('rhythm') -> {len(hits)} records")
    for name in ("cluster_stores", "cluster_reads", "cluster_searches"):
        print(f"  {name}: {METRICS.labelled(name)}")
    integrity = cluster.verify_integrity()
    audit = cluster.verify_audit_trail()
    print("integrity:", integrity.summary())
    print("audit:    ", audit.summary())
    return 0 if (integrity.ok and audit.ok) else 1


def _cluster_rebalance(args) -> int:
    """Demo of online elastic resharding: grow (or shrink) a live
    seeded cluster, then re-verify every move's MigrationProof and the
    cluster's own integrity and audit paths."""
    from repro import CuratorCluster, CuratorConfig
    from repro.records import ClinicalNote
    from repro.util import SimulatedClock

    clock = SimulatedClock(start=1.17e9)
    cluster = CuratorCluster(
        CuratorConfig(master_key=secrets.token_bytes(32), clock=clock),
        shards=args.shards,
    )
    for n in range(args.patients):
        cluster.store(
            ClinicalNote.create(
                record_id=f"rec-{n:03d}",
                patient_id=f"pat-{n:03d}",
                created_at=clock.now(),
                author="dr-demo",
                specialty="cardiology",
                text=f"rebalance demo note {n}: sinus rhythm",
            ),
            author_id="dr-demo",
        )
        clock.advance(1.0)

    report = cluster.rebalance(target_shards=args.target, actor_id="ops")
    print(
        f"rebalanced {len(report.from_shards)} -> {len(report.to_shards)} "
        f"shards (epoch {report.epoch}): moved {report.moved} of "
        f"{args.patients} patients"
    )
    if report.added:
        print(f"  added:   {', '.join(report.added)}")
    if report.removed:
        print(f"  removed: {', '.join(report.removed)}")
    failures = 0
    for proof in report.proofs:
        try:
            cluster.verify_move_proof(proof)
        except Exception as exc:  # surface, then count: the gate is the exit code
            failures += 1
            print(f"  proof FAILED {proof.patient_id}: {exc}")
    print(
        f"  proofs:  {report.moved - failures}/{report.moved} re-verified "
        f"({failures} failures)"
    )
    for proof in report.proofs[: args.show]:
        print(
            f"    {proof.patient_id}: {proof.source_shard} -> "
            f"{proof.destination_shard}, {proof.object_count} extents, "
            f"epoch {proof.epoch}"
        )
    integrity = cluster.verify_integrity()
    audit = cluster.verify_audit_trail()
    print("integrity:", integrity.summary())
    print("audit:    ", audit.summary())
    ok = integrity.ok and audit.ok and failures == 0
    return 0 if ok else 1


def _verify(args) -> int:
    from repro.verify import (
        render_conformance,
        run_conformance,
        run_crash_sweep,
        run_scenario_table,
    )

    status = 0

    if args.incremental:
        # A live verification pass on a demo engine showing the two
        # modes side by side.
        status = max(status, _verify_modes())
        print()

    if not args.skip_sweep:
        limit = args.limit if args.limit and args.limit > 0 else None
        scope = f"{limit} sampled crash points" if limit else "every write boundary"
        print(f"crash-consistency sweep ({scope}, clean + torn variants)...")
        report = run_crash_sweep(limit=limit)
        print(report.summary())
        if not report.ok:
            status = 1
        print()

    if not args.skip_conformance:
        print("differential conformance across all six models...")
        reports = run_conformance()
        print(render_conformance(reports))
        if any(not report.conformant for report in reports.values()):
            status = 1
        print()

    if not args.skip_equivalence:
        print("detection equivalence (deployment x history x tamper -> exact blame)...")
        equivalence = run_scenario_table()
        print(equivalence.summary())
        if not equivalence.ok:
            status = 1

    print()
    print("verify:", "PASS" if status == 0 else "FAIL")
    return status


def _verify_modes() -> int:
    from repro import CuratorConfig, CuratorStore
    from repro.records import ClinicalNote
    from repro.util import SimulatedClock
    from repro.util.metrics import METRICS

    clock = SimulatedClock(start=1.17e9)
    store = CuratorStore(
        CuratorConfig(master_key=secrets.token_bytes(32), clock=clock)
    )
    for n in range(24):
        store.store(
            ClinicalNote.create(
                record_id=f"rec-{n}",
                patient_id=f"pat-{n % 6}",
                created_at=clock.now(),
                author="dr-verify",
                specialty="cardiology",
                text=f"verification demo note {n}",
            ),
            author_id="dr-verify",
        )
    METRICS.reset()
    full = store.audit_log.verify_chain()  # seals the watermark
    for n in range(4):
        store.read(f"rec-{n}", actor_id="dr-verify")
    result = store.audit_log.verify_chain(incremental=True)
    print(
        f"audit verification [incremental]: mode={result.mode} "
        f"ok={result.ok} events_checked={result.events_checked} "
        f"spot_checked={result.spot_checked} escalated={result.escalated}"
    )
    print(
        f"  full pass: {full.events_checked} events; timers: "
        f"full={METRICS.ms('audit_verify_full_ns'):.2f}ms "
        f"incremental={METRICS.ms('audit_verify_incremental_ns'):.2f}ms"
    )
    integrity = store.verify_integrity(incremental=True)
    print(f"  integrity: {integrity.summary()}")
    return 0 if (full.ok and result.ok and integrity.ok) else 1


def _policy_lint(_args) -> int:
    from repro.policy.lint import lint_default_rulesets

    findings = lint_default_rulesets()
    for finding in findings:
        print(finding)
    # Every finding is an error; both counts stay so the line's format is stable.
    print(
        f"policy lint: {len(findings)} finding(s), {len(findings)} error(s) "
        "across default/session/disposition/break-glass rulesets"
    )
    return 1 if findings else 0


def _policy_explain(args) -> int:
    from repro.access.principals import Role, User
    from repro.access.rbac import Purpose
    from repro.policy import PolicyContext, PolicyEngine, PolicyEnv
    from repro.policy.rules import DEFAULT_RULES, default_purpose_for

    try:
        roles = [Role(value) for value in args.roles.split(",") if value]
    except ValueError as exc:
        print(f"unknown role: {exc}", file=sys.stderr)
        return 2
    if not roles:
        print("at least one role is required", file=sys.stderr)
        return 2
    treating = [p for p in args.treating.split(",") if p]
    actor = User.make(args.actor, args.actor, roles, treating=treating)
    if args.purpose is not None:
        try:
            purpose = Purpose(args.purpose)
        except ValueError:
            print(f"unknown purpose: {args.purpose!r}", file=sys.stderr)
            return 2
    else:
        purpose = default_purpose_for(actor)
    engine = PolicyEngine(DEFAULT_RULES, env=PolicyEnv())
    context = PolicyContext(
        purpose=purpose,
        patient_id=args.patient or None,
        own_record=args.own_record,
    )
    decision = engine.decide(actor, args.action, args.resource, context)
    print(
        f"request: actor={args.actor} roles={sorted(r.value for r in roles)} "
        f"action={args.action} resource={args.resource!r} "
        f"purpose={purpose.value}"
    )
    print(decision.explain())
    return 0 if decision.allowed else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Curator: compliant secure storage for healthcare records",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("info", help="version and subsystem inventory").set_defaults(
        func=_cmd_info
    )
    sub.add_parser(
        "demo", help="wire-API walkthrough: serve in-process, login, store, audit"
    ).set_defaults(func=lambda _a: _quickstart())
    serve = sub.add_parser("serve", help="run the v1 wire API over a cluster")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8471, help="bind port")
    serve.add_argument("--shards", type=int, default=4, help="shard count")
    serve.add_argument(
        "--workers", type=int, default=0, help="process-backed shard workers (0 = in-process)"
    )
    serve.add_argument(
        "--queue-limit", type=int, default=64, help="max in-flight requests before 503"
    )
    serve.add_argument(
        "--rate-capacity", type=float, default=50.0, help="per-actor burst budget"
    )
    serve.add_argument(
        "--rate-refill", type=float, default=25.0, help="per-actor sustained requests/s"
    )
    serve.add_argument(
        "--seed-demo",
        action="store_true",
        help="enroll demo principals and print their login secrets",
    )
    serve.set_defaults(func=_serve)
    client = sub.add_parser("client", help="call a running service over the wire")
    client.add_argument("--host", default="127.0.0.1", help="service address")
    client.add_argument("--port", type=int, default=8471, help="service port")
    client_sub = client.add_subparsers(dest="client_command", required=True)
    c_login = client_sub.add_parser("login", help="challenge-response login")
    c_login.add_argument("--user", required=True, help="enrolled user id")
    c_login.add_argument("--secret", required=True, help="enrollment secret (hex)")
    client_sub.add_parser("healthz", help="liveness, shards, queue")
    c_store = client_sub.add_parser("store", help="store a clinical note")
    c_store.add_argument("--token", required=True, help="bearer token from login")
    c_store.add_argument("--record-id", required=True)
    c_store.add_argument("--patient-id", required=True)
    c_store.add_argument("--created-at", type=float, default=1.17e9)
    c_store.add_argument("--author", default="", help="display author (informational)")
    c_store.add_argument("--specialty", default="general")
    c_store.add_argument("--text", required=True, help="note text")
    c_read = client_sub.add_parser("read", help="read one record")
    c_read.add_argument("--token", required=True)
    c_read.add_argument("--record-id", required=True)
    c_read.add_argument("--purpose", default="", help="purpose-of-use value")
    c_audit = client_sub.add_parser("audit-query", help="query the audit stream")
    c_audit.add_argument("--token", required=True)
    c_audit.add_argument("--actor", default="", help="filter by actor id")
    c_audit.add_argument("--action", default="", help="filter by action")
    c_audit.add_argument("--limit", type=int, default=20)
    c_verify = client_sub.add_parser(
        "verify", help="run integrity + audit verification server-side"
    )
    c_verify.add_argument("--token", required=True)
    c_verify.add_argument("--incremental", action="store_true")
    c_bg = client_sub.add_parser("break-glass", help="emergency access override")
    c_bg.add_argument("--token", required=True)
    c_bg.add_argument("--patient-id", required=True)
    c_bg.add_argument("--justification", required=True)
    client.set_defaults(func=_client)
    sub.add_parser("matrix", help="run the E1 requirements matrix (slow)").set_defaults(
        func=lambda _a: _matrix()
    )
    sub.add_parser(
        "thirty-years", help="simulate 30-year OSHA retention"
    ).set_defaults(func=_thirty_years)
    sub.add_parser(
        "audit-ops", help="operational compliance findings on a drifted deployment"
    ).set_defaults(func=_audit_ops)
    sub.add_parser(
        "metrics", help="performance counters for batches of one vs one batch"
    ).set_defaults(func=_metrics)
    verify = sub.add_parser(
        "verify", help="crash-consistency sweep + differential conformance"
    )
    verify.add_argument(
        "--limit",
        type=int,
        default=0,
        help="sweep only N evenly-spaced crash points (0 = every boundary)",
    )
    verify.add_argument(
        "--skip-sweep", action="store_true", help="skip the crash sweep"
    )
    verify.add_argument(
        "--skip-conformance", action="store_true", help="skip conformance"
    )
    verify.add_argument(
        "--skip-equivalence",
        action="store_true",
        help="skip the detection-equivalence scenario table",
    )
    verify.add_argument(
        "--incremental",
        action="store_true",
        help="also demo the watermarked incremental verification fast path",
    )
    verify.set_defaults(func=_verify)
    cluster_demo = sub.add_parser(
        "cluster-demo",
        help="route a workload across a sharded cluster and verify it",
    )
    cluster_demo.add_argument(
        "--shards", type=int, default=4, help="shard count (default 4)"
    )
    cluster_demo.set_defaults(func=_cluster_demo)
    cluster = sub.add_parser(
        "cluster", help="operate on a sharded cluster"
    )
    cluster_sub = cluster.add_subparsers(dest="cluster_command", required=True)
    rebalance = cluster_sub.add_parser(
        "rebalance",
        help="grow/shrink a live seeded cluster and re-verify every "
        "move's MigrationProof",
    )
    rebalance.add_argument(
        "--shards", type=int, default=4, help="starting shard count (default 4)"
    )
    rebalance.add_argument(
        "--target", type=int, default=8, help="target shard count (default 8)"
    )
    rebalance.add_argument(
        "--patients",
        type=int,
        default=24,
        help="seeded patients, one record each (default 24)",
    )
    rebalance.add_argument(
        "--show",
        type=int,
        default=4,
        help="print the first N move proofs (default 4)",
    )
    rebalance.set_defaults(func=_cluster_rebalance)
    policy = sub.add_parser(
        "policy", help="inspect the declarative policy rulesets"
    )
    policy_sub = policy.add_subparsers(dest="policy_command", required=True)
    policy_sub.add_parser(
        "lint",
        help="dead rules and invariants over every tuple (exit 1 on findings)",
    ).set_defaults(func=_policy_lint)
    explain = policy_sub.add_parser(
        "explain",
        help="trace one access decision through the default ruleset",
    )
    explain.add_argument("actor", help="actor id")
    explain.add_argument("action", help="permission value, e.g. read_record")
    explain.add_argument(
        "resource", nargs="?", default="", help="resource id (optional)"
    )
    explain.add_argument(
        "--roles",
        default="physician",
        help="comma-separated role values (default: physician)",
    )
    explain.add_argument(
        "--purpose",
        default=None,
        help="purpose-of-use value (default: the actor's role default)",
    )
    explain.add_argument(
        "--patient", default="", help="patient id the resource belongs to"
    )
    explain.add_argument(
        "--own-record",
        action="store_true",
        help="the resource is the actor's own record",
    )
    explain.add_argument(
        "--treating",
        default="",
        help="comma-separated patient ids the actor treats",
    )
    explain.set_defaults(func=_policy_explain)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
