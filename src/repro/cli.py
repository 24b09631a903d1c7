"""Command-line interface: ``python -m repro <command>``, the operator's
tool for a deployment.  Walkthroughs live in ``examples/``.

Commands:

* ``info`` — library version, crypto backends and subsystem inventory.
* ``serve`` — run the v1 wire API (threaded HTTP frontend) over a
  sharded cluster; ``--seed-demo`` enrolls demo principals and prints
  their login secrets.
* ``client`` — talk to a running service over the wire: ``login``,
  ``store``, ``read``, ``audit-query``, ``verify``, ``break-glass``,
  ``healthz``.  Every call is authenticated, authorized, and audited
  server-side; there is no direct-engine path here by design.
* ``verify`` — crash-consistency sweep, differential conformance
  across all six models, and the whole detection-equivalence scenario
  table (engine, cluster and rebalance rows alike: deployment x history
  x raw-device tamper -> exact blame); non-zero exit on any
  violation/divergence.
* ``policy lint`` — decide every tuple of every shipped ruleset's
  decision space and report dead rules and broken invariants; non-zero
  exit on any finding.
* ``policy explain <actor> <action> [resource]`` — trace one access
  decision through the declared default ruleset and print the rules
  consulted; exit status mirrors allow/deny.
"""

from __future__ import annotations

import argparse
import pkgutil
import secrets
import sys


def _cmd_info(_args) -> int:
    import repro
    from repro.crypto import chacha20, rsa

    print(f"repro (Curator) {repro.__version__}")
    print(__doc__)
    print(f"chacha20 backend: {chacha20.BACKEND}")
    print(f"rsa backend: {rsa.BACKEND}")
    subsystems = sorted(m.name for m in pkgutil.iter_modules(repro.__path__) if m.ispkg)
    print("subsystems: " + ", ".join(f"repro.{s}" for s in subsystems))
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


def _verify(args) -> int:
    from repro.verify import (
        render_conformance,
        run_conformance,
        run_crash_sweep,
        run_scenario_table,
    )

    status = 0

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
    sub.add_parser("info", help="version, crypto backends and subsystem inventory").set_defaults(
        func=_cmd_info
    )
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
    verify = sub.add_parser(
        "verify", help="crash sweep, conformance and the detection-equivalence table"
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
    verify.set_defaults(func=_verify)
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
