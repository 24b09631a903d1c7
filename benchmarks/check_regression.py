"""Regression gate for the E2 write-path, E8 verification, and E9
cluster-scaling benchmarks.

Compares a freshly generated ``BENCH_e2.json`` (run
``pytest benchmarks/bench_e2_throughput.py::test_e2_batched_ingest``
first) against a baseline — by default the copy committed at git HEAD —
and exits non-zero if any model's single or batched ingest throughput
dropped by more than the tolerance (30%).  The curator's batched ingest
is held to a tighter 10% delta: the E2 hot path is deliberately
policy-free, so a drop there means evaluation cost leaked onto the
write path.

When ``BENCH_e8.json`` is present (run
``pytest benchmarks/bench_e8_audit_scaling.py::test_e8_incremental_fast_path``)
it is gated on absolute bars, not a baseline ratio: incremental audit
verification must be at least 37x faster than the full rescan at 10k
events (see :data:`MIN_E8_SPEEDUP`), and the detection-equivalence oracle must report **zero**
violations.  A fast path that trades away detection is a security
regression no matter how fast it got.

``BENCH_e9.json`` (run
``pytest benchmarks/bench_e9_cluster_scaling.py``) is gated the same
way: the 4-shard cluster must sustain at least 2.5x the single-engine
throughput on the mixed workload — and the 8-shard process-pool arm
at least 2.75x and 1,610 ops/s (see :data:`MIN_E9_WORKER_SPEEDUP`) —
with **zero** cluster detection-equivalence violations;
scale bought by skipping verification does not count.

``BENCH_e7.json`` (run
``pytest benchmarks/bench_e7_retention_30yr.py::test_e7b_tiered_archive_scale``)
gates the tiered cold archive on absolute bars: cold segments must hold
a record in at most 0.5x its warm journal+WORM footprint, a verified
read-through recall p99 at most 10x the warm read p99, and the
incremental integrity pass over a mostly-cold archive at least 3x
faster than the full rescan.  A cold tier that is cheap but slow to
recall — or fast but unverified — does not count.

``BENCH_e6.json`` (run
``pytest benchmarks/bench_e6_migration.py::test_e6b_online_rebalance``)
gates the online-rebalance arm on absolute bars: p99 read latency
during the move window at most 2x the steady-state p99 under the same
concurrent load, every move carrying a verifier-accepted
MigrationProof, and **zero** rebalance detection-equivalence
violations.  Elasticity bought with blocked readers or unproven moves
does not count.

``BENCH_e11.json`` (run
``pytest benchmarks/bench_e11_service.py``) gates the wire-service
frontend on absolute bars: at least 200 concurrent authenticated
sessions, a sustained closed-loop floor of 250 requests/sec through the
full pipeline (sockets, sessions, policy, admission, audit), a p99
latency ceiling of 5 seconds under that load, zero client-visible
errors, and the audit-coverage invariant (every wire request left a
service audit event and the chain still verifies).  Throughput bought
by shedding authentication or the trustworthy log does not count.

The curator's batched ingest additionally carries an **absolute** bar:
at least 2450 records/sec on the E2 batch arm — five times the
pre-rebuild write path (~490 rps).  The baseline-relative gate catches
drift; the absolute bar pins the raw-speed rebuild itself (aggregated
signing, BLAKE2b digests, scattered frames, batch AEAD) so no sequence
of individually-tolerated regressions can quietly give it back.

Usage::

    python benchmarks/check_regression.py                 # vs git HEAD
    python benchmarks/check_regression.py --baseline old.json
    python benchmarks/check_regression.py --tolerance 0.2

Throughput on shared machines is noisy; 30% is deliberately loose — the
gate exists to catch algorithmic regressions (a cache dropped, a batch
path quietly falling back to the loop), not scheduler jitter.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_JSON = Path(__file__).parent / "BENCH_e2.json"
BENCH_E8_JSON = Path(__file__).parent / "BENCH_e8.json"
BENCH_E9_JSON = Path(__file__).parent / "BENCH_e9.json"
BENCH_E6_JSON = Path(__file__).parent / "BENCH_e6.json"
BENCH_E7_JSON = Path(__file__).parent / "BENCH_e7.json"
BENCH_E11_JSON = Path(__file__).parent / "BENCH_e11.json"
DEFAULT_TOLERANCE = 0.30
#: The curator's batched ingest gets a tighter delta gate than the loose
#: fleet-wide tolerance: the E2 hot path must stay policy-free (store()
#: never authorizes), so a drop here means something expensive — like
#: per-write policy evaluation — leaked onto the write path.
CURATOR_TOLERANCE = 0.10
#: Absolute floor for the curator's batched ingest: 5x the write path
#: as it stood before the raw-speed rebuild (~490 records/sec).
MIN_CURATOR_BATCHED_RPS = 2450.0
#: Half the measured speed-up, so the bar can fail.  Twelve runs on the
#: level-table Merkle tree (PR 19) read 62.5-89.4x, median 74.5x (full
#: ~230 ms, incremental ~3.1 ms: 100 replayed events, 16 spot checks and
#: O(log n) hashes); the parent's O(n) leaf folds read 9.9-11.2x, which
#: this bar refuses.  The old 5x bar sat under a sixth of the measurement.
MIN_E8_SPEEDUP = 37.0
MIN_E9_SPEEDUP = 2.5
#: The 8-shard process-pool arm answers from per-shard state an eighth
#: the size; it must clear a higher bar than the in-process cluster.
#: The bar is a ratio over a single engine that thrashes its read cache
#: and so decrypts on every read, and the native ChaCha20 kernel (PR 14)
#: made exactly that denominator ~1.45x faster while the cluster arms,
#: which mostly hit their caches, gained ~10 %.  Every arm the median of
#: 5 fresh clusters, parent -> change, runs alternated over two hours:
#: single engine 409 / 402 / 424 / 401 / 429 -> 533-609 (eleven runs,
#: median 588); 8-worker arm 2,056 / 2,195 / 2,077 / 1,853 / 1,877 ->
#: 1,642-2,402 (median 2,083); so worker_speedup 5.03 / 5.45 / 4.90 /
#: 4.63 / 4.37 -> 3.85 3.66 3.95 3.71 2.95 2.85 3.14 3.21 3.91 3.48 3.08
#: (median 3.48).  The old 5.0 bar failed three of the parent's own five
#: runs.  The worker arm is 8 processes and 4 client threads on 2 vCPUs
#: and follows what the hypervisor gives it from one half hour to the
#: next (the single arm does not), so the bar sits under the lowest run
#: seen, not 15 % under the median: 2.75 is cleared by the median with
#: 27 % to spare and by the worst of eleven runs with 4 %.
MIN_E9_WORKER_SPEEDUP = 2.75
#: A ratio bar alone would let the worker arm itself slow down as long
#: as the single engine slowed with it, so the arm also carries an
#: absolute floor: the 1,610 ops/s committed before PR 14 (that figure
#: was one first-touch run; eleven medians on this build read
#: 1,642-2,402, the two lowest inside `make verify`).
MIN_E9_WORKER_OPS = 1610.0
#: Online rebalance impact bound: p99 read latency during the move
#: window may be at most this multiple of the steady-state p99.
MAX_E6_P99_RATIO = 2.0
#: Cold-tier bars: per-record cold footprint vs the warm journal+WORM
#: bytes, recall p99 vs warm read p99, and the incremental-verify
#: speedup over a full rescan on a mostly-cold archive.
MAX_E7_FOOTPRINT_RATIO = 0.5
MAX_E7_RECALL_P99_RATIO = 10.0
MIN_E7_VERIFY_SPEEDUP = 3.0
#: Wire-service bars: the frontend must hold >= 200 concurrent
#: authenticated sessions at a sustained closed-loop floor with a tail
#: ceiling — with zero errors and full audit coverage (measured ~650
#: rps / p99 ~1.5 s on the reference box; the floor and ceiling are
#: deliberately loose so the gate catches architecture regressions,
#: not scheduler jitter).
MIN_E11_SESSIONS = 200
MIN_E11_RPS = 250.0
MAX_E11_P99_MS = 5000.0
_METRICS = ("single_rps", "batched_rps")


def load_baseline(path: str | None) -> dict:
    """The committed (or explicitly given) benchmark numbers."""
    if path is not None:
        return json.loads(Path(path).read_text())
    repo_root = Path(__file__).parent.parent
    blob = subprocess.run(
        ["git", "show", "HEAD:benchmarks/BENCH_e2.json"],
        cwd=repo_root,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return json.loads(blob)


def compare(
    current: dict,
    baseline: dict,
    tolerance: float,
    curator_tolerance: float | None = None,
) -> list[str]:
    """Regression messages (empty when everything is within tolerance).

    ``curator_tolerance`` tightens the gate on the curator's batched
    ingest alone (see :data:`CURATOR_TOLERANCE`)."""
    problems = []
    for model, base in baseline.get("models", {}).items():
        cur = current.get("models", {}).get(model)
        if cur is None:
            problems.append(f"{model}: missing from current results")
            continue
        for metric in _METRICS:
            if base.get(metric, 0) <= 0:
                continue
            allowed = tolerance
            if (
                curator_tolerance is not None
                and model == "curator"
                and metric == "batched_rps"
            ):
                allowed = curator_tolerance
            ratio = cur.get(metric, 0) / base[metric]
            if ratio < 1.0 - allowed:
                problems.append(
                    f"{model}.{metric}: {cur.get(metric, 0):.1f} vs baseline "
                    f"{base[metric]:.1f} ({(1.0 - ratio) * 100:.0f}% drop, "
                    f"tolerance {allowed * 100:.0f}%)"
                )
    return problems


def check_e2_absolute(current: dict, min_batched_rps: float) -> list[str]:
    """The absolute floor for the curator's batched ingest."""
    batched = (
        current.get("models", {}).get("curator", {}).get("batched_rps", 0.0)
    )
    if batched < min_batched_rps:
        return [
            f"curator.batched_rps: {batched:.1f} below the absolute "
            f"{min_batched_rps:.0f} records/sec bar (5x the pre-rebuild "
            f"write path)"
        ]
    return []


def check_e8(path: Path, min_speedup: float) -> list[str]:
    """Absolute bars for the E8 verification fast path."""
    if not path.exists():
        return [f"no E8 results at {path}; run the E8 fast-path benchmark first"]
    results = json.loads(path.read_text())
    problems = []
    speedup = results.get("speedup", 0)
    if speedup < min_speedup:
        problems.append(
            f"e8.speedup: incremental verify only {speedup:.1f}x faster than "
            f"the full rescan (bar: {min_speedup:.1f}x at "
            f"{results.get('log_size', '?')} events)"
        )
    violations = results.get("equivalence_violations")
    if violations != 0:
        problems.append(
            f"e8.equivalence: {violations} detection-equivalence violations "
            f"(the fast path must lose no detection power)"
        )
    return problems


def check_e9(
    path: Path, min_speedup: float, min_worker_speedup: float
) -> list[str]:
    """Absolute bars for the E9 cluster scaling measurement."""
    if not path.exists():
        return [f"no E9 results at {path}; run the E9 cluster benchmark first"]
    results = json.loads(path.read_text())
    problems = []
    speedup = results.get("speedup", 0)
    if speedup < min_speedup:
        problems.append(
            f"e9.speedup: {results.get('shards', '?')}-shard cluster only "
            f"{speedup:.2f}x the single engine (bar: {min_speedup:.1f}x on "
            f"the mixed workload)"
        )
    worker_speedup = results.get("worker_speedup", 0)
    if worker_speedup < min_worker_speedup:
        problems.append(
            f"e9.worker_speedup: {results.get('worker_shards', '?')}-shard "
            f"process-pool cluster only {worker_speedup:.2f}x the single "
            f"engine (bar: {min_worker_speedup:.2f}x on the mixed workload)"
        )
    worker_ops = results.get("worker_cluster_ops_per_sec", 0)
    if worker_ops < MIN_E9_WORKER_OPS:
        problems.append(
            f"e9.worker_cluster_ops_per_sec: process-pool cluster at "
            f"{worker_ops:.0f} ops/s, below the absolute "
            f"{MIN_E9_WORKER_OPS:.0f} ops/s floor"
        )
    violations = results.get("equivalence_violations")
    if violations != 0:
        problems.append(
            f"e9.equivalence: {violations} cluster detection-equivalence "
            f"violations (sharding must lose no detection power)"
        )
    return problems


def check_e7(
    path: Path,
    max_footprint_ratio: float,
    max_recall_p99_ratio: float,
    min_verify_speedup: float,
) -> list[str]:
    """Absolute bars for the E7b tiered cold archive."""
    if not path.exists():
        return [
            f"no E7 results at {path}; run the E7b tiered-archive "
            "benchmark first"
        ]
    results = json.loads(path.read_text())
    problems = []
    footprint = results.get("footprint_ratio", float("inf"))
    if footprint > max_footprint_ratio:
        problems.append(
            f"e7.footprint_ratio: cold tier holds a record in "
            f"{footprint:.3f}x its warm footprint "
            f"({results.get('cold_bytes_per_record', '?')} vs "
            f"{results.get('warm_bytes_per_record', '?')} bytes/record; "
            f"bar: {max_footprint_ratio:.2f}x)"
        )
    recall_ratio = results.get("recall_p99_ratio", float("inf"))
    if recall_ratio > max_recall_p99_ratio:
        problems.append(
            f"e7.recall_p99_ratio: cold recall p99 is {recall_ratio:.2f}x "
            f"the warm read p99 (bar: {max_recall_p99_ratio:.1f}x; "
            f"{results.get('cold_recall_p99_ms', '?')} ms vs "
            f"{results.get('warm_read_p99_ms', '?')} ms)"
        )
    speedup = results.get("verify_speedup", 0)
    if speedup < min_verify_speedup:
        problems.append(
            f"e7.verify_speedup: incremental verify only {speedup:.1f}x "
            f"faster than the full rescan on a mostly-cold archive "
            f"(bar: {min_verify_speedup:.1f}x at "
            f"{results.get('n_records', '?')} records)"
        )
    return problems


def check_e6(path: Path, max_p99_ratio: float) -> list[str]:
    """Absolute bars for the E6b online rebalance arm."""
    if not path.exists():
        return [
            f"no E6 results at {path}; run the E6b online rebalance "
            "benchmark first"
        ]
    online = json.loads(path.read_text()).get("online", {})
    problems = []
    ratio = online.get("p99_ratio", float("inf"))
    if ratio > max_p99_ratio:
        problems.append(
            f"e6.p99_ratio: p99 read latency during rebalance is "
            f"{ratio:.2f}x steady state (bar: {max_p99_ratio:.1f}x; "
            f"{online.get('p99_rebalance_ms', '?')} ms vs "
            f"{online.get('p99_steady_ms', '?')} ms)"
        )
    moves = online.get("moves", 0)
    verified = online.get("proofs_verified", -1)
    failures = online.get("proof_failures")
    if moves <= 0:
        problems.append("e6.moves: the rebalance arm moved no patients")
    if failures != 0 or verified != moves:
        problems.append(
            f"e6.proofs: {verified}/{moves} move proofs re-verified with "
            f"{failures} failures (every move must carry a "
            f"verifier-accepted MigrationProof)"
        )
    violations = online.get("equivalence_violations")
    if violations != 0:
        problems.append(
            f"e6.equivalence: {violations} rebalance detection-equivalence "
            f"violations (the move window must lose no detection power)"
        )
    return problems


def check_e11(
    path: Path, min_sessions: int, min_rps: float, max_p99_ms: float
) -> list[str]:
    """Absolute bars for the E11 wire-service load measurement."""
    if not path.exists():
        return [
            f"no E11 results at {path}; run the E11 service load "
            "benchmark first"
        ]
    results = json.loads(path.read_text())
    problems = []
    sessions = results.get("sessions", 0)
    if sessions < min_sessions:
        problems.append(
            f"e11.sessions: only {sessions} concurrent authenticated "
            f"sessions (bar: {min_sessions})"
        )
    rps = results.get("sustained_rps", 0.0)
    if rps < min_rps:
        problems.append(
            f"e11.sustained_rps: {rps:.1f} requests/sec through the full "
            f"wire pipeline (bar: {min_rps:.0f} with {sessions} closed-loop "
            f"sessions)"
        )
    p99 = results.get("p99_ms", float("inf"))
    if p99 > max_p99_ms:
        problems.append(
            f"e11.p99_ms: {p99:.0f} ms tail latency under load "
            f"(ceiling: {max_p99_ms:.0f} ms)"
        )
    errors = results.get("errors")
    if errors != 0:
        problems.append(
            f"e11.errors: {errors} client-visible errors during the run "
            f"(the closed loop must complete cleanly)"
        )
    if not (results.get("audit_coverage_ok") and results.get("audit_chain_ok")):
        problems.append(
            "e11.audit: audit coverage or chain verification failed — "
            "throughput without the trustworthy log does not count"
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline JSON path (default: benchmarks/BENCH_e2.json at git HEAD)",
    )
    parser.add_argument(
        "--current", default=str(BENCH_JSON), help="fresh results JSON path"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional throughput drop (default 0.30)",
    )
    parser.add_argument(
        "--curator-tolerance",
        type=float,
        default=CURATOR_TOLERANCE,
        help="tighter allowed drop for the curator's batched ingest "
        "(default 0.10; the E2 hot path must stay policy-free)",
    )
    parser.add_argument(
        "--min-curator-batched-rps",
        type=float,
        default=MIN_CURATOR_BATCHED_RPS,
        help="absolute floor for the curator's batched ingest "
        "(default 2450; 5x the pre-rebuild write path)",
    )
    parser.add_argument(
        "--current-e8",
        default=str(BENCH_E8_JSON),
        help="fresh E8 results JSON path",
    )
    parser.add_argument(
        "--min-e8-speedup",
        type=float,
        default=MIN_E8_SPEEDUP,
        help="required incremental-verify speedup over a full rescan "
        f"(default {MIN_E8_SPEEDUP})",
    )
    parser.add_argument(
        "--skip-e8",
        action="store_true",
        help="skip the E8 fast-path bars",
    )
    parser.add_argument(
        "--current-e9",
        default=str(BENCH_E9_JSON),
        help="fresh E9 results JSON path",
    )
    parser.add_argument(
        "--min-e9-speedup",
        type=float,
        default=MIN_E9_SPEEDUP,
        help="required cluster speedup over the single engine (default 2.5)",
    )
    parser.add_argument(
        "--min-e9-worker-speedup",
        type=float,
        default=MIN_E9_WORKER_SPEEDUP,
        help="required process-pool cluster speedup over the single engine "
        f"(default {MIN_E9_WORKER_SPEEDUP})",
    )
    parser.add_argument(
        "--skip-e9",
        action="store_true",
        help="skip the E9 cluster-scaling bars",
    )
    parser.add_argument(
        "--current-e7",
        default=str(BENCH_E7_JSON),
        help="fresh E7b tiered-archive results JSON path",
    )
    parser.add_argument(
        "--max-e7-footprint-ratio",
        type=float,
        default=MAX_E7_FOOTPRINT_RATIO,
        help="allowed cold-vs-warm per-record footprint ratio (default 0.5)",
    )
    parser.add_argument(
        "--max-e7-recall-p99-ratio",
        type=float,
        default=MAX_E7_RECALL_P99_RATIO,
        help="allowed cold-recall-vs-warm-read p99 multiple (default 10.0)",
    )
    parser.add_argument(
        "--min-e7-verify-speedup",
        type=float,
        default=MIN_E7_VERIFY_SPEEDUP,
        help="required incremental-verify speedup on a mostly-cold "
        "archive (default 3.0)",
    )
    parser.add_argument(
        "--skip-e7",
        action="store_true",
        help="skip the E7b tiered-archive bars",
    )
    parser.add_argument(
        "--current-e6",
        default=str(BENCH_E6_JSON),
        help="fresh E6b online-rebalance results JSON path",
    )
    parser.add_argument(
        "--max-e6-p99-ratio",
        type=float,
        default=MAX_E6_P99_RATIO,
        help="allowed p99 read-latency multiple during an online "
        "rebalance (default 2.0)",
    )
    parser.add_argument(
        "--skip-e6",
        action="store_true",
        help="skip the E6b online-rebalance bars",
    )
    parser.add_argument(
        "--current-e11",
        default=str(BENCH_E11_JSON),
        help="fresh E11 wire-service results JSON path",
    )
    parser.add_argument(
        "--min-e11-sessions",
        type=int,
        default=MIN_E11_SESSIONS,
        help="required concurrent authenticated sessions (default 200)",
    )
    parser.add_argument(
        "--min-e11-rps",
        type=float,
        default=MIN_E11_RPS,
        help="required sustained closed-loop requests/sec (default 250)",
    )
    parser.add_argument(
        "--max-e11-p99-ms",
        type=float,
        default=MAX_E11_P99_MS,
        help="allowed p99 wire latency under load, ms (default 5000)",
    )
    parser.add_argument(
        "--skip-e11",
        action="store_true",
        help="skip the E11 wire-service bars",
    )
    args = parser.parse_args(argv)

    current_path = Path(args.current)
    if not current_path.exists():
        print(f"no current results at {current_path}; run the E2 benchmark first")
        return 2
    current = json.loads(current_path.read_text())
    try:
        baseline = load_baseline(args.baseline)
    except subprocess.CalledProcessError:
        print("no committed baseline at HEAD; nothing to compare against")
        baseline = None

    problems = (
        compare(current, baseline, args.tolerance, args.curator_tolerance)
        if baseline is not None
        else []
    )
    if problems:
        print("THROUGHPUT REGRESSION:")
        for problem in problems:
            print(f"  - {problem}")
    elif baseline is not None:
        print(
            f"ok: all models within {args.tolerance * 100:.0f}% of baseline "
            f"({len(baseline.get('models', {}))} models checked; curator "
            f"batched within {args.curator_tolerance * 100:.0f}%)"
        )

    e2_absolute = check_e2_absolute(current, args.min_curator_batched_rps)
    if e2_absolute:
        print("WRITE-PATH REGRESSION:")
        for problem in e2_absolute:
            print(f"  - {problem}")
        problems.extend(e2_absolute)
    else:
        print(
            f"ok: curator batched ingest >= "
            f"{args.min_curator_batched_rps:.0f} records/sec absolute bar"
        )

    if not args.skip_e8:
        e8_problems = check_e8(Path(args.current_e8), args.min_e8_speedup)
        if e8_problems:
            print("VERIFICATION FAST-PATH REGRESSION:")
            for problem in e8_problems:
                print(f"  - {problem}")
            problems.extend(e8_problems)
        else:
            print(
                f"ok: incremental verify >= {args.min_e8_speedup:.1f}x full "
                f"rescan, 0 detection-equivalence violations"
            )

    if not args.skip_e9:
        e9_problems = check_e9(
            Path(args.current_e9),
            args.min_e9_speedup,
            args.min_e9_worker_speedup,
        )
        if e9_problems:
            print("CLUSTER SCALING REGRESSION:")
            for problem in e9_problems:
                print(f"  - {problem}")
            problems.extend(e9_problems)
        else:
            print(
                f"ok: cluster >= {args.min_e9_speedup:.1f}x single engine "
                f"(process-pool arm >= {args.min_e9_worker_speedup:.2f}x and "
                f">= {MIN_E9_WORKER_OPS:.0f} ops/s), "
                f"0 cluster detection-equivalence violations"
            )

    if not args.skip_e7:
        e7_problems = check_e7(
            Path(args.current_e7),
            args.max_e7_footprint_ratio,
            args.max_e7_recall_p99_ratio,
            args.min_e7_verify_speedup,
        )
        if e7_problems:
            print("TIERED ARCHIVE REGRESSION:")
            for problem in e7_problems:
                print(f"  - {problem}")
            problems.extend(e7_problems)
        else:
            print(
                f"ok: cold footprint <= "
                f"{args.max_e7_footprint_ratio:.2f}x warm, recall p99 <= "
                f"{args.max_e7_recall_p99_ratio:.1f}x warm reads, "
                f"incremental verify >= "
                f"{args.min_e7_verify_speedup:.1f}x full rescan"
            )

    if not args.skip_e6:
        e6_problems = check_e6(Path(args.current_e6), args.max_e6_p99_ratio)
        if e6_problems:
            print("ONLINE REBALANCE REGRESSION:")
            for problem in e6_problems:
                print(f"  - {problem}")
            problems.extend(e6_problems)
        else:
            print(
                f"ok: online rebalance p99 <= {args.max_e6_p99_ratio:.1f}x "
                f"steady state, every move proof re-verified, 0 rebalance "
                f"detection-equivalence violations"
            )

    if not args.skip_e11:
        e11_problems = check_e11(
            Path(args.current_e11),
            args.min_e11_sessions,
            args.min_e11_rps,
            args.max_e11_p99_ms,
        )
        if e11_problems:
            print("WIRE SERVICE REGRESSION:")
            for problem in e11_problems:
                print(f"  - {problem}")
            problems.extend(e11_problems)
        else:
            print(
                f"ok: wire service held >= {args.min_e11_sessions} sessions "
                f"at >= {args.min_e11_rps:.0f} rps, p99 <= "
                f"{args.max_e11_p99_ms:.0f} ms, 0 errors, full audit coverage"
            )

    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
