"""Every E-experiment bar, declared once, asserted where it is measured.

An experiment that carries a bar ends with ``gate(experiment, metrics,
params)``: the one results shape ``{experiment, params, metrics}`` goes
to the untracked ``benchmarks/out/<experiment>.json``, one measured /
bar / slack row per bar is printed (``pytest -s``), and every bar of
that experiment is asserted — a bar whose metric the experiment no
longer reports fails too.  ``benchmarks/BENCH.json`` holds the committed
reference numbers in the same shape, one entry per experiment; it is
read from the working tree and refreshed by hand from ``out/`` when a
PR moves a number on purpose.  There is no other gate, no flag and no
second copy of a bound.

The numbers gated are the rounded ones the experiment reports, so what
is printed, written and asserted is one value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Literal

from benchmarks.common import print_table

REFERENCE = Path(__file__).parent / "BENCH.json"
OUT = Path(__file__).parent / "out"


@dataclass(frozen=True)
class Bar:
    """``metric`` ``op`` ``bound`` for one experiment.  ``of_reference``
    makes the bound a fraction of each committed reference number the
    ``metric`` glob matches, instead of an absolute value."""

    experiment: str
    metric: str
    op: Literal[">=", "<="]
    bound: float
    of_reference: bool = False

    def thresholds(self, reference: dict[str, float]) -> dict[str, float]:
        """The metric names this bar constrains, each with its limit."""
        if not self.of_reference:
            return {self.metric: self.bound}
        return {
            name: value * self.bound
            for name, value in reference.items()
            if fnmatchcase(name, self.metric)
        }


BARS: tuple[Bar, ...] = (
    # -- E2: batched ingest, every model (``<model>.single_rps`` ...) ------
    # Throughput on shared machines is noisy; 30% is deliberately loose —
    # the gate exists to catch algorithmic regressions (a cache dropped, a
    # batch path quietly falling back to the loop), not scheduler jitter.
    Bar("e2", "*_rps", ">=", 1.0 - 0.30, of_reference=True),
    # The curator's batched ingest gets a tighter delta gate than the loose
    # fleet-wide tolerance: the E2 hot path must stay policy-free (store()
    # never authorizes), so a drop here means something expensive — like
    # per-write policy evaluation — leaked onto the write path.
    Bar("e2", "curator.batched_rps", ">=", 1.0 - 0.10, of_reference=True),
    # Absolute floor for the curator's batched ingest: 5x the write path
    # as it stood before the raw-speed rebuild (~490 records/sec).  The
    # reference-relative rows catch drift; the absolute bar pins the
    # rebuild itself (aggregated signing, BLAKE2b digests, scattered
    # frames, batch AEAD) so no sequence of individually-tolerated
    # regressions can quietly give it back.
    Bar("e2", "curator.batched_rps", ">=", 2450.0),
    # The acceptance bar of the batched path: store_many amortizes journal
    # flushes and posting-list commits and must come in at >= 2x the
    # single-record arm while every security property still holds.
    Bar("e2", "curator.speedup", ">=", 2.0),
    # -- E6b: online rebalance ---------------------------------------------
    # Online rebalance impact bound: p99 read latency during the move
    # window may be at most this multiple of the steady-state p99.
    Bar("e6", "p99_ratio", "<=", 2.0),
    # Elasticity bought with unproven moves does not count: the arm moved
    # patients, and every move carries a verifier-accepted MigrationProof.
    Bar("e6", "moves", ">=", 1),
    Bar("e6", "proof_failures", "<=", 0),
    Bar("e6", "unverified_moves", "<=", 0),
    # The move window must lose no detection power.
    Bar("e6", "equivalence_violations", "<=", 0),
    # -- E7b: tiered cold archive ------------------------------------------
    # Cold-tier bars: per-record cold footprint vs the warm journal+WORM
    # bytes, recall p99 vs warm read p99, and the incremental-verify
    # speedup over a full rescan on a mostly-cold archive.  A cold tier
    # that is cheap but slow to recall — or fast but unverified — does not
    # count.
    Bar("e7", "footprint_ratio", "<=", 0.5),
    Bar("e7", "recall_p99_ratio", "<=", 10.0),
    Bar("e7", "verify_speedup", ">=", 3.0),
    # -- E8: incremental audit verification --------------------------------
    # Half the measured speed-up, so the bar can fail.  Twelve runs on the
    # level-table Merkle tree (PR 19) read 62.5-89.4x, median 74.5x (full
    # ~230 ms, incremental ~3.1 ms: 100 replayed events, 16 spot checks and
    # O(log n) hashes); the parent's O(n) leaf folds read 9.9-11.2x, which
    # this bar refuses.  The old 5x bar sat under a sixth of the measurement.
    Bar("e8", "speedup", ">=", 37.0),
    # A fast path that trades away detection is a security regression no
    # matter how fast it got.
    Bar("e8", "equivalence_violations", "<=", 0),
    # -- E9b: cluster scaling ----------------------------------------------
    Bar("e9_cluster", "speedup", ">=", 2.5),
    # The 8-shard process-pool arm answers from per-shard state an eighth
    # the size; it must clear a higher bar than the in-process cluster.
    # The bar is a ratio over a single engine that thrashes its read cache
    # and so decrypts on every read, and the native ChaCha20 kernel (PR 14)
    # made exactly that denominator ~1.45x faster while the cluster arms,
    # which mostly hit their caches, gained ~10 %.  Every arm the median of
    # 5 fresh clusters, parent -> change, runs alternated over two hours:
    # single engine 409 / 402 / 424 / 401 / 429 -> 533-609 (eleven runs,
    # median 588); 8-worker arm 2,056 / 2,195 / 2,077 / 1,853 / 1,877 ->
    # 1,642-2,402 (median 2,083); so worker_speedup 5.03 / 5.45 / 4.90 /
    # 4.63 / 4.37 -> 3.85 3.66 3.95 3.71 2.95 2.85 3.14 3.21 3.91 3.48 3.08
    # (median 3.48).  The old 5.0 bar failed three of the parent's own five
    # runs.  The worker arm is 8 processes and 4 client threads on 2 vCPUs
    # and follows what the hypervisor gives it from one half hour to the
    # next (the single arm does not), so the bar sits under the lowest run
    # seen, not 15 % under the median: 2.75 is cleared by the median with
    # 27 % to spare and by the worst of eleven runs with 4 %.
    Bar("e9_cluster", "worker_speedup", ">=", 2.75),
    # A ratio bar alone would let the worker arm itself slow down as long
    # as the single engine slowed with it, so the arm also carries an
    # absolute floor: the 1,610 ops/s committed before PR 14 (that figure
    # was one first-touch run; eleven medians on this build read
    # 1,642-2,402, the two lowest inside `make verify`).
    Bar("e9_cluster", "worker_cluster_ops_per_sec", ">=", 1610.0),
    # Sharding must lose no detection power; scale bought by skipping
    # verification does not count.
    Bar("e9_cluster", "equivalence_violations", "<=", 0),
    # -- E11b: the wire service under closed-loop load ----------------------
    # Wire-service bars: the frontend must hold >= 200 concurrent
    # authenticated sessions at a sustained closed-loop floor with a tail
    # ceiling — with zero errors and full audit coverage (measured ~650
    # rps / p99 ~1.5 s on the reference box; the floor and ceiling are
    # deliberately loose so the gate catches architecture regressions,
    # not scheduler jitter).
    Bar("e11_service", "sessions", ">=", 200),
    Bar("e11_service", "sustained_rps", ">=", 250.0),
    Bar("e11_service", "p99_ms", "<=", 5000.0),
    # The closed loop must complete cleanly, every wire request left a
    # service audit event and the chain still verifies: throughput
    # without the trustworthy log does not count.
    Bar("e11_service", "errors", "<=", 0),
    Bar("e11_service", "audit_coverage_ok", ">=", 1),
    Bar("e11_service", "audit_chain_ok", ">=", 1),
)


def gate(experiment: str, metrics: dict[str, float], params: dict) -> None:
    """Write, print and assert *experiment*'s measurement (module doc)."""
    OUT.mkdir(exist_ok=True)
    (OUT / f"{experiment}.json").write_text(
        json.dumps(
            {"experiment": experiment, "params": params, "metrics": metrics},
            indent=2,
        )
        + "\n"
    )
    reference = json.loads(REFERENCE.read_text())[experiment]["metrics"]
    rows, failures = [], []
    for bar in BARS:
        if bar.experiment != experiment:
            continue
        for name, threshold in bar.thresholds(reference).items():
            measured = metrics.get(name)
            limit = f"{bar.op} {threshold:g}"
            if measured is None:
                failures.append(f"{experiment}.{name}: not reported (bar {limit})")
                continue
            slack = measured - threshold if bar.op == ">=" else threshold - measured
            rows.append([name, measured, limit, f"{slack:+.4g}"])
            if slack < 0:
                failures.append(f"{experiment}.{name}: {measured} (bar {limit})")
    print_table(f"{experiment} bars", ["metric", "measured", "bar", "slack"], rows)
    if failures:
        raise AssertionError("; ".join(failures))
