"""E8 — trustworthy audit at scale (paper §3 Logging).

Paper claim: all access must be logged "in a trustworthy manner" and
regulations require extensive logging — so verification must stay
affordable as the log grows.  Expected shape: full-chain verification
is linear in log size; Merkle-anchored truncation checking is
logarithmic per anchor (a historical root is O(log n) hashes out of the
tree's level table); a bare hash chain misses truncation while
the anchored log catches it (the headline ablation); and the
watermarked incremental fast path re-verifies a small delta at a small
fraction of the full-rescan cost without losing detection power
(the ``e8`` rows of ``benchmarks/bars.py``).
"""

import time

import pytest

from benchmarks.bars import gate
from benchmarks.common import new_clock, print_table
from repro.audit.anchors import AnchorWitness, publish_anchor
from repro.audit.checkpoint import CheckpointStore
from repro.audit.events import AuditAction
from repro.audit.log import AuditLog
from repro.crypto.rsa import generate_keypair
from repro.crypto.signatures import Signer
from repro.errors import AuditError
from repro.storage.block import MemoryDevice
from repro.verify.equivalence import run_scenario_table, scenarios

KEYPAIR = generate_keypair(768)

N_EVENTS = 10_000  # archive-scale log for the fast-path measurement
N_DELTA = 100      # events appended since the last full verification

#: The scenario table's rows for a freshly built single engine: every
#: tamper, plus the media-refresh rows.
EQUIVALENCE_ROWS = [
    *(name for name in scenarios() if name.startswith("engine/fresh/")),
    "engine/refreshed/worm_clean_object_rot",
]


def _grown_log(n):
    clock = new_clock()
    log = AuditLog(device=MemoryDevice("audit", 1 << 24), clock=clock)
    for i in range(n):
        log.append(AuditAction.RECORD_READ, f"actor-{i % 7}", f"rec-{i % 50}")
    return clock, log


@pytest.mark.parametrize("size", [100, 400, 1600])
def test_e8_chain_verification_scaling(benchmark, size):
    clock, log = _grown_log(size)

    result = benchmark.pedantic(log.verify_chain, rounds=3, iterations=1)
    assert result.ok
    assert result.events_checked == size


def test_e8_verification_is_linear(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    timings = {}
    for size in (200, 400, 800, 1600):
        clock, log = _grown_log(size)
        start = time.perf_counter()
        log.verify_chain()
        timings[size] = time.perf_counter() - start
        rows.append([size, f"{timings[size] * 1e3:8.2f}", f"{timings[size] / size * 1e6:6.1f}"])
    print_table(
        "E8 audit chain verification cost",
        ["log size", "verify ms", "us/event"],
        rows,
    )
    # linear shape: doubling size roughly doubles the cost (generous band)
    ratio = timings[1600] / timings[200]
    assert 3.0 < ratio < 24.0, ratio


def _checkpointed_log(n):
    clock = new_clock()
    checkpoints = CheckpointStore(
        device=MemoryDevice("ckpt", 1 << 20),
        key=b"\x42" * 32,
        clock=clock,
    )
    log = AuditLog(
        device=MemoryDevice("audit", 1 << 25),
        clock=clock,
        checkpoints=checkpoints,
    )
    for i in range(n):
        log.append(AuditAction.RECORD_READ, f"actor-{i % 7}", f"rec-{i % 50}")
    return clock, log


def test_e8_incremental_fast_path(benchmark):
    """The headline fast-path measurement.

    A full verification of a 10k-event log seals a watermark; the next
    verification after a 100-event delta replays only the suffix, ties
    it to the sealed prefix with a Merkle consistency proof (O(log n)
    hashes), and spot-checks a random prefix sample.  The speedup over
    the full rescan is only admissible alongside **zero**
    detection-equivalence violations, so the tamper oracle runs here
    too and both numbers go through the same gate.
    """
    clock, log = _checkpointed_log(N_EVENTS)

    start = time.perf_counter()
    full = log.verify_chain()
    full_s = time.perf_counter() - start
    assert full.ok and full.mode == "full"
    assert full.events_checked == N_EVENTS
    assert log.watermark is not None and log.watermark.size == N_EVENTS

    for i in range(N_DELTA):
        log.append(AuditAction.RECORD_READ, f"actor-{i % 7}", f"rec-{i % 50}")

    start = time.perf_counter()
    incremental = log.verify_chain(incremental=True)
    incremental_s = time.perf_counter() - start
    assert incremental.ok and incremental.mode == "incremental"
    assert not incremental.escalated
    assert incremental.events_checked == N_DELTA

    # a full rescan is still one call away
    rescan = log.verify_chain()
    assert rescan.ok and rescan.mode == "full"

    speedup = full_s / incremental_s
    equivalence = run_scenario_table(EQUIVALENCE_ROWS)

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print_table(
        "E8 incremental fast path (10k events, 100-event delta)",
        ["arm", "verify ms", "events checked"],
        [
            ["full rescan", f"{full_s * 1e3:10.2f}", full.events_checked],
            [
                "incremental",
                f"{incremental_s * 1e3:10.2f}",
                incremental.events_checked,
            ],
            ["speedup", f"{speedup:9.1f}x", ""],
        ],
    )
    print(equivalence.summary())

    gate(
        "e8",
        {
            "full_ms": round(full_s * 1e3, 3),
            "incremental_ms": round(incremental_s * 1e3, 3),
            "speedup": round(speedup, 2),
            "spot_checked": incremental.spot_checked,
            "equivalence_cases": len(equivalence.cases),
            "equivalence_violations": len(equivalence.violations),
        },
        {"log_size": N_EVENTS, "delta": N_DELTA},
    )


def test_e8_ablation_truncation_detection(benchmark):
    """Hash chain alone vs hash chain + anchoring, against truncation."""
    clock, log = _grown_log(300)
    signer = Signer("hospital-A", keypair=KEYPAIR)
    witness = AnchorWitness(signer.verifier())
    witness.receive(publish_anchor(log, signer, clock.now()), log)

    # The adversary presents a truncated-but-internally-consistent log.
    truncated = AuditLog(device=MemoryDevice("trunc", 1 << 24), clock=clock)
    for event in log.events()[:120]:
        truncated.append(event.action, event.actor_id, event.subject_id, event.detail)

    chain_alone_catches = not truncated.verify_chain().ok
    try:
        witness.check_log(truncated)
        anchored_catches = False
    except AuditError:
        anchored_catches = True

    def anchored_check():
        try:
            witness.check_log(truncated)
        except AuditError:
            pass

    benchmark.pedantic(anchored_check, rounds=5, iterations=1)

    print_table(
        "E8 ablation: truncation attack",
        ["mechanism", "truncation caught?"],
        [
            ["hash chain alone", "yes" if chain_alone_catches else "NO (vulnerable)"],
            ["hash chain + Merkle anchor", "yes" if anchored_catches else "NO"],
        ],
    )
    assert not chain_alone_catches  # internally consistent prefix
    assert anchored_catches
