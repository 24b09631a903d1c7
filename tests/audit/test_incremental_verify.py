"""The incremental verification fast path: O(delta) replay, consistency
proofs against the sealed prefix, randomized spot-checks, and the
forced-rescan cadence."""

import random

import pytest

from repro.audit.checkpoint import CheckpointStore
from repro.audit.events import AuditAction
from repro.audit.log import AuditLog
from repro.audit.query import AuditQuery
from repro.storage.block import MemoryDevice
from repro.storage.journal import Journal
from repro.util.clock import SimulatedClock
from repro.util.encoding import canonical_bytes, canonical_loads
from repro.util.metrics import METRICS

KEY = b"\x42" * 32


def grown_log(n=12, spot_checks=16, full_rescan_every=64, checkpoints=True):
    clock = SimulatedClock(start=1.17e9)
    log = AuditLog(
        device=MemoryDevice("audit", 1 << 22),
        clock=clock,
        checkpoints=(
            CheckpointStore(
                device=MemoryDevice("ckpt", 1 << 20), key=KEY, clock=clock
            )
            if checkpoints
            else None
        ),
        spot_checks=spot_checks,
        full_rescan_every=full_rescan_every,
        rng=random.Random(1234),
    )
    for i in range(n):
        log.append(AuditAction.RECORD_READ, f"actor-{i % 3}", f"rec-{i % 5}")
    return log


def append_delta(log, n=4):
    for i in range(n):
        log.append(AuditAction.RECORD_READ, "actor-delta", f"rec-{i}")


def forge(log, index, mutate):
    """In-place raw-device tamper of the index-th journal frame."""
    for position, (offset, payload, _ok) in enumerate(
        Journal.walk_frames(log.device)
    ):
        if position == index:
            Journal.forge_frame(log.device, offset, mutate(payload))
            return
    raise AssertionError(f"no frame {index}")


def rewrite_actor(payload):
    assert b"actor-" in payload
    return payload.replace(b"actor-", b"doctor", 1)


def flip_chain(payload):
    entry = canonical_loads(payload)
    chain = entry["chain"]
    entry["chain"] = chain[:-1] + bytes([chain[-1] ^ 0x01])
    return canonical_bytes(entry)


def test_incremental_without_a_watermark_escalates_to_full():
    log = grown_log()
    result = log.verify_chain(incremental=True)
    assert result.ok and result.escalated
    assert result.events_checked == len(log)
    # ... and the escalated pass sealed a watermark for next time
    assert log.watermark is not None and log.watermark.size == len(log)


def test_incremental_replays_only_the_delta():
    log = grown_log(n=12)
    assert log.verify_chain().ok
    append_delta(log, 4)
    result = log.verify_chain(incremental=True)
    assert result.ok and result.mode == "incremental"
    assert not result.escalated
    assert result.events_checked == 4
    assert result.spot_checked == min(16, 12)


def test_successful_incremental_advances_the_watermark():
    log = grown_log(n=10)
    assert log.verify_chain().ok
    append_delta(log, 3)
    assert log.verify_chain(incremental=True).ok
    assert log.watermark.size == 13
    assert log.watermark.incremental_runs == 1
    append_delta(log, 2)
    assert log.verify_chain(incremental=True).ok
    assert log.watermark.size == 15
    assert log.watermark.incremental_runs == 2


def test_a_full_pass_between_incremental_ones_resets_the_cadence():
    log = grown_log(n=10)
    assert log.verify_chain().ok
    append_delta(log, 3)
    assert log.verify_chain(incremental=True).ok
    assert log.watermark.incremental_runs == 1
    append_delta(log, 2)
    result = log.verify_chain()
    assert result.ok and result.mode == "full" and not result.escalated
    assert result.events_checked == len(log)
    assert log.watermark.incremental_runs == 0  # full pass resets the cadence


def test_forced_rescan_cadence_escalates():
    log = grown_log(n=8, full_rescan_every=3)
    assert log.verify_chain().ok
    for expected_runs in (1, 2):
        append_delta(log, 1)
        result = log.verify_chain(incremental=True)
        assert result.ok and not result.escalated
        assert log.watermark.incremental_runs == expected_runs
    append_delta(log, 1)
    before = METRICS.get("audit_verify_escalations")
    result = log.verify_chain(incremental=True)  # 3rd: cadence due
    assert result.ok and result.escalated
    assert METRICS.get("audit_verify_escalations") == before + 1
    assert log.watermark.incremental_runs == 0  # cadence restarted


def test_suffix_tampering_is_always_caught_incrementally():
    log = grown_log(n=10)
    assert log.verify_chain().ok
    append_delta(log, 4)
    forge(log, 12, rewrite_actor)  # past the watermark (size 10)
    result = log.verify_chain(incremental=True)
    assert not result.ok and result.mode == "incremental"
    assert result.first_bad_sequence == 12
    assert log.watermark.size == 10  # a failed pass seals nothing


def test_sealed_prefix_tampering_is_caught_by_the_spot_check():
    # spot_checks >= watermark.size: the sample covers the whole prefix,
    # making the probabilistic check deterministic for this test.
    log = grown_log(n=10, spot_checks=10)
    assert log.verify_chain().ok
    append_delta(log, 2)
    forge(log, 3, rewrite_actor)
    result = log.verify_chain(incremental=True)
    assert not result.ok and result.mode == "incremental"
    assert result.first_bad_sequence == 3
    assert "prefix tampering" in result.problem


def test_sealed_prefix_chain_digest_edit_is_caught_by_the_spot_check():
    log = grown_log(n=10, spot_checks=10)
    assert log.verify_chain().ok
    append_delta(log, 2)
    forge(log, 5, flip_chain)
    result = log.verify_chain(incremental=True)
    assert not result.ok
    assert "chain digest wrong" in result.problem


def test_dodging_the_sample_only_defers_detection_to_the_cadence():
    # One spot check against a 20-event prefix: the sampler can miss,
    # but the cadence forces a full rescan on the 2nd incremental run.
    log = grown_log(n=20, spot_checks=1, full_rescan_every=2)
    assert log.verify_chain().ok
    append_delta(log, 2)
    forge(log, 3, rewrite_actor)
    detected = False
    for _ in range(2):
        if not log.verify_chain(incremental=True):
            detected = True
            break
    assert detected  # within full_rescan_every passes, never later


def test_stale_watermark_from_a_foreign_log_escalates():
    donor = grown_log(n=20)
    assert donor.verify_chain().ok
    log = grown_log(n=6, checkpoints=False)
    log.adopt_checkpoints(donor.checkpoints)  # claims 20 verified events
    result = log.verify_chain(incremental=True)
    # The oversized foreign watermark is never trusted: the request is
    # served by a full rescan (which this clean log passes) and the
    # watermark is re-sealed to the log's own state.
    assert result.escalated
    assert result.ok and result.events_checked == 6
    assert log.watermark.size == 6


def test_truncated_tail_fails_the_incremental_head_comparison():
    log = grown_log(n=10)
    assert log.verify_chain().ok
    append_delta(log, 3)
    frames = list(Journal.walk_frames(log.device))
    log.device.raw_write(frames[-1][0], b"\x00" * 8)
    result = log.verify_chain(incremental=True)
    assert not result.ok and result.mode == "incremental"


def test_zero_spot_checks_is_allowed():
    log = grown_log(n=8, spot_checks=0)
    assert log.verify_chain().ok
    append_delta(log, 2)
    result = log.verify_chain(incremental=True)
    assert result.ok and result.spot_checked == 0


# -- proof-carrying query sessions ----------------------------------------


def test_query_verifies_once_per_session_and_reverifies_on_growth():
    log = grown_log(n=10)
    assert log.verify_chain().ok
    before = METRICS.get("audit_verify_incremental_runs")
    query = AuditQuery(log)
    query.actions_by("actor-0")
    query.accesses_to("rec-1")  # same session, same log size: no re-verify
    assert METRICS.get("audit_verify_incremental_runs") == before + 1
    append_delta(log, 2)
    query.actions_by("actor-delta")  # the log grew: verify the new delta
    assert METRICS.get("audit_verify_incremental_runs") == before + 2


def test_query_evidence_names_the_verification_that_backs_it():
    log = grown_log(n=10)
    assert log.verify_chain().ok
    append_delta(log, 2)
    query = AuditQuery(log)
    query.actions_by("actor-0")
    evidence = query.evidence()
    assert evidence["verified"] is True
    assert evidence["mode"] == "incremental"
    assert evidence["log_size"] == 12
    assert evidence["chain_head"] == log.head_digest
    assert evidence["merkle_root"] == log.merkle_root()


def test_query_proof_is_checkable_against_the_published_root():
    from repro.audit.log import verify_event_proof

    log = grown_log(n=10)
    query = AuditQuery(log)
    events = query.actions_by("actor-1")
    event, chain_prev, proof = query.prove(events[0].sequence)
    verify_event_proof(event, chain_prev, proof, log.merkle_root())
