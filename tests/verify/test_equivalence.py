"""The detection-equivalence oracle: the incremental fast path loses no
detection power against a full rescan."""

from repro.verify.equivalence import EquivalenceCase, EquivalenceReport

#: The scenario table's rows for a freshly built single engine: every
#: tamper, plus the two media-refresh rows.
ENGINE_ROWS = {
    *(
        f"engine/fresh/{name}"
        for name in (
            "no_tamper_control",
            "audit_prefix_rewrite",
            "audit_suffix_rewrite",
            "audit_chain_field_edit",
            "audit_truncation",
            "audit_trace_text_edit",
            "audit_trace_repoint",
            "watermark_destruction",
            "watermark_forgery",
            "worm_dirty_object_rot",
            "worm_clean_object_rot",
            "worm_batch_member_rot",
            "worm_batch_member_decay",
            "cold_segment_body_rot",
            "cold_manifest_rot",
            "cold_recall_truncation",
            "index_chunk_rot",
            "index_chunk_swap",
            "index_tail_rollback",
            "index_fold_drop",
            "index_chunk_replay",
            "index_chunk_reorder",
            "refresh_after_rot",
        )
    ),
    "engine/refreshed/worm_clean_object_rot",
}


def make_case(**overrides):
    base = dict(
        name="case",
        tampered=True,
        incremental_detects=True,
        full_detects=True,
        caught_by="incremental",
        attempts=1,
    )
    base.update(overrides)
    return EquivalenceCase(**base)


def test_violation_when_full_detects_but_the_policy_missed():
    assert make_case(incremental_detects=False, caught_by="none").violation


def test_no_violation_when_the_policy_caught_it():
    assert not make_case().violation
    assert not make_case(caught_by="escalation", attempts=5).violation


def test_no_violation_when_neither_path_detects():
    # tampering that genuinely leaves no trace in either mode is not an
    # equivalence gap (there is nothing the fast path gave up)
    assert not make_case(
        incremental_detects=False, full_detects=False, caught_by="none"
    ).violation


def test_control_case_flags_any_false_positive():
    clean = make_case(
        name="control",
        control=True,
        tampered=False,
        incremental_detects=False,
        full_detects=False,
        caught_by="n/a",
    )
    assert not clean.violation
    assert make_case(
        name="control", control=True, tampered=False, full_detects=False,
        caught_by="n/a",
    ).violation


def test_a_tamper_that_never_landed_is_a_violation_not_a_control():
    assert make_case(
        tampered=False, incremental_detects=False, full_detects=False, caught_by="n/a"
    ).violation


def test_exact_blame_required_when_expected_flag_set():
    # smeared blame across batch siblings is a violation ...
    assert make_case(
        expected_flag="rec-batch-2", flagged=("rec-batch-1", "rec-batch-2")
    ).violation
    # ... as is flagging the wrong record entirely ...
    assert make_case(expected_flag="rec-batch-2", flagged=("rec-batch-0",)).violation
    # ... while exactly the victim is clean
    assert not make_case(
        expected_flag="rec-batch-2", flagged=("rec-batch-2",)
    ).violation


def test_suite_runs_clean_end_to_end(scenario_table):
    cases = {
        case.name: case
        for case in scenario_table.cases
        if case.name.startswith("engine/fresh/") or case.name in ENGINE_ROWS
    }
    assert set(cases) == ENGINE_ROWS
    report = EquivalenceReport(cases=tuple(cases.values()))
    assert report.ok, report.summary()
    assert report.violations == []
    # every tamper behaviour actually landed on a device
    for case in report.cases:
        if case.name != "engine/fresh/no_tamper_control":
            assert case.tampered, f"{case.name} tamper never landed"
            assert case.full_detects, f"{case.name} invisible to a full pass"
            assert case.caught_by in (
                "incremental", "escalation", "migration-verify"
            )
    # every WORM rot implicated exactly the rotten record, whether
    # store() wrote it alone (dirty, clean) or store_many beside others,
    # and whether the frame checksum was forged or left broken by decay
    for tamper, victim in (
        ("worm_dirty_object_rot", "rec-dirty"),
        ("worm_clean_object_rot", "rec-0"),
        ("worm_batch_member_rot", "rec-batch-2"),
        ("worm_batch_member_decay", "rec-batch-2"),
    ):
        case = cases[f"engine/fresh/{tamper}"]
        assert case.expected_flag == victim and case.flagged == (victim,)
    # the cold-tier tampers likewise blamed exactly the forged member
    for tamper in ("cold_segment_body_rot", "cold_manifest_rot",
                   "cold_recall_truncation"):
        case = cases[f"engine/fresh/{tamper}"]
        assert case.flagged == (case.expected_flag,)
    # index tampers: the first incremental pass and the full pass both
    # blamed the index and nothing else
    for tamper in ("index_chunk_rot", "index_chunk_swap", "index_tail_rollback",
                   "index_fold_drop", "index_chunk_replay", "index_chunk_reorder"):
        case = cases[f"engine/fresh/{tamper}"]
        assert case.caught_by == "incremental" and case.attempts == 1
        assert case.flagged == ("<index>",)
    summary = report.summary()
    assert "24 cases, 0 violations" in summary
