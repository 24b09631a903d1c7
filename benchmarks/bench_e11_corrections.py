"""E11 — corrections on immutable storage (the paper's §4 WORM critique).

Paper claim: "compliance WORM storage is mainly suitable for records
that do not require corrections.  Since medical records are expected to
be corrected, and individuals have the right to request such
corrections ... Currently, trustworthy WORM storage systems do not
support such corrections."  Expected shape: plain WORM rejects
corrections outright; relational applies them but destroys history;
the Curator hybrid applies them, preserves every prior version behind a
verifiable hash chain, and still refuses raw overwrites.
"""

from benchmarks.common import MODEL_FACTORIES, print_table, seeded_model
from repro.records.model import HealthRecord
from repro.threats.attacks import probe_correction


def _corrected_copy(record):
    return HealthRecord(
        record_id=record.record_id,
        record_type=record.record_type,
        patient_id=record.patient_id,
        created_at=record.created_at,
        body={**record.body, "corrected_marker": True},
    )


def test_e11_correction_capability_matrix(benchmark):
    rows = []
    outcomes = {}
    for name in MODEL_FACTORIES:
        model, clock, generator, stored = seeded_model(name, n_records=10)
        target = stored[0]
        probe = probe_correction(
            model, _corrected_copy(target.record), author_id=target.author_id
        )
        outcomes[name] = probe
        rows.append(
            [
                name,
                "yes" if probe.supported else "no",
                "yes" if probe.applied else "-",
                "yes" if (probe.supported and probe.history_preserved) else
                ("n/a" if not probe.supported else "LOST"),
            ]
        )
    print_table(
        "E11 corrections: support / applied / history preserved",
        ["model", "supported", "applied", "history"],
        rows,
    )
    assert not outcomes["plainworm"].supported  # the paper's WORM critique
    assert not outcomes["objectstore"].supported
    assert outcomes["relational"].supported and not outcomes["relational"].history_preserved
    curator = outcomes["curator"]
    assert curator.supported and curator.applied and curator.history_preserved

    def correct_once():
        model, clock, generator, stored = seeded_model("curator", n_records=3)
        target = stored[0]
        model.correct(
            _corrected_copy(target.record), target.author_id, "amendment"
        )

    benchmark.pedantic(correct_once, rounds=1, iterations=1)


def test_e11_version_chain_survives_many_amendments(benchmark):
    model, clock, generator, stored = seeded_model("curator", n_records=3)
    target = stored[0]
    record = target.record

    def amend(n=5):
        nonlocal record
        for i in range(n):
            record = HealthRecord(
                record_id=record.record_id,
                record_type=record.record_type,
                patient_id=record.patient_id,
                created_at=record.created_at,
                body={**record.body, "amendment": i},
            )
            model.correct(record, target.author_id, f"amendment {i}")

    benchmark.pedantic(amend, rounds=1, iterations=1)
    assert model.version_count(record.record_id) == 6
    assert model.verify_integrity().ok
    v0 = model.read_version(record.record_id, 0, actor_id=target.author_id)
    assert "amendment" not in v0.body
    print(f"\nE11b: {model.version_count(record.record_id)} versions, chain verifies")
