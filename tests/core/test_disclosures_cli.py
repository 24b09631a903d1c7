"""Patient-facing disclosures, third-party audit proofs, and the CLI."""

import pytest

from repro.access.principals import Role, User
from repro.audit.log import verify_event_proof
from repro.cli import main as cli_main
from repro.core import CuratorConfig, CuratorStore
from repro.crypto import chacha20, rsa
from repro.errors import AccessDeniedError, IntegrityError
from repro.records.model import ClinicalNote
from repro.util.clock import SimulatedClock

MASTER = bytes(range(32))


def make_store(**config):
    clock = SimulatedClock(start=1.17e9)
    store = CuratorStore(CuratorConfig(master_key=MASTER, clock=clock, **config))
    for i, patient in enumerate(("pat-1", "pat-1", "pat-2")):
        note = ClinicalNote.create(
            record_id=f"rec-{i}",
            patient_id=patient,
            created_at=clock.now(),
            author="dr-a",
            specialty="oncology",
            text="routine followup visit",
        )
        store.store(note, author_id="dr-a")
    return store, clock


def test_records_of_patient():
    store, _ = make_store()
    assert store.records_of_patient("pat-1") == ["rec-0", "rec-1"]
    assert store.records_of_patient("pat-2") == ["rec-2"]
    assert store.records_of_patient("pat-x") == []


def test_accounting_of_disclosures_scopes_to_patient():
    store, _ = make_store()
    store.read("rec-0", actor_id="dr-a")
    store.read("rec-2", actor_id="dr-a")
    store.register_user(User.make("po", "PO", [Role.PRIVACY_OFFICER]))
    report = store.accounting_of_disclosures("pat-1", actor_id="po")
    subjects = {event.subject_id for event in report}
    assert subjects <= {"rec-0", "rec-1"}
    assert any(event.action.value == "record_read" for event in report)


def test_accounting_requires_authorization():
    store, _ = make_store()
    store.register_user(User.make("rn", "Nurse", [Role.NURSE]))
    with pytest.raises(AccessDeniedError):
        store.accounting_of_disclosures("pat-1", actor_id="rn")
    # ...and the refused attempt is itself audited.
    denied = [e for e in store.audit_events() if e["action"] == "access_denied"]
    assert any(e["actor_id"] == "rn" for e in denied)


def test_prove_audit_event_to_third_party():
    store, _ = make_store()
    store.read("rec-0", actor_id="dr-a")
    event, chain_prev, proof, anchor = store.prove_audit_event(2)
    # The verifier trusts only the witnessed anchor.
    verify_event_proof(event, chain_prev, proof, anchor.merkle_root)
    assert anchor.log_size >= 3


def test_prove_audit_event_anchors_through_the_whole_quorum():
    # The anchor a third party is handed must be held by every witness,
    # not by the first of three (one witness is below the majority).
    store, _ = make_store(witness_count=3, anchor_every_events=1000)
    *_, anchor = store.prove_audit_event(2)
    witnesses = store._witnesses  # noqa: SLF001
    assert len(witnesses) == 3
    assert [witness.latest() for witness in witnesses] == [anchor] * 3


def test_prove_audit_event_forged_disclosure_rejected():
    import dataclasses

    store, _ = make_store()
    event, chain_prev, proof, anchor = store.prove_audit_event(1)
    forged = dataclasses.replace(event, subject_id="some-other-record")
    with pytest.raises(IntegrityError):
        verify_event_proof(forged, chain_prev, proof, anchor.merkle_root)


def test_cli_info_and_demo(capsys):
    assert cli_main(["info"]) == 0
    out = capsys.readouterr().out
    assert "repro (Curator)" in out
    assert f"chacha20 backend: {chacha20.BACKEND}" in out
    assert f"rsa backend: {rsa.BACKEND}" in out
    # the inventory is read from the package, so it names every subsystem
    for package in ("cluster", "service", "policy", "archive", "verify", "util"):
        assert f"repro.{package}" in out


def test_cli_requires_command(capsys):
    with pytest.raises(SystemExit):
        cli_main([])
