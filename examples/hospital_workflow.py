"""A day in a hospital: roles, consent, break-glass, and forensics.

Demonstrates the access-control surface of the paper's requirements:
minimum necessary, patient consent directives, emergency break-glass
with mandatory review, and the privacy officer's forensic queries.
Eight years on, the operational audit reports what has drifted.

Run:  python examples/hospital_workflow.py
"""

import secrets

from repro import CuratorConfig, CuratorStore
from repro.access import ConsentDirective, Role, User
from repro.compliance.operations import operational_findings, render_findings
from repro.errors import AccessDeniedError, ConsentError
from repro.records import ClinicalNote, Patient
from repro.util import SimulatedClock


def main() -> None:
    clock = SimulatedClock(start=1.17e9)
    store = CuratorStore(
        CuratorConfig(master_key=secrets.token_bytes(32), site_id="general-hospital", clock=clock)
    )

    # Enroll the workforce.
    store.register_user(User.make("rn-kim", "Nurse Kim", [Role.NURSE]))
    store.register_user(User.make("bill-lee", "Lee (billing)", [Role.BILLING]))
    store.register_user(User.make("dr-er", "Dr. ER", [Role.PHYSICIAN]))
    store.register_user(User.make("po-ruiz", "Ruiz (privacy officer)", [Role.PRIVACY_OFFICER]))

    # Admit a patient; the attending documents care.
    demographics = Patient.create(
        record_id="rec-demo-1",
        patient_id="pat-grace",
        created_at=clock.now(),
        name="Grace Hopper",
        birth_date="1906-12-09",
        address="Arlington, VA",
        ssn="123-45-6789",
    )
    store.store(demographics, author_id="dr-house")
    note = ClinicalNote.create(
        record_id="rec-note-1",
        patient_id="pat-grace",
        created_at=clock.now(),
        author="dr-house",
        specialty="oncology",
        text="biopsy confirms carcinoma; chemotherapy options discussed",
    )
    store.store(note, author_id="dr-house")

    # The attending reads freely; a random nurse does not.
    store.read("rec-note-1", actor_id="dr-house")
    try:
        store.read("rec-note-1", actor_id="rn-kim")
    except AccessDeniedError as exc:
        print("nurse without treating relationship denied:", exc)

    # Minimum necessary: billing sees demographics fields it needs, not the SSN.
    view = store.read_view("rec-demo-1", actor_id="bill-lee")
    print("billing's view of demographics:", view)

    # The patient restricts disclosure to billing entirely.
    store.consent.add_directive(
        "pat-grace",
        ConsentDirective("no-billing", blocked_roles=frozenset({Role.BILLING})),
    )
    try:
        store.read("rec-demo-1", actor_id="bill-lee")
    except ConsentError as exc:
        print("consent directive blocks billing:", exc)

    # Night shift: the patient arrests, Dr. ER has no relationship on file.
    grant = store.break_glass(
        "dr-er", "pat-grace", "patient coding in ER, need oncology history now"
    )
    record = store.read("rec-note-1", actor_id="dr-er")
    print("break-glass read succeeded:", record.body["text"][:40], "...")

    # Morning: the privacy officer works the review queue and runs forensics.
    pending = store.breakglass.pending_review()
    print(f"\nbreak-glass grants awaiting review: {len(pending)}")
    store.breakglass.review(grant.grant_id, "po-ruiz")

    query = store.audit_query()
    print("denial counts:", query.denial_counts())
    print("accesses to rec-note-1:")
    for event in query.accesses_to("rec-note-1"):
        print(f"  {event.action.value:<18} by {event.actor_id}")
    print("\naudit trail verifies:", store.verify_audit_trail().summary())

    # Eight years on: the media have aged and the note's term has run out.
    clock.advance_years(8)
    print("\n" + render_findings(operational_findings(store)))


if __name__ == "__main__":
    main()
