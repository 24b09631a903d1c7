"""The research pseudonym is a keyed digest under a key derived from
the master key — not Python's process-salted ``hash()`` — so it is the
same in every process and different under every master key."""

import os
import subprocess
import sys
import textwrap

import repro

SCRIPT = textwrap.dedent(
    """
    import sys
    from repro.access.principals import Role, User
    from repro.core import CuratorConfig, CuratorStore
    from repro.records.model import ClinicalNote
    from repro.util.clock import SimulatedClock

    clock = SimulatedClock(start=1.17e9)
    store = CuratorStore(CuratorConfig(master_key=bytes([int(sys.argv[1])]) * 32, clock=clock))
    store.register_user(User.make("res", "Researcher", [Role.RESEARCHER]))
    for patient_id in sys.argv[2:]:
        store.store(
            ClinicalNote.create(
                record_id=f"rec-{patient_id}", patient_id=patient_id,
                created_at=clock.now(), author="dr-a", specialty="x", text="t",
            ),
            "dr-a",
        )
        print(store.export_deidentified(f"rec-{patient_id}", actor_id="res").patient_id)
    """
)


def pseudonyms(hash_seed, key_byte, *patients):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONHASHSEED": str(hash_seed), "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(key_byte), *patients],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return out.stdout.split()


def test_pseudonym_is_stable_across_processes_and_keyed():
    patients = [f"pat-{n}" for n in range(40)]
    first = pseudonyms(1, 7, *patients)
    assert first == pseudonyms(2, 7, *patients)
    assert len(set(first)) == len(patients)
    assert all(p.startswith("case-") and len(p) == len("case-") + 16 for p in first)
    # another deployment's master key gives unlinkable pseudonyms
    assert not set(first) & set(pseudonyms(1, 8, *patients))
