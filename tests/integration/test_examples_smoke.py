"""Smoke-run the example scripts so they cannot silently rot.

The full compliance_audit example is exercised by the E1 benchmark and
tests/compliance; it takes minutes, so it is excluded here.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "hospital_workflow.py",
    "thirty_year_archive.py",
    "breach_forensics.py",
    "ownership_transfer.py",
    "wire_service.py",
    "metrics.py",
    "cluster_rebalance.py",
]

#: What an example must print besides running clean.
SHOWS = {
    "hospital_workflow.py": ["Operational audit:"],
    # the whole flow goes over the wire, and the denial is audited too
    "wire_service.py": ["service audit chain verifies", "api_rejected"],
    "cluster_rebalance.py": ["0 failures"],
}


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs_clean(script, capsys):
    path = EXAMPLES_DIR / script
    assert path.exists(), f"missing example {script}"
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script} produced no output"
    for needle in SHOWS.get(script, ()):
        assert needle in out, f"{script} did not print {needle!r}"


def test_quickstart_demonstrates_the_headline_claims(capsys):
    runpy.run_path(str(EXAMPLES_DIR / "quickstart.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "plaintext on device? False" in out
    assert "audit trail verifies: [full] ok" in out
    assert "store integrity: clean" in out


def test_breach_forensics_shows_the_contrast(capsys):
    runpy.run_path(str(EXAMPLES_DIR / "breach_forensics.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "undetected" in out  # the relational act
    assert "detected" in out  # the Curator act


def test_ownership_transfer_shows_custody(capsys):
    runpy.run_path(str(EXAMPLES_DIR / "ownership_transfer.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "acme-steel-clinic -> newco-health" in out
    assert "ok=False corrupted=('exposure-003',)" in out

