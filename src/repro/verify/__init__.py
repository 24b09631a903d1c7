"""The verification substrate: crash-consistency sweeps and differential
conformance for every storage model.

Three harnesses live here, all on one deployment substrate
(:mod:`repro.verify.substrate`) and all consumed by ``python -m repro
verify`` and by the tier-1 tests:

* :mod:`repro.verify.crashpoint` / :mod:`repro.verify.oracle` — arm a
  deterministic crash at the K-th device write of a seeded workload
  (clean or torn), recover the engine from the surviving device images,
  and assert the durability contract at every write boundary;
* :mod:`repro.verify.reference` / :mod:`repro.verify.conformance` —
  replay one scripted workload through the curator and all five
  baselines, diffing each model's observable behaviour against a pure-
  python reference parameterized by the model's declared features;
* :mod:`repro.verify.equivalence` — one scenario table (deployment x
  history x raw-device tamper): the incremental verification fast path
  (watermarks, dirty sets, spot-checks, escalation) must lose no
  detection power against a full rescan, and blame exactly what was
  damaged, after any history of the store.
"""

from repro.verify.conformance import (
    ConformanceReport,
    Divergence,
    render_conformance,
    run_conformance,
)
from repro.verify.crashpoint import CrashController, surviving_image
from repro.verify.equivalence import (
    EquivalenceCase,
    EquivalenceReport,
    run_cluster_detection_equivalence,
    run_detection_equivalence,
    run_rebalance_detection_equivalence,
    run_scenario_table,
)
from repro.verify.oracle import CrashSweepReport, Violation, run_crash_sweep
from repro.verify.reference import ReferenceModel
from repro.verify.workload import WorkloadRun, run_seeded_workload

__all__ = [
    "ConformanceReport",
    "CrashController",
    "CrashSweepReport",
    "Divergence",
    "EquivalenceCase",
    "EquivalenceReport",
    "ReferenceModel",
    "Violation",
    "WorkloadRun",
    "render_conformance",
    "run_cluster_detection_equivalence",
    "run_conformance",
    "run_crash_sweep",
    "run_detection_equivalence",
    "run_rebalance_detection_equivalence",
    "run_scenario_table",
    "run_seeded_workload",
    "surviving_image",
]
