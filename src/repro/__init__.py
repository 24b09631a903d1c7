"""Curator: a regulatory-compliant secure storage system for healthcare records.

A full-system reproduction of Hasan, Winslett & Sion, *Requirements of
Secure Storage Systems for Healthcare Records* (SDM@VLDB 2007): the
hybrid compliant store the paper calls for, every storage model it
surveys as baselines, an executable version of its requirements
taxonomy, and the attack harness that scores any model against it.

Quickstart::

    from repro import CuratorStore, CuratorConfig
    from repro.records import Observation
    from repro.util import SimulatedClock
    import secrets

    clock = SimulatedClock()
    store = CuratorStore(CuratorConfig(master_key=secrets.token_bytes(32),
                                       clock=clock))
    record = Observation.create(
        record_id="rec-1", patient_id="pat-1", created_at=clock.now(),
        code="8480-6", display="Systolic BP", value=120, unit="mmHg")
    store.store(record, author_id="dr-house")
    print(store.read("rec-1", actor_id="dr-house"))

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
constructed evaluation (the paper, being a position paper, has none of
its own).
"""

from repro.cluster import ClusterManifest, CuratorCluster, VNodeRing
from repro.core.config import CuratorConfig
from repro.core.engine import CuratorStore
from repro.core.lifecycle import ArchiveLifecycle

__version__ = "1.1.0"

__all__ = [
    "ArchiveLifecycle",
    "ClusterManifest",
    "CuratorCluster",
    "CuratorConfig",
    "CuratorStore",
    "VNodeRing",
    "__version__",
]
