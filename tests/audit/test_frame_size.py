"""What a read costs the audit device: one compact frame, the decision
trace written once per log and referenced by digest afterwards."""

from repro.core import CuratorConfig, CuratorStore
from repro.records.model import ClinicalNote
from repro.util.clock import SimulatedClock
from repro.util.metrics import METRICS

#: Bytes one cache-hit read may append to the audit device (its one
#: frame, journal framing included; ~128 measured).  The two JSON frames
#: this replaced took ~1,000, two binary frames ~240.
READ_AUDIT_BYTES = 160


def test_a_cache_hit_read_appends_at_most_160_audit_bytes():
    store = CuratorStore(
        CuratorConfig(master_key=bytes(range(32)), clock=SimulatedClock(start=1.17e9))
    )
    note = ClinicalNote.create(
        record_id="rec-1",
        patient_id="pat-1",
        created_at=100.0,
        author="dr-a",
        specialty="oncology",
        text="biopsy shows metastatic carcinoma",
    )
    store.store(note, author_id="dr-a")
    store.read("rec-1", actor_id="dr-a")  # the decision's text goes out once
    device = store.audit_log.device
    written, hits, events = (
        device.stats.bytes_written,
        METRICS.get("read_cache_hits"),
        len(store.audit_log),
    )
    assert store.read("rec-1", actor_id="dr-a") == note
    assert METRICS.get("read_cache_hits") == hits + 1
    assert len(store.audit_log) == events + 1  # the read, carrying its decision
    assert device.stats.bytes_written - written <= READ_AUDIT_BYTES
