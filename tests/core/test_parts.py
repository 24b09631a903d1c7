"""Each part of the engine, driven alone: hand-built from its
collaborators on ``MemoryDevice``s, no ``CuratorStore`` anywhere."""

from types import SimpleNamespace

import pytest

from repro.access.breakglass import BreakGlassController
from repro.access.policies import ConsentRegistry
from repro.access.principals import Role, User, Workforce
from repro.access.rbac import Permission
from repro.archive import ColdStore
from repro.audit.anchors import AnchorSchedule, AnchorWitness
from repro.audit.events import AuditAction
from repro.audit.log import AuditLog
from repro.core.access import Access
from repro.core.directory import RecordDirectory
from repro.core.engine import Sealer
from repro.core.home import RecordHome
from repro.core.tiering import Tiering
from repro.core.transfer import PatientTransfer
from repro.core.verification import Verification
from repro.crypto.keys import KeyStore
from repro.crypto.rsa import generate_keypair
from repro.crypto.signatures import Signer, TrustStore
from repro.errors import AccessDeniedError
from repro.index.trustworthy import TrustworthyIndex
from repro.migration.manifest import verify_manifest
from repro.policy import PolicyEngine, PolicyEnv
from repro.policy.rules import DEFAULT_RULES
from repro.provenance.chain import CustodyRegistry
from repro.records.ids import version_id
from repro.records.model import ClinicalNote
from repro.records.versioning import VersionChain
from repro.retention.policy import STANDARD_POLICY
from repro.retention.shredder import SecureShredder
from repro.storage.block import MemoryDevice
from repro.storage.media import MediaPool
from repro.util.clock import SimulatedClock
from repro.worm.store import WormStore

CAPACITY = 1 << 20


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(768)


def build_parts(site_id, clock, keypair):
    """One engine's worth of parts, wired by hand."""
    keystore = KeyStore(
        bytes(range(32)), clock=clock, device=MemoryDevice(f"{site_id}-keys", CAPACITY)
    )
    signer = Signer(site_id, keypair=keypair)
    trust = TrustStore()
    trust.add(signer.verifier())
    pool = MediaPool(clock=clock, default_capacity=CAPACITY)
    medium = pool.provision()
    audit = AuditLog(device=MemoryDevice(f"{site_id}-audit", CAPACITY), clock=clock)
    home = RecordHome(
        site_id=site_id,
        retention_policy=STANDARD_POLICY,
        clock=clock,
        sealer=Sealer(keystore),
        signer=signer,
        custody=CustodyRegistry(trust),
        shredder=SecureShredder(keystore),
        index=TrustworthyIndex(
            bytes(32), device=MemoryDevice(f"{site_id}-idx", CAPACITY)
        ),
        directory=RecordDirectory(read_cache_size=4),
        worm=WormStore(device=medium.device, clock=clock),
        medium=medium,
    )
    anchors = AnchorSchedule(
        audit, signer, clock, [AnchorWitness(signer.verifier())], every=4
    )
    tiering = Tiering(
        home=home,
        cold=ColdStore(device=MemoryDevice(f"{site_id}-cold", CAPACITY), clock=clock),
        anchors=anchors,
    )
    workforce = Workforce()
    consent = ConsentRegistry()
    breakglass = BreakGlassController(clock=clock)
    access = Access(
        workforce=workforce,
        breakglass=breakglass,
        policy=PolicyEngine(
            DEFAULT_RULES,
            env=PolicyEnv(consent=consent, breakglass=breakglass, clock=clock),
        ),
        anchors=anchors,
        directory=home.directory,
    )
    transfer = PatientTransfer(
        home=home,
        tiering=tiering,
        keystore=keystore,
        audit=audit,
        anchors=anchors,
        consent=consent,
        breakglass=breakglass,
        workforce=workforce,
    )
    verification = Verification(
        home=home,
        tiering=tiering,
        transfer=transfer,
        access=access,
        audit=audit,
        anchors=anchors,
        clean_sample=1,
    )
    return SimpleNamespace(
        home=home, tiering=tiering, transfer=transfer, keystore=keystore,
        audit=audit, trust=trust, pool=pool, directory=home.directory,
        access=access, verification=verification, workforce=workforce,
    )


def write_record(parts, clock, record_id, patient_id, texts):
    """Store a record (and one correction per extra text) through the
    home alone: write the frame, adopt what it holds."""
    (handle,) = parts.keystore.create_keys([record_id])
    chain = VersionChain(record_id)
    for n, text in enumerate(texts):
        note = ClinicalNote.create(
            record_id=record_id, patient_id=patient_id, created_at=clock.now(),
            author="dr-a", specialty="cardiology", text=text,
        )
        if n == 0:
            version = chain.append_initial(note, "dr-a", clock.now())
        else:
            version = chain.append_correction(note, "dr-a", "amend", clock.now())
        parts.home.write([(version, handle)])
        parts.home.adopt([(chain, handle)])
        clock.advance(1.0)
    return chain, handle


def test_home_write_then_adopt_makes_the_record_served_and_disposable(keypair):
    clock = SimulatedClock(start=1.17e9)
    parts = build_parts("site-a", clock, keypair)
    chain, handle = write_record(parts, clock, "rec-1", "pat-1", ["first", "second"])
    home, directory = parts.home, parts.directory
    assert [home.open("rec-1", n).record.body["text"] for n in range(2)] == [
        "first", "second",
    ]
    assert directory.records_of_patient("pat-1") == ["rec-1"]
    assert directory.owner_of(version_id("rec-1", 1)) == "rec-1"
    assert directory.dirty == {"rec-1"}
    # one frame, one origin signature per write; the correction links to
    # its predecessor by digest
    assert home.worm.device.stats.writes == 2
    assert home.custody.object_ids() == [version_id("rec-1", 0), version_id("rec-1", 1)]
    assert home.custody.verify_all() == {}
    assert home.open("rec-1", 1).previous_digest == home.open("rec-1", 0).digest()
    # the index follows the current text only
    assert home.index.search("second") == ["rec-1"]
    assert home.index.search("first") == []
    # every owned object is disposable with the record's key
    assert home.handles() == {version_id("rec-1", n): handle for n in range(2)}


def test_swap_re_adopts_everything_onto_a_hand_built_worm_store(keypair):
    clock = SimulatedClock(start=1.17e9)
    parts = build_parts("site-a", clock, keypair)
    home, directory = parts.home, parts.directory
    write_record(parts, clock, "rec-1", "pat-1", ["warm"])
    write_record(parts, clock, "rec-2", "pat-2", ["cold"])
    parts.tiering.demote(["rec-2"], actor_id="archivist")
    directory.cache("rec-1", 0, home.open("rec-1", 0).record)
    directory.dirty.clear()
    original = home.worm.retention.term_for(version_id("rec-1", 0))
    # a bare copy of both records' bytes under placeholder terms — what
    # a restore from a pre-demotion snapshot hands back
    medium = parts.pool.provision()
    replacement = WormStore(device=medium.device, clock=clock)
    replacement.put(version_id("rec-1", 0), home.worm.get(version_id("rec-1", 0)))
    replacement.put(version_id("rec-2", 0), b"stale warm copy of a cold record")
    old_workflow = home.disposition
    home.install(replacement, medium)
    assert home.worm is replacement and home.medium is medium
    assert home.disposition is not old_workflow
    # terms rebuilt extend-only from the chains; handles registered
    # with the NEW workflow; the cold record's warm copy re-tombstoned
    assert home.worm.retention.term_for(version_id("rec-1", 0)).expires_at == (
        original.expires_at
    )
    assert set(home.handles()) == {version_id("rec-1", 0)}
    assert version_id("rec-2", 0) not in home.worm
    assert directory.cold == {"rec-2"}
    # everything dirty, nothing cached
    assert directory.dirty == {"rec-1", "rec-2"}
    assert len(directory.read_cache) == 0
    assert home.open("rec-1", 0).record.body["text"] == "warm"
    assert parts.tiering.open_version("rec-2", 0).record.body["text"] == "cold"


def test_tiering_demote_then_recall_round_trips_on_memory_devices(keypair):
    clock = SimulatedClock(start=1.17e9)
    parts = build_parts("site-a", clock, keypair)
    tiering, directory, worm = parts.tiering, parts.directory, parts.home.worm
    write_record(parts, clock, "rec-1", "pat-1", ["one", "two", "three"])
    write_record(parts, clock, "rec-2", "pat-1", ["other"])
    before = [v.to_dict() for v in tiering.stored_versions("rec-1")]
    parts.home.worm.retention.place_hold(version_id("rec-2", 0), "case-7")

    assert tiering.demote(["rec-1", "rec-2", "rec-404"], actor_id="archivist") == [
        "rec-1"
    ]  # held and unknown records are skipped
    assert directory.cold == {"rec-1"}
    assert not any(version_id("rec-1", n) in worm for n in range(3))
    # reading in place does not recall; the member proves against its root
    assert [v.to_dict() for v in tiering.stored_versions("rec-1")] == before
    assert directory.cold == {"rec-1"}

    frames = worm.device.stats.writes
    assert tiering.open_version("rec-1", 2).to_dict() == before[2]  # read-through
    assert worm.device.stats.writes == frames + 1  # ONE frame, three versions
    assert directory.cold == set()
    assert [v.to_dict() for v in tiering.stored_versions("rec-1")] == before
    assert "rec-1" in directory.dirty
    actions = [event.action for event in parts.audit.events()]
    assert actions.count(AuditAction.RECORD_DEMOTED) == 1
    assert actions.count(AuditAction.RECORD_RECALLED) == 1
    assert worm.verify_all() == []
    assert parts.tiering.cold.verify_all() == []


def test_transfer_export_import_between_two_hand_built_part_sets(keypair):
    clock = SimulatedClock(start=1.17e9)
    source = build_parts("site-a", clock, keypair)
    destination = build_parts("site-b", clock, keypair)
    write_record(source, clock, "rec-1", "pat-1", ["first", "second"])
    write_record(source, clock, "rec-2", "pat-1", ["third"])
    write_record(source, clock, "rec-9", "pat-2", ["stays behind"])
    source.audit.append(AuditAction.RECORD_READ, "dr-a", "rec-1", {"version": 1})

    bundle = source.transfer.export_patient_history("pat-1")
    verify_manifest(bundle.manifest, source.trust)
    assert [event["subject_id"] for event in bundle.segment] == ["rec-1"]

    imported = destination.transfer.import_patient_history(bundle)
    # the double read: import's digests, a fresh read-back, the signed
    # manifest and the source's own view all agree
    assert imported == bundle.manifest.entries
    assert destination.transfer.patient_history_digests("pat-1") == imported
    assert source.transfer.patient_history_digests("pat-1") == imported
    assert destination.directory.records_of_patient("pat-1") == ["rec-1", "rec-2"]
    assert destination.home.index.search("second") == ["rec-1"]
    assert destination.transfer.imported_events("pat-1") == list(bundle.segment)
    # versions + the segment archive landed in ONE frame
    assert destination.home.worm.device.stats.writes == 1

    assert source.transfer.retire_patient("pat-1", destination_id="site-b") == (
        "rec-1", "rec-2",
    )
    assert source.directory.patient_ids() == ["pat-2"]
    assert source.directory.owner_of(version_id("rec-1", 0)) is None
    assert version_id("rec-1", 0) not in source.home.worm
    assert source.home.index.search("third") == []


def test_access_audits_a_denial_before_it_raises(keypair):
    clock = SimulatedClock(start=1.17e9)
    parts = build_parts("site-a", clock, keypair)
    write_record(parts, clock, "rec-1", "pat-1", ["first"])
    parts.workforce.register(User.make("dr-b", "Dr. B", [Role.PHYSICIAN]))
    for actor_id in ("dr-b", "stranger"):
        before = len(parts.audit)
        with pytest.raises(AccessDeniedError):
            with parts.access.audited_record(
                AuditAction.RECORD_READ, "rec-1", actor_id, Permission.READ_RECORD
            ):
                pytest.fail("a denied operation ran")
        (event,) = parts.audit.events()[before:]
        assert (event.action, event.actor_id, event.subject_id) == (
            AuditAction.ACCESS_DENIED, actor_id, "rec-1",
        )


def test_access_revoking_break_glass_purges_the_read_cache(keypair):
    clock = SimulatedClock(start=1.17e9)
    parts = build_parts("site-a", clock, keypair)
    write_record(parts, clock, "rec-1", "pat-1", ["first"])
    write_record(parts, clock, "rec-2", "pat-2", ["other patient"])
    parts.workforce.register(User.make("dr-er", "ER", [Role.PHYSICIAN]))
    grant = parts.access.break_glass("dr-er", "pat-1", "unconscious on arrival")
    read = (AuditAction.RECORD_READ, "rec-1", "dr-er", Permission.READ_RECORD)
    with parts.access.audited_record(*read):
        pass
    for record_id in ("rec-1", "rec-2"):
        parts.directory.cache(record_id, 0, parts.home.open(record_id, 0).record)

    parts.access.revoke_break_glass(grant.grant_id)
    assert set(parts.directory.read_cache) == {"rec-2"}  # only pat-1's purged
    with pytest.raises(AccessDeniedError):
        with parts.access.audited_record(*read):
            pytest.fail("a revoked grant still allowed the read")
    actions = [event.action for event in parts.audit.events()]
    # grant, the emergency read, revocation
    assert actions.count(AuditAction.EMERGENCY_ACCESS) == 3


def test_verification_blames_a_rotted_worm_object_on_its_owner(keypair):
    clock = SimulatedClock(start=1.17e9)
    parts = build_parts("site-a", clock, keypair)
    write_record(parts, clock, "rec-1", "pat-1", ["first", "second"])
    write_record(parts, clock, "rec-2", "pat-2", ["untouched"])
    assert parts.verification.verify_integrity().ok
    assert parts.directory.dirty == set()

    worm = parts.home.worm
    offset, size = worm.physical_extent(version_id("rec-1", 1))
    worm.device.raw_write(offset + size // 2, b"\xff\xff")
    report = parts.verification.verify_integrity()
    assert report.violations == ["rec-1"]
    assert parts.directory.dirty == {"rec-1"}


def test_verification_accounting_includes_an_imported_segment(keypair):
    clock = SimulatedClock(start=1.17e9)
    source = build_parts("site-a", clock, keypair)
    destination = build_parts("site-b", clock, keypair)
    write_record(source, clock, "rec-1", "pat-1", ["first"])
    source.audit.append(AuditAction.RECORD_READ, "dr-a", "rec-1", {"version": 0})
    destination.transfer.import_patient_history(
        source.transfer.export_patient_history("pat-1")
    )
    destination.workforce.register(User.make("po", "PO", [Role.PRIVACY_OFFICER]))

    report = destination.verification.accounting_of_disclosures("pat-1", actor_id="po")
    assert [(e.action, e.actor_id, e.subject_id) for e in report] == [
        (AuditAction.RECORD_READ, "dr-a", "rec-1"),
    ]
    # the request itself was decided and audited on the destination: the
    # accounting writes no event of its own, so its one event is the
    # grant, carrying the decision
    last = destination.audit.events()[-1]
    assert (last.action, last.actor_id) == (AuditAction.ACCESS_GRANTED, "po")
    assert last.detail["rule_id"] == "allow:privacy_officer:read_audit_trail"
