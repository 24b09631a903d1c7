"""The deterministic EHR workload generator.

Produces a patient population and streams of records (demographics,
encounters, observations, clinical notes, exposure records) with:

* zipf-skewed patient activity (a few patients generate most records,
  as in real hospitals);
* condition assignment per patient, so a patient's notes consistently
  mention their conditions (which gives the index workload realistic
  term co-occurrence);
* embedded PHI in note text at a configurable rate (phone numbers,
  dates), exercising the de-identification scrubber;
* correction requests against previously-emitted records.

All randomness flows from a single :class:`DeterministicRng`, so a
seeded generator is fully reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import WorkloadError
from repro.records.model import (
    ClinicalNote,
    Encounter,
    HealthRecord,
    Observation,
    Patient,
    RecordType,
)
from repro.util.clock import Clock
from repro.util.identifiers import IdGenerator
from repro.util.rng import DeterministicRng
from repro.workload import vocab


@dataclass(frozen=True)
class GeneratedRecord:
    """A record plus the workload metadata experiments need."""

    record: HealthRecord
    author_id: str
    conditions: tuple[str, ...]  # condition names mentioned, for index checks


@dataclass(frozen=True)
class PatientProfile:
    """The generator's internal model of one patient."""

    patient_id: str
    name: str
    birth_date: str
    address: str
    phone: str
    ssn: str
    conditions: tuple[tuple[str, str, tuple[str, ...]], ...]


class WorkloadGenerator:
    """Seeded generator of patients and record streams."""

    def __init__(self, seed: int | str, clock: Clock) -> None:
        self._rng = DeterministicRng(seed)
        self._ids = IdGenerator(seed=str(seed))
        self._clock = clock
        self._patients: list[PatientProfile] = []
        self._providers = [f"dr-{i:02d}" for i in range(8)]
        self._emitted: list[GeneratedRecord] = []

    # -- population --------------------------------------------------------

    def _make_patient(self) -> PatientProfile:
        rng = self._rng
        first = rng.choice(vocab.FIRST_NAMES)
        last = rng.choice(vocab.LAST_NAMES)
        year = rng.randint(1930, 2000)
        birth_date = f"{year:04d}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
        address = (
            f"{rng.randint(1, 999)} {rng.choice(vocab.STREETS)}, "
            f"{rng.choice(vocab.CITIES)}"
        )
        phone = f"555-{rng.randint(100, 999)}-{rng.randint(1000, 9999)}"
        ssn = f"{rng.randint(100, 899)}-{rng.randint(10, 99)}-{rng.randint(1000, 9999)}"
        n_conditions = rng.randint(1, 3)
        conditions = tuple(rng.sample(vocab.CONDITIONS, n_conditions))
        return PatientProfile(
            patient_id=self._ids.next("pat"),
            name=f"{first} {last}",
            birth_date=birth_date,
            address=address,
            phone=phone,
            ssn=ssn,
            conditions=conditions,
        )

    def create_population(self, n_patients: int) -> list[PatientProfile]:
        """Create patients (additive across calls)."""
        if n_patients <= 0:
            raise WorkloadError("population size must be positive")
        created = [self._make_patient() for _ in range(n_patients)]
        self._patients.extend(created)
        return created

    @property
    def patients(self) -> list[PatientProfile]:
        return list(self._patients)

    def _pick_patient(self) -> PatientProfile:
        if not self._patients:
            raise WorkloadError("create_population must be called first")
        return self._patients[self._rng.zipf_index(len(self._patients))]

    def _pick_provider(self) -> str:
        return self._rng.choice(self._providers)

    # -- record streams ---------------------------------------------------------

    def demographics_record(self, patient: PatientProfile) -> GeneratedRecord:
        record = Patient.create(
            record_id=self._ids.next("rec"),
            patient_id=patient.patient_id,
            created_at=self._clock.now(),
            name=patient.name,
            birth_date=patient.birth_date,
            address=patient.address,
            phone=patient.phone,
            ssn=patient.ssn,
        )
        return self._emit(record, "registrar", ())

    def encounter_record(self, patient: PatientProfile | None = None) -> GeneratedRecord:
        patient = patient or self._pick_patient()
        condition = self._rng.choice(patient.conditions)
        record = Encounter.create(
            record_id=self._ids.next("rec"),
            patient_id=patient.patient_id,
            created_at=self._clock.now(),
            encounter_type=self._rng.choice(vocab.ENCOUNTER_TYPES),
            provider=self._pick_provider(),
            department=self._rng.choice(vocab.DEPARTMENTS),
            reason=condition[1],
        )
        return self._emit(record, record.body["provider"], (condition[1],))

    def observation_record(self, patient: PatientProfile | None = None) -> GeneratedRecord:
        patient = patient or self._pick_patient()
        code, display, unit, low, high = self._rng.choice(vocab.OBSERVATION_CODES)
        value = round(self._rng.uniform(low, high), 1)
        record = Observation.create(
            record_id=self._ids.next("rec"),
            patient_id=patient.patient_id,
            created_at=self._clock.now(),
            code=code,
            display=display,
            value=value,
            unit=unit,
            abnormal=self._rng.bernoulli(0.2),
        )
        return self._emit(record, self._pick_provider(), ())

    def note_record(
        self,
        patient: PatientProfile | None = None,
        phi_in_text_probability: float = 0.1,
    ) -> GeneratedRecord:
        patient = patient or self._pick_patient()
        condition = self._rng.choice(patient.conditions)
        fragments = list(condition[2])
        sentences = [f"assessment consistent with {condition[1]}."]
        sentences += [f"{frag}." for frag in self._rng.sample(fragments, min(2, len(fragments)))]
        if self._rng.bernoulli(phi_in_text_probability):
            sentences.append(f"contacted family at {patient.phone}.")
        author = self._pick_provider()
        record = ClinicalNote.create(
            record_id=self._ids.next("rec"),
            patient_id=patient.patient_id,
            created_at=self._clock.now(),
            author=author,
            specialty=self._rng.choice(vocab.DEPARTMENTS),
            text=" ".join(sentences),
        )
        return self._emit(record, author, (condition[1],))

    def exposure_record(self, patient: PatientProfile | None = None) -> GeneratedRecord:
        patient = patient or self._pick_patient()
        agent = self._rng.choice(vocab.EXPOSURE_AGENTS)
        record = HealthRecord(
            record_id=self._ids.next("rec"),
            record_type=RecordType.EXPOSURE_RECORD,
            patient_id=patient.patient_id,
            created_at=self._clock.now(),
            body={
                "agent": agent,
                "exposure_level": round(self._rng.uniform(0.1, 10.0), 2),
                "unit": "mg/m3",
                "workplace": f"{self._rng.choice(vocab.CITIES)} plant",
            },
        )
        return self._emit(record, "occupational-health", (agent,))

    def claim_record(self, patient: PatientProfile | None = None) -> GeneratedRecord:
        patient = patient or self._pick_patient()
        record = HealthRecord(
            record_id=self._ids.next("rec"),
            record_type=RecordType.INSURANCE_CLAIM,
            patient_id=patient.patient_id,
            created_at=self._clock.now(),
            body={
                "claim_number": f"CLM-{self._rng.randint(100000, 999999)}",
                "amount": round(self._rng.uniform(50.0, 25_000.0), 2),
                "payer": self._rng.choice(["medicare", "medicaid", "private"]),
                "status": self._rng.choice(["submitted", "paid", "denied"]),
            },
        )
        return self._emit(record, "billing-system", ())

    def mixed_stream(self, count: int) -> list[GeneratedRecord]:
        """A realistic mix: 15% encounters, 40% observations, 30% notes,
        5% exposure records, 10% insurance claims."""
        if count < 0:
            raise WorkloadError("count must be non-negative")
        emitted = []
        for _ in range(count):
            kind = self._rng.weighted_choice(
                ["encounter", "observation", "note", "exposure", "claim"],
                [0.15, 0.40, 0.30, 0.05, 0.10],
            )
            if kind == "encounter":
                emitted.append(self.encounter_record())
            elif kind == "observation":
                emitted.append(self.observation_record())
            elif kind == "note":
                emitted.append(self.note_record())
            elif kind == "claim":
                emitted.append(self.claim_record())
            else:
                emitted.append(self.exposure_record())
        return emitted

    # -- corrections ----------------------------------------------------------------

    def correction_for(self, generated: GeneratedRecord) -> tuple[HealthRecord, str]:
        """Produce a corrected copy of an emitted record plus the reason.

        Observations get a corrected value; notes get an addendum; other
        types get a corrected-field tweak.
        """
        record = generated.record
        body = dict(record.body)
        if record.record_type is RecordType.OBSERVATION:
            body["value"] = round(body["value"] * self._rng.uniform(0.9, 1.1), 1)
            reason = "value transcription error"
        elif record.record_type is RecordType.CLINICAL_NOTE:
            body["text"] = body["text"] + " addendum: prior entry amended per patient request."
            reason = "patient-requested amendment"
        else:
            body["corrected"] = True
            reason = "administrative correction"
        corrected = HealthRecord(
            record_id=record.record_id,
            record_type=record.record_type,
            patient_id=record.patient_id,
            created_at=self._clock.now(),
            body=body,
        )
        return corrected, reason

    # -- bookkeeping -------------------------------------------------------------------

    def _emit(
        self, record: HealthRecord, author_id: str, conditions: tuple[str, ...]
    ) -> GeneratedRecord:
        generated = GeneratedRecord(record=record, author_id=author_id, conditions=conditions)
        self._emitted.append(generated)
        return generated

    @property
    def emitted(self) -> list[GeneratedRecord]:
        return list(self._emitted)

    def sample_emitted(self, count: int) -> list[GeneratedRecord]:
        """Random sample of already-emitted records (for corrections/reads)."""
        if not self._emitted:
            raise WorkloadError("no records emitted yet")
        return self._rng.sample(self._emitted, min(count, len(self._emitted)))
