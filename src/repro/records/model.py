"""Health record entities.

Immutable dataclasses with a common :class:`HealthRecord` envelope.
The envelope is what the storage engine sees: a record id, a type, a
patient id, a timestamp, and a ``body`` dict of typed fields.  The
entity classes (:class:`Patient`, :class:`Encounter`,
:class:`Observation`, :class:`ClinicalNote`) are constructors/views
over that envelope, so the whole stack below (encryption, hashing,
indexing) only ever handles one shape.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ValidationError
from repro.records.ids import check_id
from repro.util.validation import require, require_non_empty, require_type


#: The deepest container nesting a body may have (the body is level 1).
#: A read decodes the stored body recursively, two interpreter frames
#: per level on CPython 3.11, so under the default 1,000-frame recursion
#: limit a deep body stores but never reads back: over the wire, a body
#: 490 dicts deep round-trips store -> read -> verify_integrity and one
#: 492 deep does not, and verification then reports a false tamper.  64
#: keeps every read far from that edge; generated bodies are one level.
MAX_BODY_DEPTH = 64


def _check_depth(value: Any, depth: int = 1) -> None:
    if depth > MAX_BODY_DEPTH:
        raise ValidationError(f"record body nests deeper than {MAX_BODY_DEPTH} levels")
    children = value.values() if isinstance(value, dict) else value
    for child in children:
        if isinstance(child, (dict, list, tuple)):
            _check_depth(child, depth + 1)


class RecordType(enum.Enum):
    """The record classes the retention schedules distinguish."""

    PATIENT_DEMOGRAPHICS = "patient_demographics"
    ENCOUNTER = "encounter"
    OBSERVATION = "observation"
    CLINICAL_NOTE = "clinical_note"
    EXPOSURE_RECORD = "exposure_record"  # OSHA 29 CFR 1910.1020 territory
    INSURANCE_CLAIM = "insurance_claim"


@dataclass(frozen=True)
class HealthRecord:
    """The storage envelope for any health record.

    ``body`` must be canonically encodable (see
    :mod:`repro.util.encoding`); the constructor validates this early so
    a malformed record can never reach the hashed/immutable layers.
    """

    record_id: str
    record_type: RecordType
    patient_id: str
    created_at: float
    body: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        require_non_empty(self.record_id, "record_id")
        check_id(self.record_id, "record_id")
        require_type(self.record_type, RecordType, "record_type")
        require_non_empty(self.patient_id, "patient_id")
        require(self.created_at >= 0, "created_at must be non-negative")
        require_type(self.body, dict, "body")
        # Fail fast on bodies too deep to read back, or non-canonical.
        _check_depth(self.body)
        from repro.util.encoding import canonical_bytes

        canonical_bytes(self.body)

    def to_dict(self) -> dict[str, Any]:
        """Canonical dict form (what gets hashed/encrypted/stored)."""
        return {
            "record_id": self.record_id,
            "record_type": self.record_type.value,
            "patient_id": self.patient_id,
            "created_at": self.created_at,
            "body": self.body,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "HealthRecord":
        try:
            record_type = RecordType(data["record_type"])
            record_id, patient_id = data["record_id"], data["patient_id"]
            created_at, body = data["created_at"], data["body"]
        except KeyError as exc:
            name, reason = exc.args[0], "is missing"
        except ValueError:  # only RecordType raises it
            name, reason = "record_type", "is not a known record type"
        else:
            return cls(record_id, record_type, patient_id, created_at, body)
        # Name the field and the reason, never the value: it may be PHI.
        raise ValidationError(f"malformed record dict: {name} {reason}", name)

    def searchable_text(self) -> str:
        """The free text the keyword index covers."""
        pieces: list[str] = []

        def collect(value: Any) -> None:
            if isinstance(value, str):
                pieces.append(value)
            elif isinstance(value, dict):
                for item in value.values():
                    collect(item)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    collect(item)

        collect(self.body)
        return " ".join(pieces)


class Patient:
    """Constructor for patient-demographics records."""

    @staticmethod
    def create(
        record_id: str,
        patient_id: str,
        created_at: float,
        name: str,
        birth_date: str,
        address: str,
        phone: str = "",
        ssn: str = "",
        email: str = "",
    ) -> HealthRecord:
        require_non_empty(name, "name")
        require_non_empty(birth_date, "birth_date")
        return HealthRecord(
            record_id,
            RecordType.PATIENT_DEMOGRAPHICS,
            patient_id,
            created_at,
            {
                "name": name,
                "birth_date": birth_date,
                "address": address,
                "phone": phone,
                "ssn": ssn,
                "email": email,
            },
        )


class Encounter:
    """Constructor for encounter (admission/visit) records."""

    @staticmethod
    def create(
        record_id: str,
        patient_id: str,
        created_at: float,
        encounter_type: str,
        provider: str,
        department: str,
        reason: str,
        disposition: str = "",
    ) -> HealthRecord:
        require_non_empty(encounter_type, "encounter_type")
        require_non_empty(provider, "provider")
        return HealthRecord(
            record_id,
            RecordType.ENCOUNTER,
            patient_id,
            created_at,
            {
                "encounter_type": encounter_type,
                "provider": provider,
                "department": department,
                "reason": reason,
                "disposition": disposition,
            },
        )


class Observation:
    """Constructor for observation (lab/vital) records."""

    @staticmethod
    def create(
        record_id: str,
        patient_id: str,
        created_at: float,
        code: str,
        display: str,
        value: float,
        unit: str,
        reference_range: str = "",
        abnormal: bool = False,
    ) -> HealthRecord:
        require_non_empty(code, "code")
        require_type(value, (int, float), "value")
        return HealthRecord(
            record_id,
            RecordType.OBSERVATION,
            patient_id,
            created_at,
            {
                "code": code,
                "display": display,
                "value": float(value),
                "unit": unit,
                "reference_range": reference_range,
                "abnormal": abnormal,
            },
        )


class ClinicalNote:
    """Constructor for free-text clinical notes (the index workload)."""

    @staticmethod
    def create(
        record_id: str,
        patient_id: str,
        created_at: float,
        author: str,
        specialty: str,
        text: str,
    ) -> HealthRecord:
        require_non_empty(author, "author")
        require_non_empty(text, "text")
        return HealthRecord(
            record_id,
            RecordType.CLINICAL_NOTE,
            patient_id,
            created_at,
            {"author": author, "specialty": specialty, "text": text},
        )
