"""Consent directives and the minimum-necessary standard.

Two Privacy-Rule mechanisms role capabilities alone cannot express:

* **Consent** — a patient may restrict disclosure of their records to
  specific roles or purposes (e.g. "no researcher access, ever" or
  "do not disclose to billing without asking").  The
  :class:`ConsentRegistry` stores directives per patient and answers
  whether a given (role, purpose) disclosure is permitted.  Treatment
  and emergency use are non-restrictable, matching the rule that
  consent cannot block care.
* **Minimum necessary** — even an authorized reader should see only the
  fields their function needs.  :func:`minimum_necessary_view` projects
  a record body down to the field set allowed for a role.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.access.principals import Role
from repro.access.rbac import Purpose
from repro.errors import ConsentError
from repro.records.model import HealthRecord, RecordType

_NON_RESTRICTABLE = frozenset({Purpose.TREATMENT, Purpose.EMERGENCY})


@dataclass(frozen=True)
class ConsentDirective:
    """One restriction: block a role and/or a purpose."""

    directive_id: str
    blocked_roles: frozenset[Role] = field(default_factory=frozenset)
    blocked_purposes: frozenset[Purpose] = field(default_factory=frozenset)

    def blocks(self, role: Role, purpose: Purpose) -> bool:
        if purpose in _NON_RESTRICTABLE:
            return False
        return role in self.blocked_roles or purpose in self.blocked_purposes


class ConsentRegistry:
    """Per-patient consent directives."""

    def __init__(self) -> None:
        self._directives: dict[str, list[ConsentDirective]] = {}

    def add_directive(self, patient_id: str, directive: ConsentDirective) -> None:
        self._directives.setdefault(patient_id, []).append(directive)

    def revoke_directive(self, patient_id: str, directive_id: str) -> None:
        directives = self._directives.get(patient_id, [])
        remaining = [d for d in directives if d.directive_id != directive_id]
        if len(remaining) == len(directives):
            raise ConsentError(
                f"patient {patient_id} has no directive {directive_id!r}"
            )
        self._directives[patient_id] = remaining

    def release(self, patient_id: str) -> None:
        """Forget *patient_id*'s directives: custody moved away and the
        new home adopted them, so a copy kept here could only resurrect
        a directive revoked there if the patient ever returns."""
        self._directives.pop(patient_id, None)

    def directives_for(self, patient_id: str) -> list[ConsentDirective]:
        return list(self._directives.get(patient_id, []))

    def check_disclosure(
        self, patient_id: str, role: Role, purpose: Purpose
    ) -> None:
        """Raise :class:`ConsentError` if any directive blocks the
        disclosure.  Treatment/emergency purposes always pass."""
        for directive in self._directives.get(patient_id, []):
            if directive.blocks(role, purpose):
                raise ConsentError(
                    f"patient {patient_id} directive {directive.directive_id!r} "
                    f"blocks disclosure to role {role.value} "
                    f"for purpose {purpose.value}"
                )

    def is_permitted(self, patient_id: str, role: Role, purpose: Purpose) -> bool:
        try:
            self.check_disclosure(patient_id, role, purpose)
        except ConsentError:
            return False
        return True


# Minimum-necessary field projections: role -> record type -> visible fields.
# A missing entry means the role sees the full body (clinical roles) or
# nothing beyond the envelope (everyone else).
_FIELD_VIEWS: dict[Role, dict[RecordType, frozenset[str]]] = {
    Role.BILLING: {
        RecordType.PATIENT_DEMOGRAPHICS: frozenset({"name", "address"}),
        RecordType.ENCOUNTER: frozenset({"encounter_type", "department", "disposition"}),
        RecordType.OBSERVATION: frozenset({"code"}),
        RecordType.CLINICAL_NOTE: frozenset(),  # billing never reads the narrative
        RecordType.INSURANCE_CLAIM: frozenset(
            {"claim_number", "amount", "payer", "status"}
        ),
        RecordType.EXPOSURE_RECORD: frozenset(),
    },
    Role.MEDIA_TECHNICIAN: {record_type: frozenset() for record_type in RecordType},
    Role.SYSTEM_ADMIN: {record_type: frozenset() for record_type in RecordType},
}

_FULL_VIEW_ROLES = frozenset(
    {Role.PHYSICIAN, Role.NURSE, Role.PRIVACY_OFFICER, Role.PATIENT}
)


def minimum_necessary_view(record: HealthRecord, role: Role) -> dict[str, Any]:
    """Project a record body to the fields the role's function needs.

    Clinical roles, the privacy officer, and the patient see the full
    body; restricted roles get their per-record-type projection;
    unlisted roles get the empty body.
    """
    if role in _FULL_VIEW_ROLES:
        return dict(record.body)
    views = _FIELD_VIEWS.get(role)
    if views is None:
        return {}
    visible = views.get(record.record_type, frozenset())
    return {name: value for name, value in record.body.items() if name in visible}
