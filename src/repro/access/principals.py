"""Principals: workforce users and their roles.

Roles follow the functional split HIPAA's minimum-necessary standard
implies: clinical roles see clinical data for treatment; billing sees
financial fields; researchers see de-identified exports; the privacy
officer reads audit trails; media technicians handle hardware but never
record contents.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.util.validation import require_non_empty


class Role(enum.Enum):
    """HIPAA workforce roles."""

    PHYSICIAN = "physician"
    NURSE = "nurse"
    BILLING = "billing"
    RESEARCHER = "researcher"
    PRIVACY_OFFICER = "privacy_officer"
    MEDIA_TECHNICIAN = "media_technician"
    SYSTEM_ADMIN = "system_admin"
    PATIENT = "patient"


@dataclass(frozen=True)
class User:
    """An authenticated workforce member (or patient portal user)."""

    user_id: str
    name: str
    roles: frozenset[Role]
    department: str = ""
    # Patients this user is actively treating (drives the
    # treating-relationship rule for clinical access).
    treating: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        require_non_empty(self.user_id, "user_id")
        require_non_empty(self.name, "name")
        if not self.roles:
            raise ValueError("a user must hold at least one role")

    def has_role(self, role: Role) -> bool:
        return role in self.roles

    def is_treating(self, patient_id: str) -> bool:
        return patient_id in self.treating

    @staticmethod
    def make(
        user_id: str,
        name: str,
        roles: list[Role] | set[Role],
        department: str = "",
        treating: list[str] | set[str] = (),
    ) -> "User":
        """Convenience constructor taking plain collections."""
        return User(
            user_id=user_id,
            name=name,
            roles=frozenset(roles),
            department=department,
            treating=frozenset(treating),
        )


SYSTEM_USER = User.make("system", "Curator System", [Role.SYSTEM_ADMIN])
"""The implicit principal for internally-initiated operations."""


class Workforce:
    """The principals enrolled with one engine."""

    def __init__(self) -> None:
        self._users: dict[str, User] = {}

    def register(self, user: User) -> None:
        """Enroll a workforce member."""
        self._users[user.user_id] = user

    def resolve(self, actor_id: str) -> User | None:
        """The principal behind *actor_id* (``None`` if unknown)."""
        if actor_id == "system":
            return SYSTEM_USER
        return self._users.get(actor_id)

    def note_author(self, author_id: str, patient_id: str) -> None:
        """Documenting care establishes the treating relationship: the
        application layer enrolls the author as a clinician treating the
        record's patient."""
        existing = self._users.get(author_id)
        if existing is None:
            self._users[author_id] = User.make(
                author_id, author_id, [Role.PHYSICIAN], treating=[patient_id]
            )
        elif patient_id not in existing.treating:
            self._users[author_id] = User.make(
                author_id,
                existing.name,
                set(existing.roles),
                existing.department,
                set(existing.treating) | {patient_id},
            )
