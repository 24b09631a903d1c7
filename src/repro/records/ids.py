"""The object-id grammar: the one place ids are built, parsed or refused.

Every WORM object and every attachment audit subject is named by a
string derived from the record (or patient) that owns it:

=============================  ==========  ================  ========
shape                          kind        owner             has key?
=============================  ==========  ================  ========
``<record>@v<N>``              VERSION     the record        yes
``<record>#att/<relative>``    ATTACHMENT  the record        yes
``~segment/<patient>/<stamp>`` SEGMENT     the patient named no
``~segment/<patient>/delta/…`` SEGMENT     in the archive    no
=============================  ==========  ================  ========

``<relative>`` is either an attachment id (the audit subject of an
attach or attachment read) or one of its chunk ids
(``<attachment>/chunk-NNNNNN``, built in
:mod:`repro.records.attachments` — the WORM objects).

The shapes only parse back unambiguously because the tokens that join
them are **reserved**: a record id or attachment id that contains
``@v`` or ``#att/``, or starts with ``~segment/``, is refused with
:class:`~repro.errors.ValidationError` where ids enter the system
(:class:`~repro.records.model.HealthRecord` construction and
``CuratorStore.attach``).  Live ownership is never read back out of a
string — the record directory knows which record owns which object —
so :func:`parse` serves only recovery, which has nothing but the
strings on a device to go on.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.errors import ValidationError

_VERSION = "@v"
_ATTACHMENT = "#att/"
_SEGMENT = "~segment/"


class Kind(enum.Enum):
    VERSION = "version"
    ATTACHMENT = "attachment"
    SEGMENT = "segment"


class ObjectId(NamedTuple):
    """A parsed id.  ``tail`` is the version number, the
    attachment-relative id, or (segments, whose owning patient is named
    inside the archive, not trusted from the id) the rest of the id."""

    kind: Kind
    owner: str
    tail: int | str


def check_id(value: str, what: str) -> None:
    """Refuse an incoming record or attachment id that bears a reserved
    token (it would parse back as some other record's object)."""
    if _VERSION in value or _ATTACHMENT in value or value.startswith(_SEGMENT):
        raise ValidationError(
            f"{what} {value!r} contains a reserved token "
            f"({_VERSION!r}, {_ATTACHMENT!r} or a leading {_SEGMENT!r})"
        )


def version_id(record_id: str, version: int) -> str:
    """The WORM object id of one record version."""
    return f"{record_id}{_VERSION}{version}"


def attachment_object_id(record_id: str, relative_id: str) -> str:
    """The id of a record's attachment (audit subject) or of one of its
    chunks (WORM object), from the attachment-relative id."""
    return f"{record_id}{_ATTACHMENT}{relative_id}"


def segment_id(patient_id: str, stamp: float, *, delta: bool = False) -> str:
    """The WORM object id of an imported audit-segment archive (or of a
    cutover-tail delta appended to it)."""
    middle = "/delta/" if delta else "/"
    return f"{_SEGMENT}{patient_id}{middle}{stamp:.6f}"


def parse(object_id: str) -> ObjectId:
    """Classify a WORM object id and name its owner; raises
    :class:`ValidationError` for a string no builder here produces."""
    if object_id.startswith(_SEGMENT):
        return ObjectId(Kind.SEGMENT, "", object_id[len(_SEGMENT):])
    owner, found, tail = object_id.partition(_ATTACHMENT)
    if found:
        return ObjectId(Kind.ATTACHMENT, owner, tail)
    owner, found, tail = object_id.rpartition(_VERSION)
    if not found or not (tail.isascii() and tail.isdigit()):
        raise ValidationError(f"{object_id!r} is not an object id")
    return ObjectId(Kind.VERSION, owner, int(tail))


def subject_record(subject_id: str) -> str:
    """The record an audit subject is about: the owner of an attachment
    subject, otherwise the subject itself."""
    return subject_id.partition(_ATTACHMENT)[0]


def is_attachment(resource: str) -> bool:
    """Whether a policy resource id names an attachment."""
    return _ATTACHMENT in resource
