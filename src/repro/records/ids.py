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
:mod:`repro.records.attachments` — the WORM objects).  One more shape
never reaches a WORM store: ``~cold/<cold segment>/<record>`` names a
record's sealed cold-tier member inside a backup snapshot
(:func:`cold_member_id` / :func:`cold_member`).

The shapes only parse back unambiguously because the tokens that join
them are **reserved**: a record id or attachment id that contains
``@v`` or ``#att/``, or starts with ``~segment/`` or ``~cold/``, is
refused with :class:`~repro.errors.ValidationError` where ids enter the
system (:class:`~repro.records.model.HealthRecord` construction and
``CuratorStore.attach``).  So is one that starts like a policy resource
that is not a record (:data:`SEARCH`, :data:`DISCLOSURES`,
:data:`SESSION` — minted by the engine and the session broker), or the
policy engine would class a record as one of those.  Live ownership is never read back out of a
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
_COLD = "~cold/"

#: Audit subjects / policy resources that are not records, by the prefix
#: they are minted with: a search's trapdoor commitment, a patient's
#: disclosure accounting, a login session.
SEARCH, DISCLOSURES, SESSION = "search:", "disclosures:", "sess-"
_POLICY_CLASSES = {SEARCH: "search", DISCLOSURES: "disclosures", SESSION: "session"}
_RESERVED_PREFIXES = (_SEGMENT, _COLD, *_POLICY_CLASSES)


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
    token (it would parse back as some other record's object, or be
    classed as a policy resource that is not a record).  The error names
    the field and the reason, never the value: an id typed into the wrong
    field may be PHI."""
    if _VERSION in value or _ATTACHMENT in value or value.startswith(_RESERVED_PREFIXES):
        raise ValidationError(
            f"{what} contains a reserved token ({_VERSION!r}, "
            f"{_ATTACHMENT!r} or a leading {', '.join(map(repr, _RESERVED_PREFIXES))})",
            what,
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


def cold_member_id(cold_segment: str, record_id: str) -> str:
    """The snapshot object id of a record's sealed cold member (cold
    segment ids never contain a slash)."""
    return f"{_COLD}{cold_segment}/{record_id}"


def cold_member(object_id: str) -> tuple[str, str] | None:
    """``(cold segment, record id)`` when *object_id* names a snapshot's
    cold member, else ``None``."""
    if not object_id.startswith(_COLD):
        return None
    cold_segment, _, record_id = object_id[len(_COLD):].partition("/")
    return cold_segment, record_id


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


def policy_class(resource: str) -> str:
    """The policy resource class of a non-empty resource id.  The
    grammar is asked first: an attachment subject is an attachment
    whatever its record is called."""
    if _ATTACHMENT in resource:
        return "attachment"
    for prefix, name in _POLICY_CLASSES.items():
        if resource.startswith(prefix):
            return name
    return "record"
