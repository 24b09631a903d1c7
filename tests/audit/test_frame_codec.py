"""The audit frame codec: every event round-trips, the leaf does not
depend on where the decision text rode, damage is only ever an
:class:`AuditError`, and the persisted action codes never move."""

import hashlib

from hypothesis import given, settings, strategies as st

from repro.audit.events import (
    ACTION_CODES,
    DECISION_KEYS,
    AuditAction,
    AuditEvent,
    decode_frame,
    encode_leaf,
)
from repro.errors import AuditError

CHAIN = bytes(range(32))  # any 32 bytes: the codec does not judge the chain

ids = st.text(min_size=1, max_size=24)
keys = st.text(max_size=12).filter(lambda key: key not in (*DECISION_KEYS, "__bytes__"))
scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=16)
    | st.binary(max_size=16)
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(keys, inner, max_size=4),
    max_leaves=12,
)
traces = st.lists(
    st.fixed_dictionaries(
        {"rule": ids, "effect": st.sampled_from(["allow", "deny"]), "matched": st.booleans(),
         "detail": st.text(max_size=24)}
    ),
    max_size=4,
)
decisions = st.none() | st.fixed_dictionaries(
    {"trace": traces}, optional={"rule": st.text(max_size=40), "rule_id": ids}
)


@st.composite
def events(draw) -> AuditEvent:
    detail = draw(st.dictionaries(keys, values, max_size=5))
    decision = draw(decisions)
    return AuditEvent(
        sequence=draw(st.integers(min_value=0, max_value=2**64 - 1)),
        timestamp=draw(st.floats(allow_nan=False, allow_infinity=False)),
        action=draw(st.sampled_from(AuditAction)),
        actor_id=draw(ids),
        subject_id=draw(ids),
        detail={**detail, **(decision or {})},
    )


def frames(event: AuditEvent) -> tuple[bytes, bytes, dict]:
    """The frame that carries the decision text, the frame that only
    references it, and the table the second one needs."""
    leaf, digest, text = encode_leaf(event)
    defined = {digest: (0, {key: event.detail[key] for key in DECISION_KEYS
                            if key in event.detail})} if digest else {}
    return leaf + text + CHAIN, leaf + CHAIN, defined


@settings(max_examples=200, deadline=None)
@given(events())
def test_every_event_round_trips_inline_or_by_reference(event):
    inline, referencing, defined = frames(event)
    decoded, leaf, chain = decode_frame(inline, table := {})
    assert decoded == event and chain == CHAIN
    assert decoded.to_dict() == event.to_dict()
    again, leaf_again, _ = decode_frame(referencing, defined)
    assert again == event
    # the leaf is the same bytes whether or not the text rode inline,
    # and it is what the encoder computes from the event alone
    assert leaf == leaf_again == encode_leaf(decoded)[0]
    digest = encode_leaf(event)[1]
    assert list(table) == ([digest] if digest else [])
    if digest:
        assert hashlib.sha256(inline[len(leaf) : -len(CHAIN)]).digest() == digest


@settings(max_examples=100, deadline=None)
@given(events(), st.data())
def test_a_truncated_frame_is_an_audit_error(event, data):
    inline, referencing, defined = frames(event)
    for frame, table in ((inline, {}), (referencing, defined)):
        cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        try:
            decode_frame(frame[:cut], dict(table))
        except AuditError:
            continue
        raise AssertionError(f"a frame cut to {cut} of {len(frame)} bytes decoded")


@settings(max_examples=200, deadline=None)
@given(events(), st.data())
def test_a_garbled_frame_decodes_or_is_an_audit_error(event, data):
    inline, referencing, defined = frames(event)
    for frame, table in ((inline, {}), (referencing, defined)):
        at = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        flip = data.draw(st.integers(min_value=1, max_value=255))
        garbled = frame[:at] + bytes([frame[at] ^ flip]) + frame[at + 1 :]
        try:
            decode_frame(garbled, dict(table))
        except AuditError:
            pass


def test_decision_text_must_match_its_digest_and_ride_only_once():
    event = AuditEvent(
        3, 1.0, AuditAction.ACCESS_GRANTED, "dr-a", "rec-1",
        {"permission": "read_record", "rule_id": "allow:x", "trace": [{"rule": "allow:x"}]},
    )
    inline, referencing, defined = frames(event)
    leaf = referencing[: -len(CHAIN)]
    edited = inline.replace(b"allow:x", b"allow:y")
    for frame, table, problem in (
        (edited, {}, "not matching its digest"),
        (inline, dict(defined), "repeated"),  # a second copy of a defined text
        (referencing, {}, "used before its text"),
        (leaf + b"x" + CHAIN, dict(defined), "repeated"),
    ):
        try:
            decode_frame(frame, table)
        except AuditError as exc:
            assert problem in str(exc)
        else:
            raise AssertionError(f"{problem!r} frame decoded")


def test_the_action_code_table_is_pinned():
    """Frames store ``ACTION_CODES.index(action)``: reordering or
    inserting a member of :class:`AuditAction` would silently re-map
    every persisted frame.  New actions go at the end of this list."""
    assert [action.value for action in ACTION_CODES] == [
        "record_created", "record_read", "record_corrected", "record_searched",
        "record_disposed", "record_exported", "record_demoted", "record_recalled",
        "access_granted", "access_denied", "emergency_access", "consent_changed",
        "media_provisioned", "media_retired", "media_sanitized", "media_disposed",
        "media_moved", "migration_started", "migration_completed", "migration_failed",
        "backup_created", "backup_restored", "custody_transferred",
        "retention_hold_placed", "retention_hold_released", "retention_expired",
        "key_shredded", "anchor_published", "integrity_alert", "api_request",
        "api_rejected", "service_lifecycle",
    ]
