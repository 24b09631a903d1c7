"""Canonical, deterministic serialization.

Everything that gets hashed, MACed, or signed in the library goes
through :func:`canonical_bytes`.  The encoding must be *canonical*:
two structurally equal values always produce identical bytes, on any
platform, in any process.  We use JSON with sorted keys, no whitespace,
explicit UTF-8, and a restricted type universe (None, bool, int, float,
str, bytes, list/tuple, dict with str keys).

Bytes values are JSON-unrepresentable, so they are wrapped as
``{"__bytes__": "<hex>"}`` on encode and unwrapped on decode.  Floats
are encoded with :func:`repr` semantics via the default JSON float
formatting, which round-trips exactly in CPython.
"""

from __future__ import annotations

import json
import math
from collections import OrderedDict
from typing import Any, Callable

from repro.errors import ValidationError
from repro.util.metrics import METRICS

_BYTES_KEY = "__bytes__"


def _encode_value(value: Any) -> Any:
    """Recursively convert *value* into a JSON-safe canonical structure."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise ValidationError("NaN/Inf floats are not canonically encodable")
        return value
    if isinstance(value, (bytes, bytearray, memoryview)):
        return {_BYTES_KEY: bytes(value).hex()}
    if isinstance(value, (list, tuple)):
        return [_encode_value(item) for item in value]
    if isinstance(value, dict):
        encoded = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise ValidationError(
                    f"canonical dict keys must be str, got {type(key).__name__}"
                )
            if key == _BYTES_KEY:
                raise ValidationError(f"dict key {_BYTES_KEY!r} is reserved")
            encoded[key] = _encode_value(item)
        return encoded
    raise ValidationError(
        f"type {type(value).__name__} is not canonically encodable"
    )


def _decode_value(value: Any) -> Any:
    """Inverse of :func:`_encode_value` (lists stay lists)."""
    if isinstance(value, list):
        return [_decode_value(item) for item in value]
    if isinstance(value, dict):
        if set(value.keys()) == {_BYTES_KEY}:
            return bytes.fromhex(value[_BYTES_KEY])
        return {key: _decode_value(item) for key, item in value.items()}
    return value


def canonical_dumps(value: Any) -> str:
    """Serialize *value* to a canonical JSON string.

    Raises :class:`~repro.errors.ValidationError` for values outside the
    canonical type universe.
    """
    return json.dumps(
        _encode_value(value),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=False,
        allow_nan=False,
    )


def canonical_bytes(value: Any) -> bytes:
    """Serialize *value* to canonical UTF-8 bytes (the hashing input)."""
    return canonical_dumps(value).encode("utf-8")


def canonical_loads(data: str | bytes) -> Any:
    """Parse a canonical JSON document produced by :func:`canonical_dumps`."""
    if isinstance(data, (bytes, bytearray)):
        data = bytes(data).decode("utf-8")
    try:
        raw = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid canonical document: {exc}") from exc
    return _decode_value(raw)


class IdentityMemo:
    """Memo of derived bytes (canonical encodings, digests) keyed on
    the *identity* of a carrier object.

    Structures that get re-encoded while unchanged — a version chain's
    head re-digested on every correction, a record re-hashed during
    verification — pay full canonical-JSON cost each time.  This memo
    caches the derived bytes per carrier **object**, holding a strong
    reference to pin its ``id()`` (so a recycled id can never alias a
    dead object; entries are also identity-checked on lookup).

    Correctness contract: only use carriers that are immutable for
    their cached lifetime (frozen dataclasses such as
    :class:`~repro.records.versioning.RecordVersion`).  Mutating a
    cached carrier yields stale bytes — the same contract ``dict``
    keys place on ``__hash__``.
    """

    def __init__(self, capacity: int = 2048) -> None:
        if capacity < 1:
            raise ValidationError("memo capacity must be positive")
        self.capacity = capacity
        self._entries: OrderedDict[int, tuple[Any, bytes]] = OrderedDict()

    def get(self, carrier: Any, compute: Callable[[Any], bytes]) -> bytes:
        """Bytes for *carrier*, computing via ``compute(carrier)`` once."""
        key = id(carrier)
        hit = self._entries.get(key)
        if hit is not None and hit[0] is carrier:
            METRICS.incr("encoding_memo_hits")
            self._entries.move_to_end(key)
            return hit[1]
        METRICS.incr("encoding_memo_misses")
        data = compute(carrier)
        self._entries[key] = (carrier, data)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return data


def to_hex(data: bytes) -> str:
    """Render bytes as lowercase hex."""
    return bytes(data).hex()


def from_hex(text: str) -> bytes:
    """Parse lowercase/uppercase hex into bytes."""
    try:
        return bytes.fromhex(text)
    except ValueError as exc:
        raise ValidationError(f"invalid hex string: {text!r}") from exc
