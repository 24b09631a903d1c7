"""Tiny validation helpers used at public API boundaries.

The library validates aggressively at its edges (per the HIPAA-derived
requirement that records be accurate) and raises
:class:`~repro.errors.ValidationError` with actionable messages, rather
than letting malformed data propagate into hashed/signed state where it
would be frozen forever.
"""

from __future__ import annotations

from typing import Any, Sized

from repro.errors import ValidationError


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValidationError` with *message* unless *condition*."""
    if not condition:
        raise ValidationError(message)


def require_type(value: Any, types: type | tuple[type, ...], name: str) -> None:
    """Raise unless *value* is an instance of *types*."""
    if not isinstance(value, types):
        kinds = types if isinstance(types, tuple) else (types,)
        expected = " | ".join(kind.__name__ for kind in kinds)
        raise ValidationError(f"{name} must be {expected}, got {type(value).__name__}", name)


def require_non_empty(value: Sized, name: str) -> None:
    """Raise unless *value* has nonzero length."""
    if len(value) == 0:
        raise ValidationError(f"{name} must not be empty", name)
