"""Validation helper behaviour."""

import pytest

from repro.errors import ValidationError
from repro.util.validation import require, require_non_empty, require_type


def test_require_passes_and_fails():
    require(True, "fine")
    with pytest.raises(ValidationError, match="broken"):
        require(False, "broken")


def test_require_type_single():
    require_type("x", str, "name")
    with pytest.raises(ValidationError, match="must be str"):
        require_type(1, str, "name")


def test_require_type_tuple():
    require_type(1, (int, float), "value")
    with pytest.raises(ValidationError, match="int | float"):
        require_type("x", (int, float), "value")


def test_require_non_empty():
    require_non_empty([1], "items")
    with pytest.raises(ValidationError):
        require_non_empty([], "items")
    with pytest.raises(ValidationError):
        require_non_empty("", "text")

