"""The fallback cannot rot: the AEAD suite and the index's chunk-tamper
cases again, with the pure-Python reference forced in as the backend.

On this host the import-time selection picks the OpenSSL kernel, so
without this module nothing above ``repro.crypto.chacha20`` would ever
run on the reference path until the day it is the only one left.
"""

import pytest

from repro.crypto import chacha20
from tests.crypto import test_aead as aead_cases
from tests.index import test_trustworthy as index_cases


def _cases(module, wanted):
    return [
        pytest.param(fn, id=f"{module.__name__.rsplit('.', 1)[1]}::{name}")
        for name, fn in vars(module).items()
        if name.startswith("test_") and wanted(name)
    ]


CASES = _cases(aead_cases, lambda name: True) + _cases(
    index_cases, lambda name: "tamper" in name or name.endswith("_detected")
)


@pytest.fixture
def reference_backend(monkeypatch):
    monkeypatch.setattr(chacha20, "_xor", chacha20._reference_xor)


@pytest.mark.parametrize("case", CASES)
def test_on_the_reference_backend(reference_backend, case):
    case()


def test_the_rerun_covers_both_suites():
    ids = [param.id for param in CASES]
    assert sum(i.startswith("test_aead::") for i in ids) >= 12
    assert sum(i.startswith("test_trustworthy::") for i in ids) >= 10
