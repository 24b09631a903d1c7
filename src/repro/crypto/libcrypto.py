"""The libcrypto CPython's ``_hashlib`` and ``ssl`` already link, bound
with :mod:`ctypes` for the native kernels of :mod:`repro.crypto.chacha20`
and :mod:`repro.crypto.rsa` — no new dependency.

Each kernel is chosen once, at import, from what the code can observe:
the library loads, every symbol resolves, and the kernel passes its own
self-test.  No option, config field or environment variable selects it.
When any step fails the kernel's pure-Python reference runs and one
:class:`RuntimeWarning` says why; the module's ``BACKEND`` names what
is running either way.  Each reference stays for two reasons: it is the
only fallback on a host without a usable libcrypto, and it is what the
tests hold the kernel to.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import warnings
from collections.abc import Callable
from typing import Any, TypeVar

Kernel = TypeVar("Kernel")


class NativeUnavailable(Exception):
    """Why a native kernel cannot be used on this host."""


def select(
    name: str,
    signatures: dict[str, tuple[Any, list[Any]]],
    build: Callable[..., Kernel],
    reference: Kernel,
    slower: str,
) -> tuple[Kernel, str]:
    """``(kernel, backend name)`` for this process.

    Loads libcrypto, types each function *signatures* maps to its
    ``(restype, argtypes)`` and returns ``build(*functions)`` (in the
    order named; *build* raises :class:`NativeUnavailable` when its
    self-test fails).  When any step fails, returns *reference* after
    one warning that names the reason and what the fallback costs.
    """
    try:
        version, functions = _bind(signatures)
        kernel = build(*functions)
    except NativeUnavailable as exc:
        warnings.warn(
            f"{name} is running on the pure-Python reference ({exc}); expect {slower}",
            RuntimeWarning,
            stacklevel=3,
        )
        return reference, "reference"
    return kernel, f"openssl {version}"


def _bind(signatures: dict[str, tuple[Any, list[Any]]]) -> tuple[str, list[Any]]:
    path = ctypes.util.find_library("crypto")
    if path is None:
        raise NativeUnavailable("libcrypto not found")
    # PyDLL keeps the GIL across each call, CDLL drops and retakes it.
    # For a 3 us ChaCha20 call the drop buys no overlap and costs a
    # handoff: on wire_clinic (the one multi-threaded workload; 5
    # alternating runs each) PyDLL had store_p50 5.6 vs 6.1 ms, store_p99
    # 10.2 vs 12.7 ms and verify_s 0.59 vs 0.68, lower in 5 of 5 pairs.
    # For RSA's ~45 us half-exponentiation CDLL bought nothing the runs
    # could resolve (2-vCPU VM, 6 pairs at seed 3: 1,322 vs 1,290 ops/s,
    # store_p50 3.02 vs 3.09 ms, each inside the spread, 4 of 6 pairs),
    # so one PyDLL serves both kernels.  Contexts are per call either way.
    try:
        lib = ctypes.PyDLL(path)
    except OSError as exc:
        raise NativeUnavailable(f"libcrypto not found: {exc}") from exc
    functions = []
    typed = {"OpenSSL_version": (ctypes.c_char_p, [ctypes.c_int]), **signatures}
    for symbol, (restype, argtypes) in typed.items():
        try:
            function = getattr(lib, symbol)
        except AttributeError as exc:
            raise NativeUnavailable(f"libcrypto symbol missing: {exc}") from exc
        function.restype, function.argtypes = restype, argtypes
        functions.append(function)
    openssl_version, *functions = functions
    return openssl_version(0).decode("ascii", "replace"), functions
