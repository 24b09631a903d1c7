"""Simulated storage substrate.

The paper's requirements are about storage *semantics* — write-once
behaviour, sanitization before media re-use, migration across hardware
generations, survival of site disasters.  This package provides the
simulated hardware those semantics run on:

* :mod:`repro.storage.block` — byte-addressable block devices, either
  in-memory or file-backed, with raw read/write counters.
* :mod:`repro.storage.media` — media with a compliance lifecycle
  (``ACTIVE`` → ``RETIRED`` → ``SANITIZED`` → reusable / ``DISPOSED``),
  enforcing HIPAA §164.310(d)(2)(i-ii).
* :mod:`repro.storage.failures` — deterministic fault injection: bit
  rot, crash truncation, whole-device theft/loss.
* :mod:`repro.storage.journal` — an append-only record journal over a
  block device, the lowest layer the WORM store builds on.

Crucially, devices expose :meth:`~repro.storage.block.BlockDevice.raw_read`
to adversaries: the insider threat model gets the same bytes the
software stack stores, which is how the experiments show that
access-control-only solutions fail the paper's insider requirement.
"""
