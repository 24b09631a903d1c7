"""Compliance WORM (write-once, read-many) storage.

The paper identifies compliance WORM as "the most promising technology
for secure storage of health records".  This package implements it:

* :mod:`repro.worm.store` — objects are written exactly once to a
  journal-backed device, each carrying a content digest and a retention
  term; overwrite attempts raise
  :class:`~repro.errors.WormViolationError`.
* :mod:`repro.worm.retention_lock` — per-object retention terms and
  litigation holds; deletion is *only* possible after expiry and with
  no hold in force, enforced at the store layer, not by caller
  convention.

The plain WORM baseline in :mod:`repro.baselines.plainworm` reuses this
store without the index/audit/provenance layers on top, reproducing the
paper's observation that WORM alone lacks corrections, trustworthy
indexing, and provenance.
"""
