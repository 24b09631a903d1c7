"""Trustworthy, verifiable migration between stores.

Records outlive hardware: 30-year retention (OSHA) guarantees several
generations of media and formats, so the paper requires migration that
is "trustworthy, and verifiable".  Protocol implemented here:

1. **Manifest** (:mod:`repro.migration.manifest`) — the source
   enumerates every live object with its content digest, computes the
   Merkle root over the digest set, and *signs* the manifest.
2. **Copy** (:mod:`repro.migration.engine`) — objects move to the
   destination store; each arrival is digest-checked immediately.
3. **Verify** — the destination independently recomputes the manifest
   from its own storage and checks: completeness (every manifest entry
   present), integrity (digests match), and no extras (nothing was
   injected in transit).  The Merkle root makes the check a single
   comparison, with per-object localization when it fails.
4. **Custody transfer** — on success, a signed custody event moves
   responsibility to the destination (see :mod:`repro.provenance`).

Failure injection in E6 demonstrates that dropped, altered, and
injected objects are all caught before custody transfers.
"""
