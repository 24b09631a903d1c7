"""Retention schedules, end-of-life disposition, and secure shredding.

The regulations surveyed in the paper disagree on durations but agree
on structure: records must be kept *at least* N years (30 for OSHA
exposure/medical records, 6 for HIPAA documentation, EU/UK leave it to
member-state schedules), must remain intact for that whole period, and
then must be *disposed of trustworthily*.

* :mod:`repro.retention.policy` — machine-readable schedules mapping
  (regulation, record type) to durations; the effective retention of a
  record is the maximum over all applicable rules.
* :mod:`repro.retention.disposition` — the end-of-life workflow:
  identify expired records → (optional) review → destroy → certify.
  Every step is auditable; destruction without a certificate is a bug.
* :mod:`repro.retention.shredder` — destruction itself: shred the
  record's data key (cryptographic deletion) *and* overwrite its device
  extents (defense in depth on media that will be reused/disposed).
"""
