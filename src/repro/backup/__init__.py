"""Backup and disaster recovery.

HIPAA §164.310(d)(2)(iv): "create a retrievable, exact copy of
electronic protected health information, when needed"; the paper adds
that backups must live off-site to survive fire and natural disasters.

* :mod:`repro.backup.vault` — the off-site vault: holds snapshots and
  exported wrapped keys at a separate (simulated) site that survives
  primary-site destruction.
* :mod:`repro.backup.manager` — full and incremental snapshots with
  Merkle verification, and restore into a fresh store with per-object
  digest checks ("exact copy" is verified, not assumed).

Interaction with secure deletion (deliberate, and measured in E5):
backups taken *before* a record's disposition still contain its
ciphertext and wrapped key.  Cryptographic deletion therefore must be
*coordinated* — :meth:`BackupVault.shred_key` destroys the wrapped key
in every snapshot, after which restores reproduce the record's
ciphertext but can never decrypt it.
"""
