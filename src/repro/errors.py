"""Exception hierarchy for the Curator compliant-storage library.

Every error raised by the library derives from :class:`CuratorError`, so
callers can catch one base class at API boundaries.  Subsystems raise the
most specific subclass that applies; the class names follow the
requirement taxonomy of Hasan, Winslett & Sion (SDM@VLDB 2007).
"""

from __future__ import annotations


class CuratorError(Exception):
    """Base class for all errors raised by the repro/Curator library."""


class ConfigurationError(CuratorError):
    """A component was constructed or wired with invalid configuration."""


class ValidationError(CuratorError):
    """Input data failed structural or semantic validation; *field*, when
    known, names the input at fault (never its value)."""

    def __init__(self, message: str, field: str = "") -> None:
        super().__init__(message)
        self.field = field


class CryptoError(CuratorError):
    """Base class for cryptographic failures."""


class IntegrityError(CryptoError):
    """Stored data failed an integrity check (digest/MAC/chain mismatch)."""


class AuthenticationError(CryptoError):
    """A signature or MAC did not verify against the expected key."""


class KeyManagementError(CryptoError):
    """A key was missing, already shredded, or otherwise unusable."""


class StorageError(CuratorError):
    """Base class for storage-substrate failures."""


class DeviceError(StorageError):
    """A block device rejected an operation (bounds, detached, failed)."""


class MediaLifecycleError(StorageError):
    """A medium was used in a state that forbids the operation
    (e.g. writing to disposed media, reusing unsanitized media)."""


class WormViolationError(StorageError):
    """An attempt was made to overwrite or erase write-once data."""


class CrashError(DeviceError):
    """The simulated process/power crash: a crash-point device reached
    its armed write and the process model is dead.  Raised by the
    verification substrate (:mod:`repro.verify.crashpoint`), never by
    production storage.

    ``partial`` optionally carries the prefix of the killed write that
    reached the medium before power died (a torn write); ``None`` means
    the write vanished whole.
    """

    def __init__(self, message: str, partial: bytes | None = None) -> None:
        super().__init__(message)
        self.partial = partial


class RetentionError(CuratorError):
    """A retention rule forbade the operation (early deletion, missing
    retention term, litigation hold in force)."""


class DispositionError(RetentionError):
    """The end-of-life disposition workflow was violated."""


class AccessDeniedError(CuratorError):
    """The access-control engine denied the request."""


class ConsentError(AccessDeniedError):
    """The patient's consent directives forbid the disclosure."""


class AuditError(CuratorError):
    """The audit subsystem detected a problem (broken chain, missing
    mandatory event, unverifiable anchor)."""


class ProvenanceError(CuratorError):
    """Chain-of-custody data is missing, forged, or inconsistent."""


class MigrationError(CuratorError):
    """A migration failed or could not be verified as complete/intact."""


class BackupError(CuratorError):
    """Backup creation, replication, or restore failed verification."""


class IndexError_(CuratorError):
    """The trustworthy index rejected an operation or failed a check.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`.
    """


class RecordError(CuratorError):
    """A health-record operation failed (unknown record, bad version,
    malformed amendment)."""


class RecordNotFoundError(RecordError):
    """The requested record or version does not exist."""


class ClusterError(CuratorError):
    """The sharded cluster detected a topology problem: a sealed
    manifest that does not verify, a recovery attempt missing a
    shard's devices, or a request routed to a shard that does not
    exist."""


class ComplianceError(CuratorError):
    """A compliance check could not be evaluated."""


class WorkloadError(CuratorError):
    """The synthetic workload generator was misused."""
