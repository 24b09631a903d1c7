"""Configuration for a Curator deployment."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.retention.policy import STANDARD_POLICY, RetentionPolicy
from repro.util.clock import Clock, WallClock


@dataclass
class CuratorConfig:
    """Everything a :class:`~repro.core.engine.CuratorStore` needs.

    ``master_key`` models key material held in an HSM: the engine uses
    it but never writes it to any device, and
    :meth:`~repro.core.engine.CuratorStore.insider_keys` returns {}.
    """

    master_key: bytes
    site_id: str = "hospital-A"
    clock: Clock = field(default_factory=WallClock)
    retention_policy: RetentionPolicy = field(default_factory=lambda: STANDARD_POLICY)
    device_capacity: int = 1 << 24
    anchor_every_events: int = 64
    witness_count: int = 1  # >1 builds a witness quorum (majority threshold)
    read_cache_size: int = 128  # decrypted-read LRU entries; 0 disables
    # Incremental-verification knobs (see DESIGN.md "Verification cost
    # model"): sealed-prefix spot-check sample per incremental audit
    # verify, forced full-rescan cadence, and the rotating clean-object
    # sample per incremental integrity pass.
    audit_spot_checks: int = 16
    audit_full_rescan_every: int = 64
    integrity_clean_sample: int = 8
    # Capacity of the dedicated cold-tier device.
    cold_device_capacity: int = 1 << 24
    # An HSM-held anchor-signing keypair shared across engines.  None
    # means each engine generates its own (the single-site default); a
    # cluster passes one keypair so all shards sign anchors under the
    # same site identity without paying N keygens.
    signing_keypair: object | None = None

    def __post_init__(self) -> None:
        if len(self.master_key) != 32:
            raise ConfigurationError("master_key must be 32 bytes")
        if not self.site_id:
            raise ConfigurationError("site_id must not be empty")
        if self.anchor_every_events < 1:
            raise ConfigurationError("anchor_every_events must be >= 1")
        if self.witness_count < 1:
            raise ConfigurationError("witness_count must be >= 1")
        if self.read_cache_size < 0:
            raise ConfigurationError("read_cache_size must be >= 0")
        if self.audit_spot_checks < 0:
            raise ConfigurationError("audit_spot_checks must be >= 0")
        if self.audit_full_rescan_every < 1:
            raise ConfigurationError("audit_full_rescan_every must be >= 1")
        if self.integrity_clean_sample < 0:
            raise ConfigurationError("integrity_clean_sample must be >= 0")
        if self.cold_device_capacity < 1:
            raise ConfigurationError("cold_device_capacity must be >= 1")
