"""The migration executor and destination-side verification.

The engine copies objects between WORM stores and verifies the result
against the source's signed manifest.  It supports a fault hook so
experiments can inject transit corruption, drops, and injections, and
proves that every such fault is caught *before* custody transfers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.crypto.hashing import sha256
from repro.crypto.signatures import Signer, TrustStore
from repro.errors import MigrationError
from repro.migration.manifest import MigrationManifest, build_manifest, verify_manifest
from repro.provenance.chain import CustodyRegistry
from repro.util.clock import Clock, WallClock
from repro.worm.store import WormStore

TransitHook = Callable[[str, bytes], bytes | None]
"""Fault-injection hook: receives (object_id, data); returns the bytes
to deliver, or None to drop the object in transit."""


@dataclass(frozen=True)
class MigrationResult:
    """Outcome of one verified migration."""

    source_id: str
    destination_id: str
    manifest: MigrationManifest
    copied: int
    verified: bool
    missing: tuple[str, ...] = ()
    corrupted: tuple[str, ...] = ()
    unexpected: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.verified and not (self.missing or self.corrupted or self.unexpected)


class MigrationEngine:
    """Runs manifest → copy → verify → custody-transfer migrations."""

    def __init__(
        self,
        trust: TrustStore,
        clock: Clock | None = None,
        custody: CustodyRegistry | None = None,
    ) -> None:
        self._trust = trust
        self._clock = clock or WallClock()
        self._custody = custody

    def migrate(
        self,
        source: WormStore,
        destination: WormStore,
        source_signer: Signer,
        destination_id: str,
        transit_hook: TransitHook | None = None,
    ) -> MigrationResult:
        """Migrate all live objects, each under its retention term, in
        ONE destination frame; verification is never optional.

        On verification failure the result reports exactly which objects
        were lost, altered, or injected; custody does NOT transfer.
        """
        manifest = build_manifest(source, source_signer, self._clock.now())
        verify_manifest(manifest, self._trust)

        items = []
        for object_id in manifest.object_ids():
            data = source.get(object_id)
            if transit_hook is not None:
                delivered = transit_hook(object_id, data)
                if delivered is None:
                    continue  # dropped in transit
                data = delivered
            items.append((object_id, data, source.retention.term_for(object_id)))
        destination.put_many(items)

        missing, corrupted, unexpected = self.verify_against_manifest(
            destination, manifest
        )
        verified = not (missing or corrupted or unexpected)
        result = MigrationResult(
            source_id=manifest.source_id,
            destination_id=destination_id,
            manifest=manifest,
            copied=len(items),
            verified=verified,
            missing=tuple(missing),
            corrupted=tuple(corrupted),
            unexpected=tuple(unexpected),
        )
        if verified and self._custody is not None:
            for object_id, digest in manifest.entries:
                self._custody.record_transfer(
                    object_id=object_id,
                    releasing=source_signer,
                    receiving_id=destination_id,
                    object_digest=digest,
                    timestamp=self._clock.now(),
                    reason="migration",
                )
        return result

    @staticmethod
    def verify_against_manifest(
        destination: WormStore, manifest: MigrationManifest
    ) -> tuple[list[str], list[str], list[str]]:
        """Destination-side audit: returns (missing, corrupted, unexpected)."""
        missing: list[str] = []
        corrupted: list[str] = []
        present = set(destination.object_ids())
        expected = dict(manifest.entries)  # one pass: lookups stay O(1)
        for object_id, digest in expected.items():
            if object_id not in present:
                missing.append(object_id)
                continue
            data = destination.get(object_id)  # digest-checked read
            if sha256(data) != digest:
                corrupted.append(object_id)
        unexpected = sorted(present - expected.keys())
        return missing, corrupted, unexpected

    def chained_migration(
        self,
        stores: list[tuple[WormStore, Signer, str]],
        transit_hook: TransitHook | None = None,
    ) -> list[MigrationResult]:
        """Migrate through a chain of (store, signer, site_id) hops —
        the multi-generation scenario of the 30-year experiment.  Stops
        at the first failed hop."""
        if len(stores) < 2:
            raise MigrationError("a chained migration needs at least two stores")
        results = []
        for (src, src_signer, _), (dst, _, dst_id) in zip(stores, stores[1:]):
            result = self.migrate(
                source=src,
                destination=dst,
                source_signer=src_signer,
                destination_id=dst_id,
                transit_hook=transit_hook,
            )
            results.append(result)
            if not result.ok:
                break
        return results
