"""Curator — the hybrid compliant health-record store.

The paper's conclusion calls for "a hybrid model suited for trustworthy
regulatory-compliant health-care record storage" combining the
strengths of the surveyed systems.  :class:`CuratorStore` is that
hybrid:

===========================  =================================================
Requirement                  Mechanism
===========================  =================================================
Confidentiality (outsider)   per-record AEAD encryption; keys wrapped under an
                             HSM-held master key
Confidentiality (insider)    trapdoor index + ciphertext-only devices; raw
                             device access yields nothing decryptable
Access control               RBAC + purposes + treating relationship + consent
                             + break-glass, every decision audited
Integrity                    AEAD tags, content digests, hash-linked version
                             chains
Corrections                  append-only version chains over WORM objects
Trustworthy index            encrypted, padded, MAC'd posting lists with
                             secure deletion
Trustworthy audit            hash-chained log, Merkle-anchored to an external
                             witness
Retention                    per-record-type terms from the regulation
                             schedules, enforced by the WORM layer
Secure deletion              disposition workflow -> key shredding + extent
                             overwrite + index forgetting + coordinated
                             backup-key shredding
Verifiable migration         signed Merkle manifests, media refresh workflow
Provenance                   signed custody chains + hash-linked versions
Backup                       encrypted off-site snapshots, verified restore
===========================  =================================================
"""

from repro.core.config import CuratorConfig
from repro.core.engine import CuratorStore
from repro.core.lifecycle import ArchiveLifecycle

__all__ = ["CuratorConfig", "CuratorStore", "ArchiveLifecycle"]
