"""High-level signing interface over structured payloads.

Provenance transfers, migration manifests, and audit anchors all sign
*structured values* (dicts), not raw bytes.  :class:`Signer` canonically
encodes the value, signs it, and wraps everything in a
:class:`SignedPayload` that records the signer identity and key
fingerprint, so a verifier can (a) check the signature and (b) check it
was made by the expected party.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from repro.crypto.ed25519 import Ed25519KeyPair, Ed25519PublicKey
from repro.crypto.merkle import MerkleProof, MerkleTree, verify_inclusion
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey, generate_keypair
from repro.errors import AuthenticationError, IntegrityError
from repro.util.encoding import canonical_bytes

#: Domain separator for batch-root messages, so a signature over a batch
#: root can never be replayed as a signature over an ordinary payload.
_BATCH_DOMAIN = "signed-batch-root/v1"


def _batch_root_message(batch_root: bytes, leaf_count: int) -> bytes:
    return canonical_bytes(
        {"domain": _BATCH_DOMAIN, "root": batch_root, "leaves": leaf_count}
    )


class _RootSignatureMemo:
    """LRU of batch roots whose signature already verified.

    Verifying N custody events from one signed batch would otherwise
    repeat the same public-key operation N times on an identical
    (fingerprint, root, signature) triple.  The memo only short-circuits
    the *root signature*; each event's inclusion proof is still checked
    individually.  Registered with the shredder purge path alongside the
    other crypto caches.
    """

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = capacity
        self._verified: OrderedDict[tuple[str, bytes, int, bytes], bool] = OrderedDict()

    def check(self, key: tuple[str, bytes, int, bytes]) -> bool:
        if key in self._verified:
            self._verified.move_to_end(key)
            return True
        return False

    def record(self, key: tuple[str, bytes, int, bytes]) -> None:
        self._verified[key] = True
        while len(self._verified) > self.capacity:
            self._verified.popitem(last=False)

    def purge(self) -> int:
        count = len(self._verified)
        self._verified.clear()
        return count

    def __len__(self) -> int:
        return len(self._verified)


_ROOT_MEMO = _RootSignatureMemo()


def purge_signature_memo() -> int:
    """Drop every memoized verified batch root (shredder purge path)."""
    return _ROOT_MEMO.purge()


@dataclass(frozen=True)
class SignedPayload:
    """A structured value plus a signature over its canonical encoding."""

    payload: Any
    signer_id: str
    key_fingerprint: str
    signature: bytes

    def to_dict(self) -> dict:
        return {
            "payload": self.payload,
            "signer_id": self.signer_id,
            "key_fingerprint": self.key_fingerprint,
            "signature": self.signature,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SignedPayload":
        if "batch_root" in data:
            return AggregateSignedPayload.from_dict(data)
        return cls(
            payload=data["payload"],
            signer_id=data["signer_id"],
            key_fingerprint=data["key_fingerprint"],
            signature=data["signature"],
        )


@dataclass(frozen=True)
class AggregateSignedPayload(SignedPayload):
    """One payload out of a batch covered by a single root signature.

    ``signature`` is the signature over the *batch root message*, not
    this payload; ``proof`` ties the payload's canonical encoding into
    ``batch_root``.  Tampering with any one payload breaks that
    payload's inclusion proof while every other member of the batch
    still verifies — detection stays per-record even though signing cost
    is per-batch.
    """

    batch_root: bytes = b""
    leaf_count: int = 0
    proof: MerkleProof = field(default_factory=lambda: MerkleProof(0, 0))

    def to_dict(self) -> dict:
        data = super().to_dict()
        data["batch_root"] = self.batch_root
        data["leaf_count"] = self.leaf_count
        data["proof"] = self.proof.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "AggregateSignedPayload":
        return cls(
            payload=data["payload"],
            signer_id=data["signer_id"],
            key_fingerprint=data["key_fingerprint"],
            signature=data["signature"],
            batch_root=data["batch_root"],
            leaf_count=data["leaf_count"],
            proof=MerkleProof.from_dict(data["proof"]),
        )


class Signer:
    """An identity (e.g. a storage site, a custodian) that can sign payloads.

    The keypair is an :class:`~repro.crypto.rsa.RsaKeyPair` (the
    default) or an :class:`~repro.crypto.ed25519.Ed25519KeyPair`.  Both
    expose the same ``sign``/``public``/``fingerprint`` surface, so
    everything downstream — payload wrapping, custody chains, trust
    stores — is backend-agnostic.
    """

    def __init__(
        self,
        signer_id: str,
        keypair: RsaKeyPair | Ed25519KeyPair | None = None,
        bits: int = 1024,
    ) -> None:
        self.signer_id = signer_id
        self._keypair = keypair or generate_keypair(bits)

    def verifier(self) -> "Verifier":
        """The verification half for this signer."""
        return Verifier(self.signer_id, self._keypair.public)

    def sign(self, payload: Any) -> SignedPayload:
        """Sign the canonical encoding of *payload*."""
        message = canonical_bytes(payload)
        return SignedPayload(
            payload=payload,
            signer_id=self.signer_id,
            key_fingerprint=self._keypair.public.fingerprint(),
            signature=self._keypair.sign(message),
        )

    def sign_batch(self, payloads: list[Any]) -> list[AggregateSignedPayload]:
        """Sign many payloads with ONE signature over their Merkle root.

        Each returned :class:`AggregateSignedPayload` carries the shared
        root signature plus its own inclusion proof, so per-payload
        verification (and therefore per-record tamper detection) is
        preserved while the expensive private-key operation is amortized
        across the whole batch.
        """
        if not payloads:
            return []
        tree = MerkleTree()
        for payload in payloads:
            tree.append(canonical_bytes(payload))
        batch_root = tree.root()
        signature = self._keypair.sign(
            _batch_root_message(batch_root, len(payloads))
        )
        fingerprint = self._keypair.public.fingerprint()
        proofs = tree.prove_inclusion_all()
        return [
            AggregateSignedPayload(
                payload=payload,
                signer_id=self.signer_id,
                key_fingerprint=fingerprint,
                signature=signature,
                batch_root=batch_root,
                leaf_count=len(payloads),
                proof=proof,
            )
            for payload, proof in zip(payloads, proofs)
        ]


class Verifier:
    """Verification half: holds a signer's identity and public key."""

    def __init__(self, signer_id: str, public_key: RsaPublicKey | Ed25519PublicKey) -> None:
        self.signer_id = signer_id
        self.public_key = public_key

    def verify(self, signed: SignedPayload) -> Any:
        """Verify a :class:`SignedPayload` and return its payload.

        Raises :class:`AuthenticationError` if the signature is invalid,
        the signer identity does not match, or the key fingerprint
        differs from the trusted key.  Aggregate payloads additionally
        prove Merkle inclusion of the payload under the signed batch
        root.
        """
        if signed.signer_id != self.signer_id:
            raise AuthenticationError(
                f"payload signed by {signed.signer_id!r}, expected {self.signer_id!r}"
            )
        if signed.key_fingerprint != self.public_key.fingerprint():
            raise AuthenticationError("signing key fingerprint mismatch")
        if isinstance(signed, AggregateSignedPayload):
            return self._verify_aggregate(signed)
        self.public_key.verify(canonical_bytes(signed.payload), signed.signature)
        return signed.payload

    def _verify_aggregate(self, signed: AggregateSignedPayload) -> Any:
        if signed.proof.tree_size != signed.leaf_count or signed.leaf_count <= 0:
            raise AuthenticationError(
                "aggregate payload proof does not match its batch size"
            )
        memo_key = (
            signed.key_fingerprint,
            signed.batch_root,
            signed.leaf_count,
            signed.signature,
        )
        if not _ROOT_MEMO.check(memo_key):
            self.public_key.verify(
                _batch_root_message(signed.batch_root, signed.leaf_count),
                signed.signature,
            )
            _ROOT_MEMO.record(memo_key)
        try:
            verify_inclusion(
                canonical_bytes(signed.payload), signed.proof, signed.batch_root
            )
        except IntegrityError as exc:
            raise AuthenticationError(
                f"aggregate payload inclusion proof failed: {exc}"
            ) from exc
        return signed.payload


class TrustStore:
    """Registry of trusted verifiers, keyed by signer id.

    Migration destinations use this to check custody-transfer signatures
    from source sites they trust.
    """

    def __init__(self) -> None:
        self._verifiers: dict[str, Verifier] = {}

    def add(self, verifier: Verifier) -> None:
        self._verifiers[verifier.signer_id] = verifier

    def verify(self, signed: SignedPayload) -> Any:
        """Verify against the registered key for the payload's signer."""
        verifier = self._verifiers.get(signed.signer_id)
        if verifier is None:
            raise AuthenticationError(f"no trusted key for signer {signed.signer_id!r}")
        return verifier.verify(signed)

    def known_signers(self) -> list[str]:
        return sorted(self._verifiers)
