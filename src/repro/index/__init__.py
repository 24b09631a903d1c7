"""Keyword indexing: fast retrieval without privacy leakage.

The paper (§3, Availability and Performance) observes that timely
access requires indexing, but a conventional keyword index *is itself a
disclosure*: "if the keyword Cancer is present in a medical [record],
then an adversary can assume that the patient might have Cancer".

Two indexes are provided:

* :class:`~repro.index.inverted.InvertedIndex` — a plaintext inverted
  index.  Fast, and exactly as leaky as the paper warns; the baselines
  use it, and experiment E4's leakage probe reads keywords straight off
  its device.
* :class:`~repro.index.trustworthy.TrustworthyIndex` — the compliant
  index: terms are replaced by HMAC trapdoors (keyed, so the adversary
  cannot enumerate the dictionary), an add is one frame of per-list
  AEAD deltas that fold into sealed chunks, every box padded to a
  bucket size (so list *lengths* leak little and an add rewrites
  nothing), and every box is bound to its trapdoor and position
  (tamper-evident).  Its ``delete_document`` removes a document from
  posting lists with *verifiable* absence afterwards (Mitra & Winslett,
  StorageSS'06 motivated): the affected boxes are rewritten and the
  old ones scrubbed.
"""
