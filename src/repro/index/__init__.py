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
  cannot enumerate the dictionary, and no trapdoor is on the device),
  a list's pending ids held in memory until 32 fold into a sealed AEAD
  chunk (one frame per write that folds; an add rewrites nothing), every
  chunk padded to a bucket size (so list *lengths* leak little), and
  every chunk re-hashed against the digest taken at write before use
  (tamper-evident).  Its ``delete_document`` removes a document from
  the lists it was posted to with *verifiable* absence afterwards
  (Mitra & Winslett, StorageSS'06 motivated): the chunk holding it in
  each list is rewritten and the old one scrubbed.
"""
