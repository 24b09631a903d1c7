"""Tamper-evident audit trail.

HIPAA requires internal audit procedures, accountability for media
movements, and logging of record access; the paper adds that logging
must itself be *trustworthy* — an insider who can alter the log can
erase the evidence of their tampering.

The design layers three mechanisms:

1. **Hash chain** (:mod:`repro.audit.log`): every event's digest folds
   in its predecessor's digest, so deleting, editing, or reordering any
   event breaks the chain from that point on.  Verification localizes
   the first broken link.
2. **Merkle anchoring** (:mod:`repro.audit.anchors`): the log
   periodically commits its Merkle root to an external witness (a
   regulator, a newspaper, another hospital).  A *truncation* attack —
   chopping the tail and presenting a shorter but internally-consistent
   log — defeats a bare hash chain but not an anchored one: the witness
   holds a root the shortened log cannot reproduce, and consistency
   proofs show each anchor extends the previous one.
3. **Forensic queries** (:mod:`repro.audit.query`): who touched record
   X, everything actor Y did, all emergency accesses — the questions a
   privacy officer asks after a suspected breach.
4. **Verified watermarks** (:mod:`repro.audit.checkpoint`): a MAC-sealed
   checkpoint of the last successful verification, so repeated
   verification replays only the delta past the watermark instead of the
   whole archive (with randomized sealed-prefix spot-checks and a forced
   periodic full rescan preserving tamper detection).
"""
