"""Provenance and chain of custody.

The paper's final gap analysis: "current storage systems do not
implement trustworthy provenance" — yet HIPAA §164.310(d)(2)(iii)
demands a record of the movements of hardware and electronic media and
the persons responsible, and long-retention records will cross systems
repeatedly.

* :mod:`repro.provenance.chain` — per-object custody chains: each
  transfer event is *signed by the releasing custodian* and names the
  receiving custodian, the object digest at hand-off, and the reason.
  A custody chain verifies end-to-end: continuous custodianship, valid
  signatures, digests matching across hops.
* :mod:`repro.provenance.graph` — a system-wide provenance DAG
  (networkx) over objects, custodians, and events, answering ancestry
  questions ("which source objects fed this record?", "every system
  that ever held it").
"""
