"""Provenance and chain of custody.

The paper's final gap analysis: "current storage systems do not
implement trustworthy provenance" — yet HIPAA §164.310(d)(2)(iii)
demands a record of the movements of hardware and electronic media and
the persons responsible, and long-retention records will cross systems
repeatedly.

:mod:`repro.provenance.chain` holds per-object custody chains: each
transfer event is *signed by the releasing custodian* and names the
receiving custodian, the object digest at hand-off, and the reason.  A
custody chain verifies end-to-end: continuous custodianship, valid
signatures, digests matching across hops.  ``custodians()`` answers
"every system that ever held it"; "what was it derived from" is the
hash link from each record version to its predecessor.  Provenance is
what can be verified: there is no unsigned graph beside the chains.
"""
