"""Access control for health records.

HIPAA's General Rule requires that access to EPHI be limited to
properly authorized individuals and protected against non-permitted
disclosures.  This package implements the workforce-facing half:

* :mod:`repro.access.principals` — users and HIPAA workforce roles.
* :mod:`repro.access.rbac` — the permission and purpose vocabulary
  (which role holds what is declared in :mod:`repro.policy.rules`, and
  :class:`~repro.policy.engine.PolicyEngine` makes the decisions; every
  denial states its rule).
* :mod:`repro.access.policies` — patient consent directives and the
  minimum-necessary field filter (billing staff see billing fields, not
  the clinical narrative).
* :mod:`repro.access.breakglass` — emergency ("break-glass") access:
  clinically-necessary overrides that always succeed but create
  mandatory review obligations in the audit trail.

The engine is deliberately *decide-only*: enforcement happens in
:mod:`repro.core.engine`, which also writes every decision to the audit
log — an unlogged authorization decision would violate the paper's
logging requirement.
"""

from repro.access.breakglass import BreakGlassController, BreakGlassGrant
from repro.access.policies import ConsentDirective, ConsentRegistry, minimum_necessary_view
from repro.access.principals import Role, User
from repro.access.rbac import Permission, Purpose

__all__ = [
    "BreakGlassController",
    "BreakGlassGrant",
    "ConsentDirective",
    "ConsentRegistry",
    "minimum_necessary_view",
    "Role",
    "User",
    "Permission",
    "Purpose",
]
