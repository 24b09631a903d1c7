"""repro.policy — the unified declarative policy engine.

One explainable decision path for RBAC, consent, treating
relationships, break-glass, sessions, and disposition: rules are
modelled (:mod:`~repro.policy.model`), declared as the shipped rulesets
(:mod:`~repro.policy.rules`), evaluated with deny-overrides and a full
consultation trace (:mod:`~repro.policy.engine`), and checked over
every tuple of their decision space (:mod:`~repro.policy.lint`).
"""

from repro.policy.engine import PolicyEngine, PolicyEnv
from repro.policy.model import (
    DESTRUCTION_ACTION,
    WILDCARD,
    CheckResult,
    Condition,
    Decision,
    Effect,
    PolicyContext,
    PolicyRule,
    RuleTrace,
    Tier,
    ensure_destruction_authorized,
    resource_class,
)

__all__ = [
    "CheckResult",
    "Condition",
    "DESTRUCTION_ACTION",
    "Decision",
    "Effect",
    "PolicyContext",
    "PolicyEngine",
    "PolicyEnv",
    "PolicyRule",
    "RuleTrace",
    "Tier",
    "WILDCARD",
    "ensure_destruction_authorized",
    "resource_class",
]
