"""Ruleset lint by enumeration: decide every tuple, then check them all.

The policy domain is small and finite, so ``repro policy lint`` does not
reason about rule shapes; it decides every tuple of each shipped
ruleset's decision space and reads the answers.  :func:`domain` derives
that space from the :class:`Role`, :class:`Permission` and
:class:`Purpose` enums and from the ruleset's own conditions;
:func:`decision_table` decides each tuple.  Over the table the lint
reports:

* **dead** — a rule that matches on no tuple, or whose id an earlier
  rule already took.  Whatever strands a rule (a broader rule before it
  in its tier, a deny over it, a duplicate id, a condition that never
  holds), enumeration sees that it never takes effect;
* **broken invariants** (shipped rulesets) — a tuple that breaks one of
  :data:`INVARIANTS` and that no entry of :data:`EXEMPTIONS`, the named
  exceptions with their reasons, covers.

``tests/policy/decision_table.json`` pins the table itself.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

from repro.access.policies import ConsentDirective, ConsentRegistry
from repro.access.principals import SYSTEM_USER, Role, User
from repro.access.rbac import Permission, Purpose
from repro.errors import RetentionError
from repro.policy.engine import PolicyEngine, PolicyEnv
from repro.policy.model import (
    BREAK_GLASS_ACTION,
    DESTRUCTION_ACTION,
    WILDCARD,
    Decision,
    Effect,
    PolicyContext,
    PolicyRule,
    Tier,
)
from repro.policy.rules import RULESETS

# -- the decision space -------------------------------------------------------

#: The probing principal, the patient it treats and one it does not, and
#: the resource every probe names.
ACTOR = "dr-a"
TREATED = "pat-1"
UNTREATED = "pat-2"
RESOURCE = "rec-1"

#: Every action a record or a patient is decided under: the permission
#: vocabulary, destruction and break-glass invocation.  A ruleset with a
#: wildcard-action rule is probed on all of them.
ACTIONS = (*(p.value for p in Permission), DESTRUCTION_ACTION, BREAK_GLASS_ACTION)

#: The request dimensions each built-in condition reads.  A ruleset is
#: probed along exactly the dimensions its own conditions read (all of
#: them for a condition not listed here), on every assignment of the
#: facts its ``fact_true:``/``fact_false:`` conditions name, and, if it
#: has a role-pass or binding rule, for every role set of at most two
#: roles.
_READS = {
    "actor_is_system": {"system"},
    "purpose_in": {"purpose"},
    "own_record_only": {"own_record"},
    "treating_relationship": {"patient", "purpose"},
    "consent_blocks": {"patient", "purpose", "consent"},
    "break_glass_active": {"patient", "grant"},
    "retention_blocked": {"held"},
}
_FACTS = ("fact_true:", "fact_false:")


class _LiveGrants:
    """A break-glass controller all of whose grants are live."""

    def has_active_grant(self, user_id: str, patient_id: str) -> bool:
        return True


class _Held:
    """A retention lock that holds every object, and the clock it reads."""

    def check_deletable(self, object_id: str, now: float) -> None:
        raise RetentionError(f"object {object_id} is under litigation hold")

    def now(self) -> float:
        return 0.0


class Probe(NamedTuple):
    """One tuple of the decision space: a request plus the state of the
    registries its conditions consult.  ``consent`` is ``none``, ``every``
    (a directive on both patients blocks every role) or ``first`` (it
    blocks the first of the actor's roles); ``grant`` is a live
    break-glass grant; ``held`` a retention hold on the resource."""

    action: str
    roles: tuple[Role, ...] = ()
    system: bool = False
    purpose: Purpose | None = None
    patient: str = ""
    own_record: bool = False
    consent: str = "none"
    grant: bool = False
    held: bool = False
    facts: tuple[tuple[str, bool], ...] = ()

    @property
    def block(self) -> str:
        """The golden line this tuple is on: its role set and action, or
        ``system`` for the system principal's one tuple per action."""
        if self.system:
            return "system"
        return " ".join(filter(None, ("+".join(r.value for r in self.roles), self.action)))

    def label(self) -> str:
        """The block, its action, and every field off its default."""
        changed = [
            f"{name}={getattr(value, 'value', value)}"
            for name, value in zip(self._fields[3:], self[3:])
            if value != self._field_defaults[name]
        ]
        return " ".join([self.block, self.action] if self.system else [self.block, *changed])

    def request(self) -> tuple:
        """The ``decide()`` arguments of this tuple."""
        actor = SYSTEM_USER if self.system else _principal(self.roles)
        context = _context(self.purpose, self.patient, self.own_record, self.facts)
        return actor, self.action, RESOURCE, context

    def registries(self) -> tuple:
        """What the environment holds: the roles a directive blocks, a
        live grant, a retention hold."""
        blocked = self.roles[:1] if self.consent == "first" else _BLOCKED[self.consent]
        return blocked, self.grant, self.held


_BLOCKED = {"none": (), "every": tuple(Role)}


# Principals and contexts are immutable and recur across the domain, so
# each is built once.
@functools.cache
def _principal(roles: tuple[Role, ...]) -> User | str:
    return User.make(ACTOR, ACTOR, roles, treating=[TREATED]) if roles else ACTOR


@functools.cache
def _context(purpose, patient: str, own_record: bool, facts: tuple) -> PolicyContext:
    return PolicyContext(purpose, patient, own_record, dict(facts))


def domain(rules: Sequence[PolicyRule]) -> Iterator[Probe]:
    """Every tuple of *rules*' decision space, in golden order."""
    names = [condition.name for rule in rules for condition in rule.conditions]
    facts = sorted({name.split(":", 1)[1] for name in names if name.startswith(_FACTS)})
    every = set().union(*_READS.values())
    reads = set().union(*(_READS.get(name, every) for name in names if not name.startswith(_FACTS)))
    actions = sorted({action for rule in rules for action in rule.actions} - {WILDCARD})
    if any(WILDCARD in rule.actions for rule in rules):
        actions = [*ACTIONS, *(action for action in actions if action not in ACTIONS)]
    role_sets: list[tuple[Role, ...]] = [()]
    if any(rule.tier in (Tier.ROLE, Tier.BINDING) for rule in rules):
        roles = sorted(Role, key=lambda r: r.value)
        role_sets = [*itertools.combinations(roles, 1), *itertools.combinations(roles, 2)]

    def axis(name: str, values: tuple) -> tuple:
        return values if name in reads else values[:1]

    points = list(
        itertools.product(
            axis("purpose", (None, *Purpose)),
            axis("patient", ("", TREATED, UNTREATED)),
            axis("own_record", (False, True)),
            axis("consent", ("none", "every", "first")),
            axis("grant", (False, True)),
            axis("held", (False, True)),
            [tuple(zip(facts, values)) for values in itertools.product((False, True), repeat=len(facts))],
        )
    )
    for roles in role_sets:
        for action in actions:
            for point in points:
                yield Probe(action, roles, False, *point)
    if "system" in reads:
        for action in actions:
            yield Probe(action, system=True)


def _directive(blocked: tuple[Role, ...]) -> ConsentDirective:
    return ConsentDirective("cd-1", blocked_roles=frozenset(blocked))


def engine_for(rules: Sequence[PolicyRule], probe: Probe, engines: dict) -> PolicyEngine:
    """The engine over *rules* whose environment is *probe*'s registry
    state, from *engines* (one per state, built on first use)."""
    key = probe.registries()
    engine = engines.get(key)
    if engine is None:
        blocked, grant, held = key
        consent = None
        if blocked:
            consent = ConsentRegistry()
            for patient in (TREATED, UNTREATED):
                consent.add_directive(patient, _directive(blocked))
        hold = _Held() if held else None
        env = PolicyEnv(
            consent=consent,
            breakglass=_LiveGrants() if grant else None,
            retention=hold,
            clock=hold,
        )
        engine = engines[key] = PolicyEngine(rules, env=env)
    return engine


class Row(NamedTuple):
    """One decision as the golden table pins it."""

    allowed: bool
    rule_id: str
    reason: str
    role_used: str | None
    error: str
    emergency: bool
    trace: tuple[tuple[str, str, bool, str], ...]

    @classmethod
    def of(cls, decision: Decision) -> "Row":
        return cls(
            decision.allowed,
            decision.rule_id,
            decision.reason,
            getattr(decision.role_used, "value", decision.role_used),
            decision.error,
            decision.emergency,
            tuple((t.rule_id, t.effect, t.matched, t.detail) for t in decision.trace),
        )


@functools.cache
def decision_table(rules: tuple[PolicyRule, ...]) -> tuple[Row, ...]:
    """The decision of every tuple of ``domain(rules)``, in order, each
    from the engine for its registry state — warm, as engines serve.
    Rulesets are immutable, so the table is computed once per process."""
    engines: dict = {}
    interned: dict[Row, Row] = {}
    table = []
    for probe in domain(rules):
        decision = engine_for(rules, probe, engines).decide(*probe.request())
        found = Row.of(decision)
        table.append(interned.setdefault(found, found))
    return tuple(table)


# -- invariants ---------------------------------------------------------------

_PHI_READS = {Permission.READ_RECORD.value, Permission.SEARCH_RECORDS.value}


@functools.cache
def _blocks_every_role(roles: tuple[Role, ...], blocked: tuple, purpose) -> bool:
    directive = _directive(blocked)
    return bool(roles and purpose) and all(directive.blocks(role, purpose) for role in roles)


def _has_a_basis(probe: Probe, row: Row) -> bool:
    """An allowed PHI read of a named patient rests on a treating
    relationship (or a stated emergency), the patient's own record,
    billing for payment, or a live grant."""
    if not (row.allowed and probe.patient and probe.action in _PHI_READS) or row.emergency:
        return True
    clinical = probe.patient == TREATED or probe.purpose is Purpose.EMERGENCY
    return {
        Role.PHYSICIAN.value: clinical,
        Role.NURSE.value: clinical,
        Role.PATIENT.value: probe.own_record,
        Role.BILLING.value: probe.purpose is Purpose.PAYMENT,
    }.get(row.role_used, False)


def _deny_overrides(probe: Probe, row: Row) -> bool:
    """No allow once a deny matched — or while the patient's directive
    blocks every role the actor holds for the stated purpose."""
    if not row.allowed:
        return True
    if any(effect == Effect.DENY.value and matched for _, effect, matched, _ in row.trace):
        return False
    return not (
        probe.patient and _blocks_every_role(probe.roles, probe.registries()[0], probe.purpose)
    )


def _nothing_expired_allows(probe: Probe, row: Row) -> bool:
    """An expired session is never used, and an emergency allow rests on
    a live grant (or is the invocation that creates one)."""
    if not row.allowed:
        return True
    if probe.action == "use_session" and dict(probe.facts).get("session_expired"):
        return False
    return not row.emergency or probe.grant or probe.action == BREAK_GLASS_ACTION


#: The declared invariants, each a predicate over one tuple and its
#: decision.  The minimum-necessary one holds at the decision: an allow
#: bound to billing is for payment, the one purpose billing's field view
#: (:func:`repro.access.policies.minimum_necessary_view`) serves.
INVARIANTS: dict[str, Callable[[Probe, Row], bool]] = {
    "no PHI read without a relationship or a live grant": _has_a_basis,
    "a deny always overrides": _deny_overrides,
    "an expired session or grant never allows": _nothing_expired_allows,
    "every decision names a rule": lambda probe, row: bool(row.rule_id and row.reason),
    "billing gets the minimum-necessary view": lambda probe, row: (
        not (row.allowed and row.role_used == Role.BILLING.value)
        or probe.purpose is Purpose.PAYMENT
    ),
}


class Exemption(NamedTuple):
    """A group of tuples that breaks an invariant on purpose."""

    invariant: str
    covers: Callable[[Probe, Row], bool]
    reason: str


#: The named exceptions to :data:`INVARIANTS`, each with its reason.
EXEMPTIONS = (
    Exemption(
        "no PHI read without a relationship or a live grant",
        lambda probe, row: (
            row.role_used == Role.PRIVACY_OFFICER.value
            and probe.action == Permission.READ_RECORD.value
        ),
        "privacy_officer read_record for any purpose: the officer reviews "
        "disclosures, so the capability carries no purpose or relationship",
    ),
    Exemption(
        "no PHI read without a relationship or a live grant",
        lambda probe, row: probe.action == Permission.SEARCH_RECORDS.value,
        "search_records without a relationship: a search names no patient "
        "before it runs, so its capabilities check role and purpose only",
    ),
    Exemption(
        "a deny always overrides",
        lambda probe, row: row.emergency,
        "break-glass overriding consent: consent binds only a role that won "
        "the role pass, so a live grant rescues a request its directive "
        "blocks (an open behaviour question)",
    ),
)


@functools.cache
def invariant_breaks(
    rules: tuple[PolicyRule, ...],
) -> tuple[tuple[str, Probe, Row, Exemption | None], ...]:
    """``(invariant, tuple, decision, exemption)`` for every tuple of
    *rules*' decision space that breaks an invariant, with the exemption
    that covers it (``None`` for a real break)."""
    breaks = []
    for probe, row in zip(domain(rules), decision_table(rules)):
        for name, holds in INVARIANTS.items():
            if not holds(probe, row):
                covering = [e for e in EXEMPTIONS if e.invariant == name and e.covers(probe, row)]
                breaks.append((name, probe, row, covering[0] if covering else None))
    return tuple(breaks)


# -- findings -----------------------------------------------------------------


@dataclass(frozen=True)
class LintFinding:
    """One lint diagnostic; every finding fails the gate."""

    check: str  # "dead", or the invariant broken
    rule_id: str
    message: str

    def __str__(self) -> str:
        return f"{self.check}: {self.rule_id}: {self.message}"


def lint_ruleset(rules: Sequence[PolicyRule]) -> list[LintFinding]:
    """Every dead rule of *rules*, in rule order."""
    first: dict[str, PolicyRule] = {}
    for rule in rules:
        first.setdefault(rule.rule_id, rule)
    table = decision_table(tuple(first.values()))
    live = {rule_id for row in set(table) for rule_id, _, matched, _ in row.trace if matched}
    findings = []
    for rule in rules:
        if first[rule.rule_id] is not rule:
            message = "an earlier rule has its id, so no decision can name it"
        elif rule.rule_id not in live:
            message = f"matches on none of the {len(table):,} tuples of its decision space"
        else:
            continue
        findings.append(LintFinding("dead", rule.rule_id, message))
    return findings


def lint_default_rulesets() -> list[LintFinding]:
    """What ``repro policy lint`` runs: each shipped ruleset's dead rules,
    then, per invariant, the first tuple that breaks it unexempted."""
    findings = []
    for rules in RULESETS.values():
        findings += lint_ruleset(rules)
        first: dict[str, LintFinding] = {}
        for name, probe, row, exemption in invariant_breaks(rules):
            if exemption is None and name not in first:
                first[name] = LintFinding(name, row.rule_id, f"broken by {probe.label()}")
        findings += first.values()
    return findings
