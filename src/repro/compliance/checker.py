"""The compliance checker: behavioural evaluation of storage models.

Runs the threat/probe harness against a model factory, then folds the
per-requirement verdicts into per-regulation findings.  This is the
code path behind both experiment E1 (the requirements matrix) and the
"would this deployment pass an audit" reports in the examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.compliance.regulations import REGULATIONS
from repro.compliance.requirements import Requirement

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from repro.threats.harness import ModelFactory, RequirementVerdict


@dataclass(frozen=True)
class RegulationFinding:
    """One regulation's outcome for one model."""

    regulation: str
    failed_clauses: tuple[str, ...]
    passed_clauses: tuple[str, ...]

    @property
    def compliant(self) -> bool:
        return not self.failed_clauses


@dataclass
class ModelEvaluation:
    """Everything the checker learned about one model."""

    model_name: str
    verdicts: dict[Requirement, RequirementVerdict]
    findings: list[RegulationFinding] = field(default_factory=list)

    @property
    def requirements_passed(self) -> int:
        return sum(1 for verdict in self.verdicts.values() if verdict.passed)

    @property
    def requirements_total(self) -> int:
        return len(self.verdicts)

    @property
    def fully_compliant(self) -> bool:
        return all(verdict.passed for verdict in self.verdicts.values())

    def failed_requirements(self) -> list[Requirement]:
        return [req for req, verdict in self.verdicts.items() if not verdict.passed]


class ComplianceChecker:
    """Evaluates storage models against the requirement taxonomy."""

    def evaluate_model(
        self, model_name: str, factory: "ModelFactory", seed: int = 1234
    ) -> ModelEvaluation:
        """Probe one model and derive regulation findings."""
        from repro.threats.harness import ThreatHarness

        verdicts = ThreatHarness(factory, seed=seed).evaluate()
        evaluation = ModelEvaluation(model_name=model_name, verdicts=verdicts)
        for regulation in REGULATIONS:
            failed, passed = [], []
            for clause in regulation.clauses:
                clause_ok = all(
                    verdicts[req].passed for req in clause.implies if req in verdicts
                )
                (passed if clause_ok else failed).append(clause.citation)
            evaluation.findings.append(
                RegulationFinding(
                    regulation=regulation.name,
                    failed_clauses=tuple(failed),
                    passed_clauses=tuple(passed),
                )
            )
        return evaluation

    def evaluate_all(
        self, factories: dict[str, "ModelFactory"], seed: int = 1234
    ) -> list[ModelEvaluation]:
        """Evaluate every model (E1's full matrix)."""
        return [
            self.evaluate_model(name, factory, seed=seed)
            for name, factory in factories.items()
        ]
