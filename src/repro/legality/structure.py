"""Structure-schema legality (Section 3.2).

Two checkers with identical verdicts and very different costs:

:class:`QueryStructureChecker`
    The paper's contribution: each element of ``(Cr, Er, Ef)`` is
    translated to a hierarchical selection query (Figure 4) and evaluated
    by the linear-time engine — total cost ``O(|S| * |D|)``
    (Theorem 3.1).

:class:`NaiveStructureChecker`
    The "straightforward approach" the paper argues against: compare
    every (parent, child) pair and every (ancestor, descendant) pair of
    the instance against the structure schema —
    ``O((|Er| + |Ef|) * |D|^2)``.  Kept as the differential-testing
    oracle and as the benchmark baseline for Experiment FIG4.
"""

from __future__ import annotations

from typing import List, Set

from repro.axes import Axis
from repro.model.instance import DirectoryInstance
from repro.legality.report import Kind, LegalityReport, Violation
from repro.query.evaluator import QueryEvaluator
from repro.query.translate import TranslatedCheck, translate_element
from repro.schema.elements import ForbiddenEdge, RequiredClass, RequiredEdge
from repro.schema.structure_schema import StructureSchema

__all__ = ["QueryStructureChecker", "NaiveStructureChecker"]

_MAX_WITNESSES = 5


def _required_violation(
    element: RequiredEdge, instance: DirectoryInstance, witnesses: Set[int]
) -> List[Violation]:
    violations = []
    for eid in sorted(witnesses)[:_MAX_WITNESSES]:
        violations.append(
            Violation(
                Kind.REQUIRED_RELATIONSHIP,
                f"entry violates required relationship {element}",
                dn=str(instance.dn_of(eid)),
                element=str(element),
            )
        )
    if len(witnesses) > _MAX_WITNESSES:
        violations.append(
            Violation(
                Kind.REQUIRED_RELATIONSHIP,
                f"... and {len(witnesses) - _MAX_WITNESSES} more entries "
                f"violate {element}",
                element=str(element),
            )
        )
    return violations


def _forbidden_violation(
    element: ForbiddenEdge, instance: DirectoryInstance, witnesses: Set[int]
) -> List[Violation]:
    violations = []
    for eid in sorted(witnesses)[:_MAX_WITNESSES]:
        violations.append(
            Violation(
                Kind.FORBIDDEN_RELATIONSHIP,
                f"entry participates in forbidden relationship {element}",
                dn=str(instance.dn_of(eid)),
                element=str(element),
            )
        )
    if len(witnesses) > _MAX_WITNESSES:
        violations.append(
            Violation(
                Kind.FORBIDDEN_RELATIONSHIP,
                f"... and {len(witnesses) - _MAX_WITNESSES} more entries "
                f"participate in {element}",
                element=str(element),
            )
        )
    return violations


class QueryStructureChecker:
    """Structure legality via the Figure 4 query reduction."""

    def __init__(self, structure_schema: StructureSchema) -> None:
        self.structure_schema = structure_schema
        #: The translated checks, built once per schema (query compilation
        #: is instance-independent).
        self.checks: List[TranslatedCheck] = [
            translate_element(element) for element in structure_schema.elements()
        ]
        #: Evaluator work (entries touched) of the most recent
        #: :meth:`check`/:meth:`is_legal` call — surfaced by the legality
        #: engine's observability layer.
        self.last_cost = 0

    def check(self, instance: DirectoryInstance) -> LegalityReport:
        """Evaluate every translated query; collect violations."""
        report = LegalityReport()
        evaluator = QueryEvaluator(instance)
        for check in self.checks:
            result = evaluator.evaluate(check.query)
            if check.legal_when_empty:
                if not result:
                    continue
                element = check.element
                if isinstance(element, RequiredEdge):
                    report.extend(_required_violation(element, instance, result))
                else:
                    assert isinstance(element, ForbiddenEdge)
                    report.extend(_forbidden_violation(element, instance, result))
            else:
                if result:
                    continue
                assert isinstance(check.element, RequiredClass)
                report.add(
                    Violation(
                        Kind.MISSING_REQUIRED_CLASS,
                        f"no entry belongs to required class "
                        f"{check.element.object_class!r}",
                        element=str(check.element),
                    )
                )
        self.last_cost = evaluator.cost
        return report

    def is_legal(self, instance: DirectoryInstance) -> bool:
        """Short-circuiting yes/no variant of :meth:`check`."""
        evaluator = QueryEvaluator(instance)
        try:
            for check in self.checks:
                result = evaluator.evaluate(check.query)
                if bool(result) == check.legal_when_empty:
                    return False
            return True
        finally:
            self.last_cost = evaluator.cost


class NaiveStructureChecker:
    """The quadratic pairwise baseline (Section 3.2's strawman).

    Materializes every (ancestor, descendant) and (parent, child) pair of
    the instance and tests each pair against every relationship element;
    required elements additionally track which source entries found a
    qualifying relative.  Verdicts are identical to
    :class:`QueryStructureChecker` (asserted by the differential tests).
    """

    def __init__(self, structure_schema: StructureSchema) -> None:
        self.structure_schema = structure_schema

    def check(self, instance: DirectoryInstance) -> LegalityReport:
        """Scan every hierarchical pair against every element; report
        the same violations as the query checker, quadratically."""
        report = LegalityReport()
        # Element order as in ``StructureSchema.elements()``, so reports
        # compare equal to the query checker's, order included.
        required = sorted(self.structure_schema.required_edges, key=str)
        forbidden = sorted(self.structure_schema.forbidden_edges, key=str)

        # satisfied[i] = source entries of required[i] with a qualifying
        # relative found during the pair scan.
        satisfied: List[Set[int]] = [set() for _ in required]
        sources: List[Set[int]] = [
            instance.entries_with_class(edge.source) for edge in required
        ]
        forbidden_hits: List[Set[int]] = [set() for _ in forbidden]

        for entry in instance:
            ancestors = list(instance.ancestors_of(entry))
            parent = ancestors[0] if ancestors else None
            for ancestor in ancestors:
                is_parent = parent is not None and ancestor.eid == parent.eid
                for i, edge in enumerate(required):
                    if edge.axis is Axis.DESCENDANT or (
                        edge.axis is Axis.CHILD and is_parent
                    ):
                        # ancestor -> entry is a (source, target) candidate
                        if ancestor.belongs_to(edge.source) and entry.belongs_to(
                            edge.target
                        ):
                            satisfied[i].add(ancestor.eid)
                    if edge.axis is Axis.ANCESTOR or (
                        edge.axis is Axis.PARENT and is_parent
                    ):
                        if entry.belongs_to(edge.source) and ancestor.belongs_to(
                            edge.target
                        ):
                            satisfied[i].add(entry.eid)
                for j, fedge in enumerate(forbidden):
                    if fedge.axis is Axis.CHILD and not is_parent:
                        continue
                    if ancestor.belongs_to(fedge.source) and entry.belongs_to(
                        fedge.target
                    ):
                        forbidden_hits[j].add(ancestor.eid)

        for i, edge in enumerate(required):
            missing = sources[i] - satisfied[i]
            if missing:
                report.extend(_required_violation(edge, instance, missing))
        for j, fedge in enumerate(forbidden):
            if forbidden_hits[j]:
                report.extend(_forbidden_violation(fedge, instance, forbidden_hits[j]))

        for name in sorted(self.structure_schema.required_classes):
            if not instance.entries_with_class(name):
                report.add(
                    Violation(
                        Kind.MISSING_REQUIRED_CLASS,
                        f"no entry belongs to required class {name!r}",
                        element=str(RequiredClass(name)),
                    )
                )
        return report

    def is_legal(self, instance: DirectoryInstance) -> bool:
        """Yes/no verdict via the direct Definition 2.6 semantics."""
        return all(
            element.is_satisfied(instance)
            for element in self.structure_schema.elements()
        )
