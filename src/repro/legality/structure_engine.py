"""The batched structure-check engine.

Theorem 3.1 bounds the structure check by ``O(|S| * |D|)`` — per query.
Evaluated one at a time, every Figure 4 check whose operands are large
relative to ``|D|`` falls back to a whole-forest flag pass
(``_descendant_by_flags`` / ``_ancestor_by_flags`` in
:mod:`repro.query.evaluator`), so a schema with many such elements does
many full ``O(|D|)`` sweeps where one would do.  SHACL validators face
the same shapes-over-graph problem and win by sharing graph traversals
across shapes; :class:`StructureEngine` does the analogue for the whole
translated check set, in two layers:

1. **Batched flag propagation** — checks whose inner operand is an
   ``(objectClass=c)`` selection *and* whose adaptive evaluation would
   use a whole-forest flag pass are collected and answered together:
   one reverse pass over document order computes ``has_c_below`` and
   one forward pass computes ``has_c_above`` for **all** such classes
   at once, using per-entry integer bitmasks (one bit per tracked
   class).  ``|S|`` sweeps become at most 2.  Checks the adaptive
   evaluator would run via semi-joins or interval joins keep that path
   — batching them would *add* work, not share it.  The strategy
   predicates are imported from the evaluator so both layers stay in
   agreement (:func:`repro.query.evaluator.descendant_prefers_flags`
   et al.).

2. **Per-query evaluation** — the non-batched checks are evaluated one
   after another by one :class:`~repro.query.evaluator.QueryEvaluator`
   over the instance's interval numbering.  Violations are collected in
   element order, so reports are byte-identical to the sequential
   checkers'.

Every check evaluates every element: the engine keeps no verdict
between calls.  A view that must keep its verdict under updates does so
with the Section 4 Δ-checks as it replays frames
(:mod:`repro.updates.incremental`), not by re-running this engine.

Verdicts are differentially identical to both
:class:`~repro.legality.structure.QueryStructureChecker` and
:class:`~repro.legality.structure.NaiveStructureChecker` — same
violations, same order (asserted by ``tests/test_structure_engine.py``
and the ``benchmarks/bench_structure.py`` gates).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from repro.axes import Axis
from repro.legality.report import Kind, LegalityReport, Violation
from repro.legality.structure import _forbidden_violation, _required_violation
from repro.model.instance import DirectoryInstance
from repro.query.evaluator import (
    QueryEvaluator,
    ancestor_prefers_flags,
    descendant_prefers_flags,
    prefers_semi_join,
)
from repro.query.translate import TranslatedCheck, translate_element
from repro.schema.elements import ForbiddenEdge, RequiredClass, RequiredEdge
from repro.schema.structure_schema import StructureSchema

__all__ = ["StructureEngine"]

#: One element's verdict: the violation-witness set for relationship
#: elements (empty = legal), or the non-emptiness bit for required
#: classes.  Witnesses are entry ids; DNs are rendered at report time.
_Verdict = Union[FrozenSet[int], bool]


class StructureEngine:
    """Batch-evaluates a structure schema's whole translated check set.

    Drop-in verdict-compatible with
    :class:`~repro.legality.structure.QueryStructureChecker`: same
    ``check``/``is_legal`` surface, same ``last_cost`` observability
    hook, identical reports.

    Parameters
    ----------
    structure_schema:
        The ``(Cr, Er, Ef)`` component of the bounding-schema; compiled
        to Figure 4 checks once.
    """

    def __init__(self, structure_schema: StructureSchema) -> None:
        self.structure_schema = structure_schema
        self.checks: List[TranslatedCheck] = [
            translate_element(element) for element in structure_schema.elements()
        ]
        #: Evaluator work (entries touched) of the most recent call.
        self.last_cost = 0
        #: Elements answered by the combined bitmask pass.
        self.last_batched = 0
        #: Whole-forest flag sweeps performed (at most 2 per call).
        self.last_flag_passes = 0

    # ------------------------------------------------------------------
    # checking
    # ------------------------------------------------------------------
    def check(self, instance: DirectoryInstance) -> LegalityReport:
        """Evaluate the whole check set; collect violations in element
        order (report-identical to ``QueryStructureChecker.check``)."""
        verdicts = self._verdicts(instance)
        return self._assemble(instance, verdicts)

    def is_legal(self, instance: DirectoryInstance) -> bool:
        """Yes/no structure verdict."""
        verdicts = self._verdicts(instance)
        for check, verdict in zip(self.checks, verdicts):
            if check.legal_when_empty:
                if verdict:
                    return False
            elif not verdict:
                return False
        return True

    # ------------------------------------------------------------------
    # evaluation pipeline
    # ------------------------------------------------------------------
    def _verdicts(self, instance: DirectoryInstance) -> List[_Verdict]:
        self.last_cost = 0
        self.last_batched = 0
        self.last_flag_passes = 0

        # A check leaves its instance numbered: the searches after it
        # plan on the interval numbering.
        instance.ensure_numbered()

        verdicts: List[Optional[_Verdict]] = [None] * len(self.checks)
        batched: List[Tuple[int, Union[RequiredEdge, ForbiddenEdge]]] = []
        queried: List[int] = []
        for index, check in enumerate(self.checks):
            element = check.element
            if isinstance(element, RequiredClass):
                # O(1) via the per-class index — no query needed.
                self.last_cost += 1
                verdicts[index] = instance.class_count(element.object_class) > 0
            elif self._would_flag_pass(instance, element):
                batched.append((index, element))
            else:
                queried.append(index)
        if batched:
            self._evaluate_batched(instance, batched, verdicts)
        if queried:
            self._evaluate_queries(instance, queried, verdicts)
        final: List[_Verdict] = []
        for verdict in verdicts:  # all checks answered; keep alignment
            assert verdict is not None
            final.append(verdict)
        return final

    # ------------------------------------------------------------------
    # layer 1: batched flag propagation
    # ------------------------------------------------------------------
    def _would_flag_pass(
        self, instance: DirectoryInstance, element: object
    ) -> bool:
        """Mirror of the adaptive evaluator's strategy choice for a
        Figure 4 query: true iff evaluating this element alone would
        sweep the whole forest with a flag pass."""
        if not isinstance(element, (RequiredEdge, ForbiddenEdge)):
            return False
        if element.axis not in (Axis.DESCENDANT, Axis.ANCESTOR):
            return False
        n_source = instance.class_count(element.source)
        n_target = instance.class_count(element.target)
        if n_source == 0 or n_target == 0:
            return False  # the evaluator short-circuits on an empty side
        if prefers_semi_join(n_source, n_target):
            return False
        if prefers_semi_join(n_target, n_source) and element.axis is Axis.DESCENDANT:
            return False
        if element.axis is Axis.DESCENDANT:
            return descendant_prefers_flags(n_source, n_target, len(instance))
        return ancestor_prefers_flags(
            n_source, instance.max_depth(), len(instance)
        )

    def _evaluate_batched(
        self,
        instance: DirectoryInstance,
        batched: List[Tuple[int, Union[RequiredEdge, ForbiddenEdge]]],
        verdicts: List[Optional[_Verdict]],
    ) -> None:
        """Answer every flag-bound check with (at most) one reverse and
        one forward pass, carrying one bit per tracked target class."""
        bits: Dict[str, int] = {}
        for _, element in batched:
            bits.setdefault(element.target, 1 << len(bits))

        # Per-entry class masks for the tracked targets only: cost is
        # the total member count, not |D| * |classes|.
        entry_mask: Dict[int, int] = {}
        for name, bit in bits.items():
            members = instance.entries_with_class(name)
            self.last_cost += len(members)
            for eid in members:
                entry_mask[eid] = entry_mask.get(eid, 0) | bit

        order = instance.entry_ids()
        below: Dict[int, int] = {}
        above: Dict[int, int] = {}
        if any(e.axis is Axis.DESCENDANT for _, e in batched):
            # Reverse document order visits children before parents:
            # below[eid] = bits of classes with a member strictly below.
            children_ids = instance.children_ids
            for eid in reversed(order):
                mask = 0
                for child in children_ids(eid):
                    mask |= below[child] | entry_mask.get(child, 0)
                below[eid] = mask
            self.last_cost += len(order)
            self.last_flag_passes += 1
        if any(e.axis is Axis.ANCESTOR for _, e in batched):
            # Forward pass: above[eid] = bits strictly above eid.
            parent_id = instance.parent_id
            for eid in order:
                parent = parent_id(eid)
                above[eid] = (
                    0
                    if parent is None
                    else above[parent] | entry_mask.get(parent, 0)
                )
            self.last_cost += len(order)
            self.last_flag_passes += 1

        for index, element in batched:
            bit = bits[element.target]
            masks = below if element.axis is Axis.DESCENDANT else above
            sources = instance.entries_with_class(element.source)
            self.last_cost += len(sources)
            if isinstance(element, RequiredEdge):
                witnesses = frozenset(
                    eid for eid in sources if not masks[eid] & bit
                )
            else:
                witnesses = frozenset(eid for eid in sources if masks[eid] & bit)
            verdicts[index] = witnesses
            self.last_batched += 1

    # ------------------------------------------------------------------
    # layer 2: per-query evaluation
    # ------------------------------------------------------------------
    def _evaluate_queries(
        self,
        instance: DirectoryInstance,
        indexes: List[int],
        verdicts: List[Optional[_Verdict]],
    ) -> None:
        """Evaluate the non-batched checks, one Figure 4 query each."""
        evaluator = QueryEvaluator(instance)
        for index in indexes:
            verdicts[index] = frozenset(
                evaluator.evaluate(self.checks[index].query)
            )
        self.last_cost += evaluator.cost

    # ------------------------------------------------------------------
    # report assembly (element order — deterministic merge)
    # ------------------------------------------------------------------
    def _assemble(
        self, instance: DirectoryInstance, verdicts: List[_Verdict]
    ) -> LegalityReport:
        report = LegalityReport()
        for check, verdict in zip(self.checks, verdicts):
            element = check.element
            if check.legal_when_empty:
                if not verdict:
                    continue
                assert isinstance(verdict, frozenset)
                if isinstance(element, RequiredEdge):
                    report.extend(_required_violation(element, instance, verdict))
                else:
                    assert isinstance(element, ForbiddenEdge)
                    report.extend(_forbidden_violation(element, instance, verdict))
            elif not verdict:
                assert isinstance(element, RequiredClass)
                report.add(
                    Violation(
                        Kind.MISSING_REQUIRED_CLASS,
                        f"no entry belongs to required class "
                        f"{element.object_class!r}",
                        element=str(element),
                    )
                )
        return report
