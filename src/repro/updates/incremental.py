"""Incremental legality testing under subtree updates (Section 4.2).

:class:`IncrementalChecker` wraps a directory instance assumed legal
w.r.t. a schema and offers transactional subtree updates:

* :meth:`try_insert` grafts a subtree Δ, re-establishes legality by the
  Figure 5 insertion rules — content-check Δ in isolation plus one
  Δ-scoped query per structural relationship — and **rolls the graft
  back** if any check fails;
* :meth:`try_delete` prunes a subtree, applies the Figure 5 deletion
  rules — no work for required-parent/ancestor and forbidden forms, a
  full re-check only for required-child/descendant — plus the *counted*
  required-class test (the paper notes ``Cr`` becomes incrementally
  testable for deletion "if we had the ability to associate each ci with
  the number of entries that belong to ci"; our per-class index provides
  exactly those counts), and rolls back on failure;
* :meth:`apply_transaction` runs a whole Section 4.1 transaction through
  the Theorem 4.1 decomposition, checking each subtree step and rolling
  back *all* applied steps if any step fails.

Every method reports the machine-independent work counter
(:attr:`UpdateOutcome.cost`) so the FIG5 benchmark can compare
incremental cost against full re-checking without timing noise.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import UpdateError
from repro.model.dn import DN
from repro.model.instance import DirectoryInstance
from repro.legality.engine import CheckSession
from repro.legality.metrics import CheckStats
from repro.legality.report import Kind, LegalityReport, Violation
from repro.query.ast import SCOPE_DELTA, SCOPE_EMPTY, SCOPE_NEW, SCOPE_OLD, Query
from repro.query.evaluator import QueryEvaluator
from repro.query.translate import translate_element  # noqa: F401 (used in try_modify)
from repro.schema.directory_schema import DirectorySchema
from repro.schema.elements import ForbiddenEdge, RequiredEdge, SchemaElement
from repro.updates.operations import UpdateTransaction
from repro.updates.table import build_delta_query, rule_for
from repro.updates.transactions import SubtreeUpdate, decompose

__all__ = ["UpdateOutcome", "IncrementalChecker"]


class _Without(AbstractSet):
    """``universe − excluded`` (``excluded ⊆ universe``) as a read-only
    set that holds no copy of either operand."""

    def __init__(self, universe: AbstractSet, excluded: AbstractSet) -> None:
        self._universe = universe
        self._excluded = excluded

    def __contains__(self, item: object) -> bool:
        return item in self._universe and item not in self._excluded

    def __iter__(self) -> Iterator[int]:
        excluded = self._excluded
        return (item for item in self._universe if item not in excluded)

    def __len__(self) -> int:
        return len(self._universe) - len(self._excluded)

    @classmethod
    def _from_iterable(cls, iterable) -> Set[int]:
        return set(iterable)  # what ``&``, ``|`` and ``-`` produce


@dataclass
class UpdateOutcome:
    """Result of one attempted update.

    Attributes
    ----------
    report:
        The violations that would have arisen (empty when applied).
    cost:
        Entries touched by the incremental checks — the work measure the
        FIG5 benchmark compares against full re-checking.
    checks:
        Human-readable descriptions of the checks that actually ran
        (skip rows are recorded as ``"skip: ..."``).
    stats:
        Per-transaction :class:`~repro.legality.metrics.CheckStats`
        delta, attached by :meth:`repro.store.journal.DirectoryStore.apply`
        (``None`` for outcomes produced outside a store commit).
    """

    report: LegalityReport = field(default_factory=LegalityReport)
    cost: int = 0
    checks: List[str] = field(default_factory=list)
    stats: Optional["CheckStats"] = None

    @property
    def applied(self) -> bool:
        """Whether the update was kept (no violations)."""
        return self.report.is_legal


class IncrementalChecker:
    """Maintains a legal instance under subtree updates.

    Parameters
    ----------
    schema:
        The bounding-schema; its structure elements are compiled to
        Δ-queries once at construction.
    instance:
        The instance to guard.  Unless ``assume_legal`` is true it is
        fully checked once up front.
    session:
        An optional :class:`~repro.legality.engine.CheckSession` to
        route per-entry content checks through.  The checker feeds every
        Δ it vets into the session's fingerprint cache, so a subsequent
        :meth:`recheck` re-runs content checks only on content the
        session has not seen — cost O(|Δ|), not O(|D|).  When ``None``
        a private sequential session is created.
    """

    def __init__(
        self,
        schema: DirectorySchema,
        instance: DirectoryInstance,
        assume_legal: bool = False,
        session: Optional[CheckSession] = None,
    ) -> None:
        self.schema = schema
        self.instance = instance
        self.session = session if session is not None else CheckSession(schema)
        self.relationships = schema.structure_schema.relationship_elements()
        # Figure 5, compiled once: one (element, Δ-query) row per
        # relationship and update kind.  A delete row whose query is
        # ``None`` is a ∅-scoped row (no check); ``countable`` marks the
        # non-incremental rows the class-count index can short-circuit.
        self._insert_rows: List[Tuple[SchemaElement, Query]] = []
        self._delete_rows: List[Tuple[SchemaElement, Optional[Query], bool]] = []
        for element in self.relationships:
            query = build_delta_query(element, "insert")
            assert query is not None  # every insert row is incremental
            self._insert_rows.append((element, query))
            self._delete_rows.append((
                element,
                build_delta_query(element, "delete"),
                rule_for(element, "delete").needs_full_recheck
                and isinstance(element, RequiredEdge),
            ))
        #: What ``try_insert`` records for the insert rows it ran.
        self._insert_checks = [
            f"Δ-query for {element}: {query}" for element, query in self._insert_rows
        ]
        if not assume_legal:
            # The baseline is the session's full pass: it both vets the
            # starting instance and warms the fingerprint cache, so the
            # first incremental step already re-checks only its Δ.
            baseline = self.session.check(instance)
            if not baseline.is_legal:
                raise UpdateError(
                    "instance is not legal to begin with:\n" + str(baseline)
                )

    # ------------------------------------------------------------------
    # insertions
    # ------------------------------------------------------------------
    def try_insert(
        self,
        parent: Optional[Union[DN, str]],
        delta: DirectoryInstance,
    ) -> UpdateOutcome:
        """Graft ``delta`` under ``parent`` if that preserves legality.

        On violation the graft is rolled back and the outcome's report
        explains why.
        """
        outcome = UpdateOutcome()

        # Content schema: Δ checked in isolation suffices (Section 4.2).
        # Going through the session memoizes the verdicts: Δ's
        # fingerprints stay valid after the graft (fingerprints are
        # position-independent), so later session re-checks skip Δ.
        for entry in delta:
            outcome.report.extend(self.session.check_entry(entry))
        outcome.cost += len(delta)
        outcome.checks.append(f"content check of Δ ({len(delta)} entries)")
        if not outcome.report.is_legal:
            return outcome

        parent_key = None if parent is None else str(parent)
        created = self.instance.insert_subtree(parent_key, delta)
        delta_ids: Set[int] = {entry.eid for entry in created}
        evaluator = self._delta_evaluator(delta_ids)

        self._check_insert_rows(evaluator, outcome)
        outcome.checks.extend(self._insert_checks)
        outcome.cost += evaluator.cost
        self.session.stats.queries_evaluated += evaluator.cost
        # Required classes: insertion can only help (no check, Section 4).
        outcome.checks.append("skip: required classes cannot be violated by insertion")

        if not outcome.report.is_legal:
            # Roll back: prune each grafted root.
            for root in self._delta_roots(created, delta_ids):
                self.instance.delete_subtree(root)
        return outcome

    # ------------------------------------------------------------------
    # deletions
    # ------------------------------------------------------------------
    def try_delete(self, root: Union[DN, str]) -> UpdateOutcome:
        """Prune the subtree at ``root`` if that preserves legality.

        On violation the subtree is re-inserted where it was.
        """
        outcome = UpdateOutcome()
        root_entry = self.instance.entry(str(root) if isinstance(root, DN) else root)
        parent = self.instance.parent_of(root_entry)
        parent_dn = None if parent is None else str(parent.dn)
        removed = self.instance.delete_subtree(root_entry)
        outcome.cost += len(removed)
        outcome.checks.append("content: deletion cannot violate the content schema")

        evaluator = QueryEvaluator(self.instance)
        outcome.checks.extend(self._check_delete_rows(evaluator, outcome))
        outcome.cost += evaluator.cost
        self.session.stats.queries_evaluated += evaluator.cost

        # Counted required-class test (end of Section 4).
        for name in sorted(self.schema.structure_schema.required_classes):
            outcome.cost += 1
            if self.instance.class_count(name) == 0:
                outcome.report.add(
                    Violation(
                        Kind.MISSING_REQUIRED_CLASS,
                        f"deleting the subtree removes the last entry of "
                        f"required class {name!r}",
                        element=f"{name} □",
                    )
                )
        outcome.checks.append("counted required-class test")

        if not outcome.report.is_legal:
            self.instance.insert_subtree(parent_dn, removed)
        return outcome

    # ------------------------------------------------------------------
    # move / rename (LDAP modrdn, expressed through Theorem 4.1)
    # ------------------------------------------------------------------
    def try_move(
        self,
        target: Union[DN, str],
        new_parent: Optional[Union[DN, str]] = None,
        new_rdn: Optional[str] = None,
    ) -> UpdateOutcome:
        """Move and/or rename a subtree, preserving legality.

        LDAP's ``modrdn``/``moddn`` operation is, in the paper's terms,
        a subtree deletion followed by a subtree insertion of the same
        content (Theorem 4.1 grants the decomposition) — except that the
        *intermediate* state need not be legal: the paper's modularity
        argument applies to the transaction as a whole, so this method
        checks the final state.  Mechanically: prune, optionally rename
        the root, graft at the destination, then run the Figure 5
        insertion checks for the grafted subtree *plus* the deletion
        checks for the vacated position — and roll the whole move back
        on any violation.

        Raises
        ------
        UpdateError
            If the destination lies inside the moved subtree.
        """
        outcome = UpdateOutcome()
        entry = self.instance.entry(str(target) if isinstance(target, DN) else target)
        old_parent = self.instance.parent_of(entry)
        old_parent_dn = None if old_parent is None else str(old_parent.dn)
        destination = (
            old_parent_dn
            if new_parent is None
            else (str(new_parent) if isinstance(new_parent, DN) else new_parent)
        )
        if destination is not None:
            dest_entry = self.instance.find(destination)
            if dest_entry is None:
                raise UpdateError(f"destination {destination!r} does not exist")
            if dest_entry.eid == entry.eid or self.instance.is_ancestor(
                entry, dest_entry
            ):
                raise UpdateError(
                    "destination lies inside the moved subtree"
                )

        removed = self.instance.delete_subtree(entry)
        if new_rdn is not None:
            from repro.model.dn import parse_rdn

            removed.roots()[0].rdn = parse_rdn(new_rdn)
        try:
            created = self.instance.insert_subtree(destination, removed)
        except Exception as exc:
            # e.g. duplicate DN at the destination: restore and report
            self.instance.insert_subtree(old_parent_dn, removed)
            raise UpdateError(f"move failed: {exc}") from exc

        # Insertion-side checks (content is unchanged by construction,
        # but the rename may matter to nothing; structure does).
        delta_ids = {e.eid for e in created}
        evaluator = self._delta_evaluator(delta_ids)
        self._check_insert_rows(evaluator, outcome)
        # Deletion-side checks for the vacated position: required
        # child/descendant elements may have lost their witness.
        self._check_delete_rows(evaluator, outcome, moved=delta_ids)
        outcome.cost += evaluator.cost
        self.session.stats.queries_evaluated += evaluator.cost
        outcome.checks.append(
            "move: Figure 5 insertion checks at the destination plus "
            "deletion checks for the vacated position"
        )

        if not outcome.report.is_legal:
            # Roll back: prune from destination, restore at the origin.
            restored = self.instance.delete_subtree(created[0])
            if new_rdn is not None:
                restored.roots()[0].rdn = entry.rdn
            self.instance.insert_subtree(old_parent_dn, restored)
        return outcome

    # ------------------------------------------------------------------
    # modification (an extension beyond Figure 5 — see DESIGN.md §7)
    # ------------------------------------------------------------------
    def try_modify(
        self,
        target: Union[DN, str],
        add_classes: Sequence[str] = (),
        remove_classes: Sequence[str] = (),
        replace_attributes: Optional[dict] = None,
    ) -> UpdateOutcome:
        """Modify one entry in place, incrementally re-checking legality;
        rolls the modification back on violation.

        The paper's update model covers entry insertion/deletion only;
        the incremental rules here are derived the same way Figure 5's
        rows are:

        * attribute changes → re-run the per-entry *content* check only
          (content legality is per-entry, Section 3.1);
        * **added** classes → the entry is the only possible new violator
          of required edges sourced at those classes, and the only new
          endpoint of forbidden pairs — all checkable with Δ = {entry};
        * **removed** classes → other entries may have relied on this
          entry as their required relative, so every required edge whose
          *target* involves a removed class is re-checked in full (the
          analogue of Figure 5's non-incremental deletion rows), plus
          the counted required-class test.
        """
        outcome = UpdateOutcome()
        entry = self.instance.entry(str(target) if isinstance(target, DN) else target)

        # Snapshot for rollback.
        old_classes = set(entry.classes)
        old_attributes = {
            name: list(entry.values(name))
            for name in entry.attribute_names()
            if name != "objectClass"
        }

        def rollback() -> None:
            for name in list(entry.attribute_names()):
                if name != "objectClass":
                    entry.replace_values(name, old_attributes.get(name, []))
            for name, values in old_attributes.items():
                if not entry.has_attribute(name):
                    entry.replace_values(name, values)
            for cls in list(entry.classes - old_classes):
                entry.remove_class(cls)
            for cls in old_classes - entry.classes:
                entry.add_class(cls)

        # Apply.
        for cls in add_classes:
            entry.add_class(cls)
        for cls in remove_classes:
            entry.remove_class(cls)
        for name, values in (replace_attributes or {}).items():
            entry.replace_values(name, values)

        # Content: per-entry, always sufficient (Section 3.1); memoized
        # through the session like every other content verdict.
        outcome.report.extend(self.session.check_entry(entry))
        outcome.cost += 1
        outcome.checks.append("content check of the modified entry")

        added = set(add_classes) - old_classes
        removed = set(remove_classes) & old_classes
        delta_ids = {entry.eid}
        evaluator = self._delta_evaluator(delta_ids)

        if outcome.report.is_legal and (added or removed):
            from repro.query.translate import class_selection
            from repro.query.ast import HSelect, Minus

            for element in self.relationships:
                if isinstance(element, RequiredEdge):
                    if element.source in added:
                        # only the modified entry can newly violate
                        source = class_selection(element.source).scoped(SCOPE_DELTA)
                        target_sel = class_selection(element.target).scoped(SCOPE_NEW)
                        query = Minus(source, HSelect(element.axis, source, target_sel))
                        offenders = evaluator.evaluate(query)
                        outcome.checks.append(
                            f"Δ-check for {element} (class added): {query}"
                        )
                        if offenders:
                            self._report_structural(outcome.report, element, offenders)
                    if element.target in removed:
                        # others may have relied on this entry: full pass
                        check = translate_element(element)
                        offenders = evaluator.evaluate(check.query)
                        outcome.checks.append(
                            f"full re-check for {element} (target class removed)"
                        )
                        if offenders:
                            self._report_structural(outcome.report, element, offenders)
                else:
                    assert isinstance(element, ForbiddenEdge)
                    if element.source in added:
                        query = HSelect(
                            element.axis,
                            class_selection(element.source).scoped(SCOPE_DELTA),
                            class_selection(element.target).scoped(SCOPE_NEW),
                        )
                        offenders = evaluator.evaluate(query)
                        outcome.checks.append(
                            f"Δ-check for {element} (source class added)"
                        )
                        if offenders:
                            self._report_structural(outcome.report, element, offenders)
                    if element.target in added:
                        query = HSelect(
                            element.axis,
                            class_selection(element.source).scoped(SCOPE_NEW),
                            class_selection(element.target).scoped(SCOPE_DELTA),
                        )
                        offenders = evaluator.evaluate(query)
                        outcome.checks.append(
                            f"Δ-check for {element} (target class added)"
                        )
                        if offenders:
                            self._report_structural(outcome.report, element, offenders)
            outcome.cost += evaluator.cost
            self.session.stats.queries_evaluated += evaluator.cost
            # Counted required-class test for removals.
            for name in sorted(self.schema.structure_schema.required_classes):
                if name in removed and self.instance.class_count(name) == 0:
                    outcome.report.add(
                        Violation(
                            Kind.MISSING_REQUIRED_CLASS,
                            f"modification removes the last entry of "
                            f"required class {name!r}",
                            element=f"{name} □",
                        )
                    )
            outcome.checks.append("counted required-class test")

        if not outcome.report.is_legal:
            rollback()
        return outcome

    # ------------------------------------------------------------------
    # transactions (Theorem 4.1)
    # ------------------------------------------------------------------
    def apply_transaction(self, transaction: UpdateTransaction) -> UpdateOutcome:
        """Run a whole transaction: decompose into subtree updates
        (insertions first, then deletions), check each step, and roll
        back every applied step if any step fails."""
        outcome = UpdateOutcome()
        steps = decompose(transaction, self.instance)
        undo: List[SubtreeUpdate] = []
        try:
            return self._apply_steps(steps, undo, outcome)
        except Exception:
            # A step *raised* (rather than reporting a violation):
            # without this rollback the earlier steps would stay
            # applied, leaving the instance in a state no committed
            # transaction ever produced.
            self._undo(undo)
            raise

    def _apply_steps(
        self,
        steps: List[SubtreeUpdate],
        undo: List[SubtreeUpdate],
        outcome: UpdateOutcome,
    ) -> UpdateOutcome:
        for step in steps:
            if step.kind == "insert":
                assert step.subtree is not None
                parent = None if step.parent_dn is None else str(step.parent_dn)
                step_outcome = self.try_insert(parent, step.subtree)
                if step_outcome.applied:
                    root_dns = [
                        step.subtree.dn_of(r) for r in step.subtree.root_ids()
                    ]
                    base = step.parent_dn
                    for dn in root_dns:
                        full = DN(dn.rdns + (base.rdns if base else ()))
                        undo.append(SubtreeUpdate("delete", root_dn=full))
            else:
                assert step.root_dn is not None
                entry = self.instance.entry(str(step.root_dn))
                parent = self.instance.parent_of(entry)
                parent_dn = None if parent is None else parent.dn
                snapshot = self.instance.extract_subtree(entry)
                step_outcome = self.try_delete(step.root_dn)
                if step_outcome.applied:
                    undo.append(
                        SubtreeUpdate(
                            "insert", parent_dn=parent_dn, subtree=snapshot
                        )
                    )
            outcome.cost += step_outcome.cost
            outcome.checks.extend(f"[{step}] {c}" for c in step_outcome.checks)
            if not step_outcome.applied:
                outcome.report.extend(step_outcome.report.violations)
                self._undo(undo)
                return outcome
        return outcome

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _undo(self, undo: List[SubtreeUpdate]) -> None:
        for step in reversed(undo):
            if step.kind == "delete":
                assert step.root_dn is not None
                self.instance.delete_subtree(str(step.root_dn))
            else:
                assert step.subtree is not None
                parent = None if step.parent_dn is None else str(step.parent_dn)
                self.instance.insert_subtree(parent, step.subtree)

    def _check_insert_rows(
        self, evaluator: QueryEvaluator, outcome: UpdateOutcome
    ) -> None:
        """Evaluate every Figure 5 insertion row, reporting offenders
        into ``outcome``."""
        for element, query in self._insert_rows:
            offenders = evaluator.evaluate(query)
            if offenders:
                self._report_structural(outcome.report, element, offenders)

    def _check_delete_rows(
        self,
        evaluator: QueryEvaluator,
        outcome: UpdateOutcome,
        moved: AbstractSet = frozenset(),
    ) -> List[str]:
        """Evaluate every Figure 5 deletion row on the updated instance,
        reporting offenders into ``outcome``; returns the descriptions
        of the checks run.  ``moved`` are entries that left the vacated
        position but are still in the instance (a move's Δ): they cannot
        have lost a witness there."""
        checks = []
        for element, query, countable in self._delete_rows:
            if query is None:
                checks.append(f"skip: {element} (∅-scoped row)")
                continue
            # ROADMAP short-circuit for the non-incremental rows: a
            # required child/descendant element is vacuously satisfied
            # when no source-class entry remains, and the class-count
            # index answers that in O(1) — no full re-check needed.
            if countable and self.instance.class_count(element.source) == 0:
                outcome.cost += 1
                checks.append(
                    f"skip: {element} (class-count short-circuit: no "
                    f"{element.source!r} entries remain)"
                )
                continue
            offenders = evaluator.evaluate(query)
            if moved:
                offenders = (offenders - moved) & self.instance.entry_id_view()
            checks.append(f"full re-check for {element} on D−Δ")
            if offenders:
                self._report_structural(outcome.report, element, offenders)
        return checks

    def _delta_evaluator(self, delta_ids: Set[int]) -> QueryEvaluator:
        """An evaluator over the updated instance with Figure 5's four
        scopes bound.  ``D + Δ`` and ``D`` are views, never copies:
        binding them costs O(1), not O(|D|)."""
        everything = self.instance.entry_id_view()
        return QueryEvaluator(
            self.instance,
            {
                SCOPE_DELTA: delta_ids,
                SCOPE_NEW: everything,
                SCOPE_OLD: _Without(everything, delta_ids),
                SCOPE_EMPTY: set(),
            },
        )

    def _delta_roots(self, created, delta_ids: Set[int]):
        roots = []
        for entry in created:
            parent = self.instance.parent_id(entry.eid)
            if parent is None or parent not in delta_ids:
                roots.append(entry.eid)
        return roots

    def _report_structural(
        self, report: LegalityReport, element, offenders: Set[int]
    ) -> None:
        kind = (
            Kind.REQUIRED_RELATIONSHIP
            if isinstance(element, RequiredEdge)
            else Kind.FORBIDDEN_RELATIONSHIP
        )
        assert isinstance(element, (RequiredEdge, ForbiddenEdge))
        for eid in sorted(offenders)[:5]:
            report.add(
                Violation(
                    kind,
                    f"update violates {element}",
                    dn=str(self.instance.dn_of(eid)),
                    element=str(element),
                )
            )
        if len(offenders) > 5:
            report.add(
                Violation(
                    kind,
                    f"... and {len(offenders) - 5} more entries violate {element}",
                    element=str(element),
                )
            )

    # ------------------------------------------------------------------
    # comparison baseline
    # ------------------------------------------------------------------
    def full_recheck(self) -> LegalityReport:
        """Non-incremental full legality check of the current instance —
        the *cold* baseline the FIG5 benchmark compares against: a
        fresh session, so nothing this checker's session has memoized
        is reused."""
        return CheckSession(self.schema).check(self.instance)

    def recheck(self) -> LegalityReport:
        """Warm full re-check through the session.

        Content verdicts for every entry whose fingerprint the session
        has already seen — the whole instance minus the dirty set — come
        from the cache, so the content work is O(|Δ|).  The returned
        report carries the session's :class:`CheckStats` for this call
        under ``report.stats`` (``entries_checked`` is the dirty-set
        size the benchmark gates assert on).
        """
        return self.session.check(self.instance)
