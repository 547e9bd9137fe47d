"""Incremental legality testing under subtree updates (Section 4.2).

:class:`IncrementalChecker` wraps a directory instance assumed legal
w.r.t. a schema.  Section 4 is one idea — apply Δ, evaluate the Figure 5
Δ-queries, keep the update iff they come back empty (Theorems 4.1/4.2) —
written once, in :meth:`IncrementalChecker._guarded`; a public method
only *describes* its change to that step:

* :meth:`try_insert` grafts a subtree Δ: content-check Δ in isolation,
  then the Figure 5 insertion rows, one Δ-scoped query each;
* :meth:`try_delete` prunes a subtree: the Figure 5 deletion rows plus
  the *counted* required-class test — ``Cr`` is incrementally testable
  for deletion "if we had the ability to associate each ci with the
  number of entries that belong to ci", and the per-class index has
  those counts.  Only the required-child/descendant rows evaluate at
  all: on a bare instance as the Figure 4 query over all of ``D − Δ``
  (the paper's full re-check), on an instance carrying
  :class:`~repro.model.pathcounts.PathCounts` (every store instance,
  :func:`attach_path_counts`) as one count lookup per entry on the path
  above the pruned root — the same offenders, in O(depth);
* :meth:`try_move` and :meth:`try_modify` (extensions) are judged by
  both row sets, resp. the extension table of :mod:`repro.updates.table`;
* :meth:`apply_transaction` runs a Section 4.1 transaction through the
  Theorem 4.1 decomposition, one guarded step per subtree.

A change that is rejected, or *raises* part-way, is taken back out by
the undo token its own application recorded.  Every method reports the
machine-independent work counter (:attr:`UpdateOutcome.cost`) so the FIG5
benchmark compares incremental cost to full re-checking without timing.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.axes import Axis
from repro.errors import ModelError, UpdateError
from repro.model.dn import DN, parse_rdn
from repro.model.entry import Entry
from repro.model.instance import DirectoryInstance
from repro.model.pathcounts import PathCounts
from repro.legality.engine import CheckSession
from repro.legality.metrics import CheckStats
from repro.legality.report import Kind, LegalityReport, Violation
from repro.query.ast import SCOPE_DELTA, SCOPE_EMPTY, SCOPE_NEW, SCOPE_OLD, Query
from repro.query.evaluator import QueryEvaluator
from repro.schema.directory_schema import DirectorySchema
from repro.schema.elements import ForbiddenEdge, RequiredEdge, SchemaElement
from repro.updates.operations import UpdateTransaction
from repro.updates.table import build_delta_query, build_modify_queries, path_answerable
from repro.updates.transactions import decompose

__all__ = ["UpdateOutcome", "IncrementalChecker", "FollowedVerdict", "attach_path_counts"]

#: The inverse of each primitive mutation a change made, oldest first —
#: recorded *while* it is applied, never computed from the pre-state, so
#: it undoes exactly what happened, half of a change that raised included.
UndoToken = List[Callable[[], None]]


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
    token:
        The :data:`UndoToken` of an applied change (spent once rejected,
        undone or made durable); no part of ``==`` or ``repr``.
    """

    report: LegalityReport = field(default_factory=LegalityReport)
    cost: int = 0
    checks: List[str] = field(default_factory=list)
    stats: Optional["CheckStats"] = None
    token: UndoToken = field(default_factory=list, compare=False, repr=False)

    @property
    def applied(self) -> bool:
        """Whether the update was kept (no violations)."""
        return self.report.is_legal

    def undo(self) -> None:
        """Take the change back out: run the token, newest step first,
        each at most once (a second call does nothing).  Only sound
        while the instance is still as the change left it."""
        while self.token:
            self.token.pop()()


@dataclass(frozen=True)
class _Row:
    """One table row, compiled for one schema element."""

    element: SchemaElement
    query: Optional[Query]  #: ``None``: a ∅-scoped row, nothing to evaluate
    check: str  #: what ``outcome.checks`` records for the row
    #: A Figure 5 deletion row that re-checks what a vacated position
    #: leaves behind (see its uses in ``_guarded``).
    vacated: bool = False
    #: A full row of a required child/descendant element: where the
    #: instance counts the element's target, its offenders are found on
    #: the path above the change instead (``_guarded``).
    path: bool = False


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
        route per-entry content checks through; its ``stats`` count the
        Δ entries checked.  When ``None`` a private session is created.
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
        # Figure 5 and the modification extension table, compiled once.
        # Every deletion row that evaluates at all is a full re-check,
        # and so is the extension row of a lost target (the only
        # removal row that evaluates); an extension row goes with the
        # class whose gain or loss triggers it.
        self._insert_rows: List[_Row] = []
        self._delete_rows: List[_Row] = []
        self._modify_rows: List[Tuple[str, str, _Row]] = []
        for element in self.relationships:
            query = build_delta_query(element, "insert")
            assert query is not None  # every insert row is incremental
            self._insert_rows.append(_Row(element, query, f"Δ-query for {element}: {query}"))
            query = build_delta_query(element, "delete")
            self._delete_rows.append(
                _Row(element, None, f"skip: {element} (∅-scoped row)")
                if query is None
                else _Row(
                    element, query, f"full re-check for {element} on D−Δ",
                    vacated=True, path=path_answerable(element),
                )
            )
            for change, trigger, check, query in build_modify_queries(element):
                path = change == "removed" and path_answerable(element)
                self._modify_rows.append((change, trigger, _Row(element, query, check, path=path)))
        if not assume_legal:
            # The baseline is the session's full pass.
            baseline = self.session.check(instance)
            if not baseline.is_legal:
                raise UpdateError(
                    "instance is not legal to begin with:\n" + str(baseline)
                )

    # ------------------------------------------------------------------
    # the one guarded step
    # ------------------------------------------------------------------
    def _guarded(
        self,
        outcome: UpdateOutcome,
        mutate: Callable[[UndoToken], AbstractSet],
        rows: Sequence[_Row] = (),
        lost: Optional[AbstractSet] = None,
        anchor: Optional[int] = None,
    ) -> UpdateOutcome:
        """Apply a change, judge it, keep it iff it is legal.

        ``mutate(token)`` changes the instance and returns Δ's entry
        ids.  It appends to ``token`` the inverse of each primitive
        mutation as it makes it (each is all-or-nothing by itself) and
        may report content violations of what it changed.  If there
        are none, ``rows`` — the table rows for this kind of change —
        are evaluated on the one Δ-evaluator, then the counted
        required-class test (end of Section 4) runs over ``lost``, the
        classes that may have lost members (``None``: none did).

        ``anchor`` is the parent of the entry the change pruned, moved
        away or re-classed (``None`` for a root, or no such entry): on a
        legal ``D`` a required child/descendant element can be newly
        violated only there, resp. there and above.  A ``path`` row
        whose target the instance counts is answered on that path, one
        count lookup per entry; the full query runs otherwise.

        The only rollback in this module, the same for a violation and
        an exception: the token runs, leaving the instance as found.
        """
        instance, checks = self.instance, outcome.checks
        counts = instance.path_counts
        kept = False
        try:
            delta_ids = mutate(outcome.token)
            if outcome.report.is_legal:
                evaluator = self._delta_evaluator(delta_ids)
                looked_up = 0
                for row in rows:
                    element = row.element
                    if row.query is None:
                        checks.append(row.check)
                        continue
                    # ROADMAP short-circuit for the non-incremental rows:
                    # a required child/descendant element is vacuously
                    # satisfied when no source-class entry remains, and
                    # the class-count index answers that in O(1).
                    if row.vacated and instance.class_count(element.source) == 0:
                        outcome.cost += 1
                        checks.append(
                            f"skip: {element} (class-count short-circuit: no "
                            f"{element.source!r} entries remain)"
                        )
                        continue
                    if (
                        row.path and counts is not None
                        and counts.tracks(element.axis, element.target)
                    ):
                        # A modified entry that gained the source class
                        # is a candidate too, as in the full query; a
                        # moved subtree is none (the insertion rows
                        # judge it).
                        path = self._path(element.axis, anchor, () if row.vacated else delta_ids)
                        looked_up += len(path)
                        offenders = {
                            entry.eid for entry in path
                            if entry.belongs_to(element.source)
                            and not counts.count(element.axis, element.target, entry.eid)
                        }
                        checks.append(
                            f"path check for {element}: {len(path)} count "
                            f"lookup(s) above the change"
                        )
                    else:
                        offenders = evaluator.evaluate(row.query)
                        if row.vacated and delta_ids:
                            # A move's Δ left the vacated position but not
                            # the instance: it cannot have lost a witness.
                            offenders = (offenders - delta_ids) & instance.entry_id_view()
                        checks.append(row.check)
                    if offenders:
                        self._report_structural(outcome.report, element, offenders)
                outcome.cost += evaluator.cost + looked_up
                self.session.stats.queries_evaluated += evaluator.cost + looked_up
                if lost is not None:
                    required = self.schema.structure_schema.required_classes
                    for name in sorted(required & lost):
                        if instance.class_count(name) == 0:
                            outcome.report.add(
                                Violation(
                                    Kind.MISSING_REQUIRED_CLASS,
                                    f"update removes the last entry of "
                                    f"required class {name!r}",
                                    element=f"{name} □",
                                )
                            )
                    checks.append("counted required-class test")
            kept = outcome.report.is_legal
        finally:
            if not kept:
                outcome.undo()
        return outcome

    def _graft(
        self, parent: Optional[Union[Entry, str]], delta: DirectoryInstance,
        token: UndoToken,
    ) -> Set[int]:
        """Graft ``delta`` under ``parent``; returns the created ids.
        Undone entry by entry, leaves first — nothing is copied."""
        instance = self.instance
        created = instance.insert_subtree(parent, delta)
        token.append(lambda: [instance.delete_entry(entry) for entry in reversed(created)])
        return {entry.eid for entry in created}

    def _prune(self, root: Entry, token: UndoToken) -> DirectoryInstance:
        """Prune the subtree at ``root`` and return it; undone by putting
        it back under its parent, at its place among the siblings."""
        instance = self.instance
        parent = instance.parent_of(root)
        siblings = instance.root_ids() if parent is None else instance.children_ids(parent)
        index = siblings.index(root.eid)
        removed = instance.delete_subtree(root)
        token.append(lambda: instance.restore_subtree(parent, removed, index))
        return removed

    # ------------------------------------------------------------------
    # the changes, each a description for the step
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
        for entry in delta:
            outcome.report.extend(self.session.check_entry(entry))
        outcome.cost += len(delta)
        outcome.checks.append(f"content check of Δ ({len(delta)} entries)")
        if not outcome.report.is_legal:
            return outcome

        parent_key = None if parent is None else str(parent)
        self._guarded(outcome, partial(self._graft, parent_key, delta), self._insert_rows)
        # Required classes: insertion can only help (no check, Section 4).
        outcome.checks.append("skip: required classes cannot be violated by insertion")
        return outcome

    def try_delete(self, root: Union[DN, str]) -> UpdateOutcome:
        """Prune the subtree at ``root`` if that preserves legality.

        On violation the subtree is put back where it was.
        """
        outcome = UpdateOutcome()
        root_entry = self.instance.entry(str(root) if isinstance(root, DN) else root)
        anchor = self.instance.parent_id(root_entry)
        required = self.schema.structure_schema.required_classes

        def prune(token: UndoToken) -> AbstractSet:
            removed = self._prune(root_entry, token)
            # the pruned entries, and one count lookup per required
            # class: any of them may have lost its last member
            outcome.cost += len(removed) + len(required)
            outcome.checks.append("content: deletion cannot violate the content schema")
            return frozenset()  # Δ has left the instance

        return self._guarded(outcome, prune, self._delete_rows, required, anchor)

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
        checks the final state, by the Figure 5 insertion rows for the
        grafted subtree *plus* the deletion rows for the vacated position.

        Raises
        ------
        UpdateError
            If the destination does not exist, lies inside the moved
            subtree, or already holds the DN; nothing has moved then.
        """
        outcome = UpdateOutcome()
        entry = self.instance.entry(str(target) if isinstance(target, DN) else target)
        rdn = None if new_rdn is None else parse_rdn(new_rdn)
        if new_parent is None:
            destination = self.instance.parent_of(entry)
        else:
            destination = self.instance.find(new_parent)
            if destination is None:
                raise UpdateError(f"destination {str(new_parent)!r} does not exist")
            if destination.eid == entry.eid or self.instance.is_ancestor(entry, destination):
                raise UpdateError("destination lies inside the moved subtree")

        def relocate(token: UndoToken) -> AbstractSet:
            removed = self._prune(entry, token)
            if rdn is not None:
                root = removed.roots()[0]
                token.append(partial(setattr, root, "rdn", root.rdn))
                root.rdn = rdn
            # Content is unchanged by construction; structure is not.
            return self._graft(destination, removed, token)

        anchor = self.instance.parent_id(entry)
        try:
            self._guarded(
                outcome, relocate, self._insert_rows + self._delete_rows, anchor=anchor
            )
        except ModelError as exc:
            # e.g. duplicate DN at the destination: already restored
            raise UpdateError(f"move failed: {exc}") from exc
        outcome.checks.append(
            "move: Figure 5 insertion checks at the destination plus "
            "deletion checks for the vacated position"
        )
        return outcome

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
        this is an extension (DESIGN.md §7).  Attribute changes re-run
        the per-entry *content* check, which is always sufficient
        (Section 3.1); class changes are additionally judged, with
        Δ = {the entry}, by the rows that
        :data:`repro.updates.table.MODIFY_TABLE` derives the way Figure 5
        derives its own, plus the counted required-class test.
        """
        outcome = UpdateOutcome()
        entry = self.instance.entry(str(target) if isinstance(target, DN) else target)
        changed = {
            "added": set(add_classes) - entry.classes,
            "removed": set(remove_classes) & entry.classes,
        }

        def rewrite(token: UndoToken) -> AbstractSet:
            for cls in add_classes:
                if not entry.belongs_to(cls):
                    entry.add_class(cls)
                    token.append(partial(entry.remove_class, cls))
            for cls in remove_classes:
                entry.remove_class(cls)
                token.append(partial(entry.add_class, cls))
            if replace_attributes:
                # a replaced attribute comes back last: restore the order
                token.append(partial(entry.reorder_attributes, entry.attribute_names()))
                for name, values in replace_attributes.items():
                    prior = entry.values(name)
                    entry.replace_values(name, values)
                    token.append(partial(entry.replace_values, name, prior))
            outcome.report.extend(self.session.check_entry(entry))
            outcome.cost += 1
            outcome.checks.append("content check of the modified entry")
            return {entry.eid}

        rows = [row for change, trigger, row in self._modify_rows if trigger in changed[change]]
        # No class gained or lost: content is all there is to judge.
        lost = changed["removed"] if any(changed.values()) else None
        return self._guarded(outcome, rewrite, rows, lost, self.instance.parent_id(entry))

    def apply_transaction(self, transaction: UpdateTransaction) -> UpdateOutcome:
        """Run a whole transaction: decompose into subtree updates
        (insertions first, then deletions), check each step, and roll
        back every applied step if any step fails or raises."""
        outcome = UpdateOutcome()

        def run(token: UndoToken) -> AbstractSet:
            # The transaction's token is its steps' tokens, in order.
            for step in decompose(transaction, self.instance):
                if step.kind == "insert":
                    assert step.subtree is not None
                    parent = None if step.parent_dn is None else str(step.parent_dn)
                    step_outcome = self.try_insert(parent, step.subtree)
                else:
                    assert step.root_dn is not None
                    step_outcome = self.try_delete(step.root_dn)
                token.extend(step_outcome.token)
                outcome.cost += step_outcome.cost
                outcome.checks.extend(f"[{step}] {c}" for c in step_outcome.checks)
                if not step_outcome.applied:
                    outcome.report.extend(step_outcome.report.violations)
                    break
            return frozenset()  # each step judged its own Δ

        return self._guarded(outcome, run)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _path(
        self, axis: Axis, anchor: Optional[int], extra: AbstractSet
    ) -> List[Entry]:
        """The entries whose count of an ``axis``-relative may have
        fallen: ``anchor``, and on the descendant axis its ancestors,
        after the entries of ``extra``."""
        instance = self.instance
        path = [instance.entry(eid) for eid in extra]
        if anchor is not None:
            path.append(instance.entry(anchor))
            if axis is Axis.DESCENDANT:
                path.extend(instance.ancestors_of(anchor))
        return path

    def _delta_evaluator(self, delta_ids: AbstractSet) -> QueryEvaluator:
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
        the baseline the FIG5 benchmark compares against.  It runs on a
        fresh session, so its counters stay off this checker's."""
        return CheckSession(self.schema).check(self.instance)


class FollowedVerdict:
    """Theorem 4.2 as a verdict: the legality of an instance whose every
    change, since a full pass found it legal, went through an
    :class:`IncrementalChecker` on :attr:`session`.  A reader's view and
    a store's writer both answer ``check()`` here.

    :meth:`check` is a full session pass until one finds the instance
    legal.  From then on the verdict *follows*: the report holds no
    content or structure violation, its ``stats`` are the Δ-check work
    the guard did since the previous report, and the Section 6.1
    extras, which are not incremental, run in full.  Whoever changes
    the instance without the guard — a blind replay, a rejected frame
    applied anyway, a rebuilt instance — calls :meth:`drop`, and the
    next check is a full pass again.
    """

    def __init__(self, session: CheckSession) -> None:
        self.session = session
        #: Whether the verdict follows (see above).
        self.holds = False
        #: ``check()`` calls answered by a full pass, and by the followed
        #: verdict: a legal history checked after every change shows
        #: ``full_checks == 1``.
        self.full_checks = 0
        self.followed_checks = 0
        #: Session stats as of the last report, so a followed report
        #: carries exactly the Δ-check work done since.
        self._reported = CheckStats()

    def check(self, instance: DirectoryInstance) -> LegalityReport:
        """The legality report of ``instance`` (see the class)."""
        session = self.session
        if self.holds:
            self.followed_checks += 1
            stats = session.stats.since(self._reported)
            report = LegalityReport(stats=stats)
            if session.extras is not None:
                with stats.timer("extras"):
                    report.extend(session.extras.check(instance).violations)
            stats.violations = len(report)
        else:
            self.full_checks += 1
            report = session.check(instance)
            self.holds = report.is_legal
        self._reported = session.stats.copy()
        return report

    def drop(self) -> None:
        """The instance changed without the guard: check it in full next."""
        self.holds = False


def attach_path_counts(instance: DirectoryInstance, schema: DirectorySchema) -> PathCounts:
    """Count, on ``instance``, the target class of every required child
    and descendant element of ``schema`` — what lets an
    :class:`IncrementalChecker` judge those elements' full rows on the
    path above a change (see :func:`repro.updates.table.path_answerable`).
    One pass over the instance; its mutators keep the counts from then
    on."""
    targets: dict = {Axis.CHILD: set(), Axis.DESCENDANT: set()}
    for element in schema.structure_schema.relationship_elements():
        if path_answerable(element):
            targets[element.axis].add(element.target)
    return PathCounts.attach(instance, targets[Axis.CHILD], targets[Axis.DESCENDANT])
