"""Figure 5 as executable data: Δ-query expressions per relationship form.

Figure 5 of the paper lists, for each of the six structural-relationship
forms and each update kind (subtree insertion / subtree deletion):

* whether the form is *incrementally testable* (Theorem 4.2), and
* the Δ-query — the Figure 4 query with each sub-expression re-scoped to
  one of ``∅``, ``Δ``, ``D``, or the updated instance.

This module encodes that table row by row.  The tests assert the table
against the paper (test_fig5_table) and against semantics: for every row,
the Δ-query verdict on a legal ``D`` equals the full re-check verdict.

Row derivations (insertions of a subtree ``Δ`` into a legal ``D``):

``ci → cj``   (required child)
    Existing entries only *gain* children, so only Δ-entries can violate;
    a Δ-entry's children all lie inside Δ.  Query: all three
    sub-expressions scoped to ``Δ``.
``cj ← ci``   (required parent)
    Only Δ-entries can violate; the Δ-roots' parents live in ``D``, so
    the inner parent test runs on ``D + Δ``.
``ci →→ cj``  (required descendant)
    As required child — a Δ-entry's descendants all lie inside Δ
    (this is the ``Q1`` example worked in Section 4.2).
``cj ←← ci``  (required ancestor)
    As required parent — ancestors of Δ-entries span ``D + Δ``.
``ci ↛ cj``   (forbidden child)
    Every *new* (parent, child) pair has its child in Δ; the parent may
    be the attachment point in ``D``.  Query: ``(c (oc=ci)[D+Δ]
    (oc=cj)[Δ])``.
``ci ↛↛ cj``  (forbidden descendant)
    Same with the descendant axis.

Deletions of a subtree ``Δ`` from a legal ``D``:

``ci → cj``, ``ci →→ cj``
    *Not incrementally testable* by a Δ-query: removing a subtree can
    remove a remaining entry's last required child/descendant, and no
    scoping of the Figure 4 query names those entries.  The row's plan
    is that query on all of ``D - Δ`` (``full``), and a bare instance
    runs exactly that.  A checker that can walk the tree needs less:
    only the pruned root's parent (child axis) or its ancestors
    (descendant axis) can have lost their last ``cj`` relative.  On an
    instance that carries :class:`~repro.model.pathcounts.PathCounts`
    for ``cj``, the incremental checker answers the row with one count
    lookup per entry on that path (:func:`path_answerable`; the proof
    sketch is in DESIGN.md §6, "Deletions judged on the ancestor path").
``cj ← ci``, ``cj ←← ci``
    No check (``∅`` scopes): a deleted subtree contains all of its own
    descendants, so no surviving entry loses a parent or ancestor.
``ci ↛ cj``, ``ci ↛↛ cj``
    No check: deletion never creates pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Literal, Optional, Tuple

from repro.axes import Axis
from repro.query.ast import (
    SCOPE_DELTA,
    SCOPE_EMPTY,
    SCOPE_NEW,
    HSelect,
    Minus,
    Query,
)
from repro.query.translate import class_selection
from repro.schema.elements import ForbiddenEdge, RequiredEdge, SchemaElement

__all__ = [
    "DeltaRule",
    "DELTA_TABLE",
    "rule_for",
    "build_delta_query",
    "MODIFY_TABLE",
    "build_modify_queries",
    "path_answerable",
]

Operation = Literal["insert", "delete"]

#: Scope plan: (outer-atom scope, inner-atom scope) for required edges,
#: (source scope, target scope) for forbidden edges.  ``None`` marks a
#: non-incremental row (full re-check on the updated instance) and
#: ``"skip"`` a row needing no check at all.
_SKIP = "skip"
_FULL = "full"


@dataclass(frozen=True)
class DeltaRule:
    """One row of Figure 5.

    Attributes
    ----------
    axis, forbidden:
        Identify the relationship form.
    operation:
        ``"insert"`` or ``"delete"``.
    incremental:
        The Theorem 4.2 verdict for this row.
    plan:
        ``"skip"`` (no check needed — the ``∅``-scoped rows),
        ``"full"`` (re-evaluate the Figure 4 query on the updated
        instance), or a pair of scope labels for the two atomic
        selections of the Δ-query.
    """

    axis: Axis
    forbidden: bool
    operation: Operation
    incremental: bool
    plan: object

    @property
    def needs_no_check(self) -> bool:
        """Whether this row's Δ-query is trivially empty (``∅`` scopes)."""
        return self.plan == _SKIP

    @property
    def needs_full_recheck(self) -> bool:
        """Whether this row falls back to evaluating on ``D ∓ Δ``."""
        return self.plan == _FULL


_ROWS: Tuple[DeltaRule, ...] = (
    # --- insertions: every form is incrementally testable -------------
    DeltaRule(Axis.CHILD, False, "insert", True, (SCOPE_DELTA, SCOPE_DELTA)),
    DeltaRule(Axis.PARENT, False, "insert", True, (SCOPE_DELTA, SCOPE_NEW)),
    DeltaRule(Axis.DESCENDANT, False, "insert", True, (SCOPE_DELTA, SCOPE_DELTA)),
    DeltaRule(Axis.ANCESTOR, False, "insert", True, (SCOPE_DELTA, SCOPE_NEW)),
    DeltaRule(Axis.CHILD, True, "insert", True, (SCOPE_NEW, SCOPE_DELTA)),
    DeltaRule(Axis.DESCENDANT, True, "insert", True, (SCOPE_NEW, SCOPE_DELTA)),
    # --- deletions -----------------------------------------------------
    DeltaRule(Axis.CHILD, False, "delete", False, _FULL),
    DeltaRule(Axis.PARENT, False, "delete", True, _SKIP),
    DeltaRule(Axis.DESCENDANT, False, "delete", False, _FULL),
    DeltaRule(Axis.ANCESTOR, False, "delete", True, _SKIP),
    DeltaRule(Axis.CHILD, True, "delete", True, _SKIP),
    DeltaRule(Axis.DESCENDANT, True, "delete", True, _SKIP),
)

#: Figure 5 indexed by (axis, forbidden, operation).
DELTA_TABLE: Dict[Tuple[Axis, bool, Operation], DeltaRule] = {
    (row.axis, row.forbidden, row.operation): row for row in _ROWS
}


def rule_for(element: SchemaElement, operation: Operation) -> DeltaRule:
    """The Figure 5 row governing ``element`` under ``operation``.

    Raises
    ------
    KeyError
        If ``element`` is not a structural-relationship element.
    """
    if isinstance(element, RequiredEdge):
        return DELTA_TABLE[(element.axis, False, operation)]
    if isinstance(element, ForbiddenEdge):
        return DELTA_TABLE[(element.axis, True, operation)]
    raise KeyError(f"{element} has no Figure 5 row")


def _plan_query(element: SchemaElement, plan: object) -> Optional[Query]:
    """The Figure 4 query of ``element`` under a row's ``plan``: ``None``
    for ``skip``, unscoped for ``full``, otherwise with the plan's two
    scopes on its atomic selections — (outer, inner) of a required
    edge's ``σ⁻``, (source, target) of a forbidden pair."""
    if plan == _SKIP:
        return None
    first, second = (None, None) if plan == _FULL else plan  # type: ignore[misc]
    source = class_selection(element.source).scoped(first)
    pair = HSelect(element.axis, source, class_selection(element.target).scoped(second))
    if isinstance(element, RequiredEdge):
        return Minus(source, pair)
    assert isinstance(element, ForbiddenEdge)
    return pair


def build_delta_query(element: SchemaElement, operation: Operation) -> Optional[Query]:
    """Build the scoped Δ-query for ``element`` under ``operation``.

    Returns ``None`` for ``skip`` rows (no check needed).  For ``full``
    rows, returns the plain Figure 4 query (to be evaluated on the
    updated instance).  Otherwise returns the Figure 4 query shape with
    the row's scopes attached to its atomic selections.
    """
    return _plan_query(element, rule_for(element, operation).plan)


def path_answerable(element: SchemaElement) -> bool:
    """Whether ``element``'s full rows — its Figure 5 deletion row, and
    the extension table's row for a lost target — can be answered on
    the path above the change instead: a required child or descendant
    element, whose offenders on a legal ``D`` are the changed entry's
    parent, resp. ancestors, that are left without a ``target``
    relative."""
    return isinstance(element, RequiredEdge) and element.axis.downward


def empty_scoped_query(element: SchemaElement) -> Query:
    """The ``∅``-scoped Δ-query of a ``skip`` row, for display/printing
    parity with Figure 5 (never worth evaluating)."""
    query = _plan_query(element, (SCOPE_EMPTY, SCOPE_EMPTY))
    assert query is not None
    return query


# ----------------------------------------------------------------------
# Extension table — NOT in the paper.  Figure 5 covers subtree insertion
# and deletion; a change to one entry's class set in place
# (``IncrementalChecker.try_modify``, DESIGN.md §7) gets its rows here,
# derived the same way with Δ = {the modified entry}.  A row is keyed by
# the relationship form, whether the entry *gained* or *lost* the class,
# and the role that class plays in the element — not by the axis: the
# entry's relatives all lie in ``D``, whichever way the axis points.
#
# required, added as source    only the entry can newly violate: outer
#                              on Δ, inner on the updated instance
# required, removed as target  others may have relied on the entry as
#                              their relative: full re-check (as for
#                              Figure 5's non-incremental deletions; for
#                              a child/descendant element, answered on
#                              the entry's parent/ancestors where the
#                              instance carries path counts)
# forbidden, added             the entry is the one new endpoint of a
#                              pair: its side on Δ
# anything else                no check: a new target or a lost source
#                              only helps a required edge, and removal
#                              never creates a forbidden pair
# ----------------------------------------------------------------------
ClassChange = Literal["added", "removed"]
Role = Literal["source", "target"]


#: The extension table: (forbidden, change, role) → plan, in
#: :class:`DeltaRule`'s ``plan`` vocabulary.
MODIFY_TABLE: Dict[Tuple[bool, ClassChange, Role], object] = {
    (False, "added", "source"): (SCOPE_DELTA, SCOPE_NEW),
    (False, "added", "target"): _SKIP,
    (False, "removed", "source"): _SKIP,
    (False, "removed", "target"): _FULL,
    (True, "added", "source"): (SCOPE_DELTA, SCOPE_NEW),
    (True, "added", "target"): (SCOPE_NEW, SCOPE_DELTA),
    (True, "removed", "source"): _SKIP,
    (True, "removed", "target"): _SKIP,
}


def build_modify_queries(
    element: SchemaElement,
) -> List[Tuple[ClassChange, str, str, Query]]:
    """The extension-table rows of ``element`` that need a check, each
    as ``(change, the class whose change triggers it, what to record in
    the outcome's checks, Δ-query)``."""
    rows = []
    for (forbidden, change, role), plan in MODIFY_TABLE.items():
        query = _plan_query(element, plan)
        if forbidden == isinstance(element, ForbiddenEdge) and query is not None:
            what = f"{element} ({role} class {change})"
            check = (
                f"full re-check for {what}" if plan == _FULL
                else f"Δ-check for {what}: {query}"
            )
            rows.append((change, getattr(element, role), check, query))
    return rows
