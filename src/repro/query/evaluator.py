"""Evaluation of hierarchical selection queries.

The evaluator realizes the efficiency contract of [9] that Theorem 3.1
builds on: every hierarchical selection query ``Q`` evaluates in
``O(|Q| * |D|)`` when entries are sorted.  Entries here are kept in
document (preorder) order with ``(pre, post)`` interval numbers, so each
hierarchical operator costs at most one linear pass:

* ``c`` (child):     result = outer ∩ parents(inner) — O(|outer| + |inner|).
* ``p`` (parent):    check each outer entry's parent — O(|outer|).
* ``d`` (descendant) and ``a`` (ancestor): either a single flag-propagation
  pass over the forest (O(|D|)), or — when both operand sets are small, as
  in the Δ-scoped queries of Figure 5 — an interval/bisect strategy whose
  cost depends only on the operand sizes, not on |D|.  The evaluator picks
  the cheaper strategy per node, which is what makes incremental legality
  checking (Section 4) asymptotically cheaper than re-checking.

Scope labels on AST nodes restrict which entries a sub-expression may
*select*; structural relationships are always judged in the full forest,
matching Figure 5 where e.g. ``(objectClass=c)[Δ]`` selects Δ-entries
inside the updated instance ``D + Δ``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import AbstractSet, Dict, Mapping, Optional, Set

from repro.axes import Axis
from repro.errors import QueryError
from repro.model.attributes import OBJECT_CLASS
from repro.model.instance import DirectoryInstance
from repro.query.ast import HSelect, Minus, Query, Select
from repro.query.filters import (
    FALSE_FILTER,
    And,
    Equals,
    Filter,
    Or,
    Present,
    Substring,
)

__all__ = [
    "QueryEvaluator",
    "FilterPlanner",
    "evaluate",
    "SEMIJOIN_FACTOR",
    "prefers_semi_join",
    "descendant_prefers_flags",
    "ancestor_prefers_flags",
]

#: A semi-join direction is taken when the probing side is at least this
#: many times smaller than the side it probes against.
SEMIJOIN_FACTOR = 8


def prefers_semi_join(probe_estimate: int, against_estimate: int) -> bool:
    """Whether an adaptive evaluator would semi-join from the side whose
    estimated size is ``probe_estimate`` instead of materializing the
    ``against_estimate``-sized operand."""
    return probe_estimate * SEMIJOIN_FACTOR < against_estimate


def descendant_prefers_flags(n_outer: int, n_inner: int, n_total: int) -> bool:
    """Whether a materialized descendant join of the given operand sizes
    would run the whole-forest flag pass rather than the interval/bisect
    strategy.  Shared with the batched structure engine, which collects
    exactly these checks into one combined pass."""
    return (n_outer + n_inner) * max(1, int(math.log2(n_inner + 1))) >= n_total


def ancestor_prefers_flags(n_outer: int, depth: int, n_total: int) -> bool:
    """Whether a materialized ancestor join would run the whole-forest
    forward flag pass rather than per-entry upward walks."""
    return n_outer * max(1, depth) >= n_total


class QueryEvaluator:
    """Evaluates queries against one instance, with optional scopes.

    Parameters
    ----------
    instance:
        The directory instance to evaluate against (for incremental
        checking this is the *updated* instance).
    scopes:
        Mapping from scope label to the set of entry ids that label
        denotes — any read-only set (the incremental checker binds
        ``D + Δ`` to a live view of the instance, not a copy).  Nodes
        with an unknown label raise :class:`QueryError`.

    Attributes
    ----------
    cost:
        A machine-independent work counter (entries touched), used by the
        benchmarks to measure complexity *shape* without timing noise.
        It accumulates across :meth:`evaluate` calls for the lifetime of
        the evaluator.
    last_cost:
        The work done by the most recent :meth:`evaluate` call alone.
        Interleaved callers sharing one evaluator should read this (or
        call :meth:`reset_cost` between queries) instead of diffing
        ``cost`` themselves — the cumulative counter silently blends
        their work together.
    """

    def __init__(
        self,
        instance: DirectoryInstance,
        scopes: Optional[Mapping[str, AbstractSet[int]]] = None,
        adaptive: bool = True,
    ) -> None:
        self.instance = instance
        self.scopes = dict(scopes) if scopes else {}
        self.cost = 0
        self.last_cost = 0
        #: When false, the evaluator always materializes both operands
        #: and uses whole-forest flag passes — the non-adaptive baseline
        #: measured by the strategy-ablation benchmark.
        self.adaptive = adaptive

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def evaluate(self, query: Query) -> Set[int]:
        """Evaluate ``query`` and return the selected entry ids.

        The work this call performed (alone) is captured in
        :attr:`last_cost`; :attr:`cost` keeps the running total.
        """
        before = self.cost
        result = self._eval(query)
        self.last_cost = self.cost - before
        return result

    def reset_cost(self) -> None:
        """Zero both work counters (per-caller cost attribution)."""
        self.cost = 0
        self.last_cost = 0

    # ------------------------------------------------------------------
    # node dispatch
    # ------------------------------------------------------------------
    def _eval(self, query: Query) -> Set[int]:
        if isinstance(query, Select):
            result = self._eval_select(query)
        elif isinstance(query, Minus):
            result = self._eval(query.outer) - self._eval(query.inner)
        elif isinstance(query, HSelect):
            result = self._eval_hselect(query)
        else:
            raise QueryError(f"unknown query node {query!r}")
        if query.scope is not None and not isinstance(query, Select):
            result &= self._scope_set(query.scope)
        return result

    def _scope_set(self, label: str) -> AbstractSet[int]:
        try:
            return self.scopes[label]
        except KeyError:
            raise QueryError(f"no entry set bound to scope label {label!r}") from None

    # ------------------------------------------------------------------
    # atomic selection
    # ------------------------------------------------------------------
    def _eval_select(self, node: Select) -> Set[int]:
        if node.filter == FALSE_FILTER:
            return set()
        scope = None if node.scope is None else self._scope_set(node.scope)
        fast = self._fast_class_lookup(node.filter)
        if fast is not None:
            if scope is None:
                self.cost += len(fast)
                return fast
            # Intersect from the smaller side, so a Δ-scoped selection
            # costs O(|Δ|) regardless of how populous the class is.
            small, large = (scope, fast) if len(scope) <= len(fast) else (fast, scope)
            self.cost += len(small)
            return {eid for eid in small if eid in large}
        if scope is not None:
            self.cost += len(scope)
            return {
                eid for eid in scope if node.filter.matches(self.instance.entry(eid))
            }
        self.cost += len(self.instance)
        return {e.eid for e in self.instance if node.filter.matches(e)}

    def _fast_class_lookup(self, filt: Filter) -> Optional[Set[int]]:
        """Index fast-path for ``(objectClass=c)`` — the only atomic shape
        the Figure 4 reduction emits."""
        if isinstance(filt, Equals) and filt.attribute == OBJECT_CLASS:
            return self.instance.entries_with_class(filt.value)
        return None

    # ------------------------------------------------------------------
    # hierarchical selection
    # ------------------------------------------------------------------
    def _estimate(self, node: Query) -> int:
        """Cheap upper bound on a node's result size (used to pick a
        semi-join direction without materializing both sides)."""
        if isinstance(node, Select):
            if node.scope is not None:
                return len(self._scope_set(node.scope))
            fast = self._fast_class_lookup(node.filter)
            if fast is not None:
                return len(fast)
        return len(self.instance)

    def _select_predicate(self, node: Select):
        """A per-entry membership test for an atomic selection, for
        semi-join evaluation (each call counts one unit of work)."""
        scope = None if node.scope is None else self._scope_set(node.scope)

        def test(eid: int) -> bool:
            self.cost += 1
            if scope is not None and eid not in scope:
                return False
            return node.filter.matches(self.instance.entry(eid))

        return test

    def _eval_hselect(self, node: HSelect) -> Set[int]:
        outer_estimate = self._estimate(node.outer)
        inner_estimate = self._estimate(node.inner)

        # Semi-join from the small side keeps Δ-scoped queries (Figure 5)
        # independent of |D|: the large operand is never materialized,
        # only probed as a predicate with early exit.
        if (
            self.adaptive
            and isinstance(node.inner, Select)
            and prefers_semi_join(outer_estimate, inner_estimate)
        ):
            outer = self._eval(node.outer)
            if not outer:
                return set()
            return self._semi_join_from_outer(node.axis, outer, node.inner)
        if (
            self.adaptive
            and isinstance(node.outer, Select)
            and prefers_semi_join(inner_estimate, outer_estimate)
            and node.axis in (Axis.CHILD, Axis.DESCENDANT)
        ):
            inner = self._eval(node.inner)
            if not inner:
                return set()
            return self._semi_join_from_inner(node.axis, node.outer, inner)

        outer = self._eval(node.outer)
        inner = self._eval(node.inner)
        if not outer or not inner:
            return set()
        if node.axis is Axis.CHILD:
            return self._axis_child(outer, inner)
        if node.axis is Axis.PARENT:
            return self._axis_parent(outer, inner)
        if node.axis is Axis.DESCENDANT:
            return self._axis_descendant(outer, inner)
        if node.axis is Axis.ANCESTOR:
            return self._axis_ancestor(outer, inner)
        raise QueryError(f"unknown axis {node.axis!r}")  # pragma: no cover

    def _semi_join_from_outer(
        self, axis: Axis, outer: Set[int], inner_node: Select
    ) -> Set[int]:
        """For each (small) outer entry, probe its axis-related entries
        against the inner predicate, stopping at the first hit."""
        instance = self.instance
        test = self._select_predicate(inner_node)
        result = set()
        for eid in outer:
            if axis is Axis.PARENT:
                parent = instance.parent_id(eid)
                if parent is not None and test(parent):
                    result.add(eid)
            elif axis is Axis.ANCESTOR:
                cursor = instance.parent_id(eid)
                while cursor is not None:
                    if test(cursor):
                        result.add(eid)
                        break
                    cursor = instance.parent_id(cursor)
            elif axis is Axis.CHILD:
                if any(test(c) for c in instance.children_ids(eid)):
                    result.add(eid)
            else:  # DESCENDANT — early-exit subtree walk
                stack = list(instance.children_ids(eid))
                while stack:
                    candidate = stack.pop()
                    if test(candidate):
                        result.add(eid)
                        break
                    stack.extend(instance.children_ids(candidate))
        return result

    def _semi_join_from_inner(
        self, axis: Axis, outer_node: Select, inner: Set[int]
    ) -> Set[int]:
        """Candidates are the inverse-axis relatives of the (small)
        inner set — parents for the child axis, ancestor chains for the
        descendant axis — filtered by the outer predicate."""
        instance = self.instance
        test = self._select_predicate(outer_node)
        result = set()
        seen = set()
        for eid in inner:
            cursor = instance.parent_id(eid)
            if axis is Axis.CHILD:
                if cursor is not None and cursor not in seen:
                    seen.add(cursor)
                    if test(cursor):
                        result.add(cursor)
                continue
            while cursor is not None and cursor not in seen:
                seen.add(cursor)
                if test(cursor):
                    result.add(cursor)
                cursor = instance.parent_id(cursor)
        return result

    def _axis_child(self, outer: Set[int], inner: Set[int]) -> Set[int]:
        instance = self.instance
        self.cost += len(inner)
        parents = set()
        for eid in inner:
            parent = instance.parent_id(eid)
            if parent is not None:
                parents.add(parent)
        return outer & parents

    def _axis_parent(self, outer: Set[int], inner: Set[int]) -> Set[int]:
        instance = self.instance
        self.cost += len(outer)
        result = set()
        for eid in outer:
            parent = instance.parent_id(eid)
            if parent is not None and parent in inner:
                result.add(eid)
        return result

    def _axis_descendant(self, outer: Set[int], inner: Set[int]) -> Set[int]:
        small = self.adaptive and not descendant_prefers_flags(
            len(outer), len(inner), len(self.instance)
        )
        if small:
            return self._descendant_by_intervals(outer, inner)
        return self._descendant_by_flags(outer, inner)

    def _descendant_by_intervals(self, outer: Set[int], inner: Set[int]) -> Set[int]:
        instance = self.instance
        self.cost += len(outer) + len(inner)
        inner_pres = sorted(instance.interval_of(eid)[0] for eid in inner)
        result = set()
        for eid in outer:
            pre, post = instance.interval_of(eid)
            # A proper descendant i satisfies pre < pre(i) and post(i) < post;
            # since intervals nest, pre(i) in (pre, post) suffices.
            index = bisect_right(inner_pres, pre)
            if index < len(inner_pres) and inner_pres[index] < post:
                result.add(eid)
        return result

    def _descendant_by_flags(self, outer: Set[int], inner: Set[int]) -> Set[int]:
        instance = self.instance
        order = instance.entry_ids()
        self.cost += len(order)
        has_inner_below: Dict[int, bool] = {}
        for eid in reversed(order):
            flag = False
            for child in instance.children_ids(eid):
                if child in inner or has_inner_below[child]:
                    flag = True
                    break
            has_inner_below[eid] = flag
        return {eid for eid in outer if has_inner_below[eid]}

    def _axis_ancestor(self, outer: Set[int], inner: Set[int]) -> Set[int]:
        depth = self.instance.max_depth()
        if self.adaptive and not ancestor_prefers_flags(
            len(outer), depth, len(self.instance)
        ):
            return self._ancestor_by_walk(outer, inner)
        return self._ancestor_by_flags(outer, inner)

    def _ancestor_by_walk(self, outer: Set[int], inner: Set[int]) -> Set[int]:
        instance = self.instance
        result = set()
        for eid in outer:
            cursor = instance.parent_id(eid)
            while cursor is not None:
                self.cost += 1
                if cursor in inner:
                    result.add(eid)
                    break
                cursor = instance.parent_id(cursor)
        return result

    def _ancestor_by_flags(self, outer: Set[int], inner: Set[int]) -> Set[int]:
        instance = self.instance
        order = instance.entry_ids()
        self.cost += len(order)
        has_inner_above: Dict[int, bool] = {}
        for eid in order:
            parent = instance.parent_id(eid)
            has_inner_above[eid] = parent is not None and (
                parent in inner or has_inner_above[parent]
            )
        return {eid for eid in outer if has_inner_above[eid]}


def evaluate(
    query: Query,
    instance: DirectoryInstance,
    scopes: Optional[Mapping[str, AbstractSet[int]]] = None,
) -> Set[int]:
    """Convenience wrapper: evaluate ``query`` on ``instance``."""
    return QueryEvaluator(instance, scopes).evaluate(query)


class FilterPlanner:
    """Rewrites filter trees into candidate sets over secondary indexes.

    :meth:`plan` returns a **sound superset** of the entries a filter
    can match, as a read-only set of entry ids (the probed postings'
    views, combined without copying them) — or ``None`` when the filter
    (or the relevant index) cannot bound the result, in which case the
    caller scans.  The residual ``matches`` pass always runs over the
    candidates, so planning affects cost, never results:

    * ``Equals`` with a *string* operand probes the equality index —
      for string operands the index's text form covers the matcher's
      ``stored == value or str(stored) == value`` exactly.  Non-string
      operands do not plan: ``(x=5)`` matches a stored ``5.0`` whose
      text form ``"5.0"`` the probe would miss.
    * ``Present`` probes the presence index (vacuous for
      ``objectClass``, which every entry has — no plan).
    * ``Substring`` intersects the gram postings of the pattern's
      literal chunks, falling back to the presence set when every chunk
      is shorter than a gram.
    * ``And`` intersects whichever conjuncts plan (one suffices — the
      residual pass enforces the rest); ``Or`` needs *every* disjunct
      to plan (a single unplannable branch could match anything).
      The empty ``Or`` — the parser's FALSE filter — plans as the
      empty set; the empty ``And`` (TRUE) does not plan.
    * ``Not``, ``Approx``, and the ordering filters fall through to the
      residual scan: the indexes order nothing and store no normalized
      text.
    """

    def __init__(self, indexes) -> None:
        self.indexes = indexes

    def plan(self, filt: Filter) -> Optional[AbstractSet[int]]:
        """A candidate-id superset for ``filt``, or ``None`` when the
        indexes cannot bound it (caller falls back to scanning)."""
        indexes = self.indexes
        if isinstance(filt, Equals):
            if isinstance(filt.value, str):
                return indexes.equality_candidates(filt.attribute, filt.value)
            return None
        if isinstance(filt, Present):
            if filt.attribute == OBJECT_CLASS:
                return None
            return indexes.presence_candidates(filt.attribute)
        if isinstance(filt, Substring):
            parts = [
                part
                for part in (filt.initial, *filt.any_parts, filt.final)
                if part
            ]
            return indexes.substring_candidates(filt.attribute, parts)
        if isinstance(filt, And):
            result: Optional[AbstractSet[int]] = None
            for operand in filt.operands:
                planned = self.plan(operand)
                if planned is None:
                    continue
                result = planned if result is None else result & planned
                if not result:
                    break
            return result
        if isinstance(filt, Or):
            # Imported here: the store package imports this module.
            from repro.store.index import PostingView

            union: AbstractSet[int] = PostingView()
            for operand in filt.operands:
                planned = self.plan(operand)
                if planned is None:
                    return None
                union |= planned
            return union
        return None
