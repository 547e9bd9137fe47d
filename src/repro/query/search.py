"""LDAP-style scoped search.

The paper's Section 1 describes directory retrieval as matching "a
boolean combination of conditions on individual attributes, the
retrieval typically scoped to some subtree of the hierarchy".  This
module provides exactly that operation over
:class:`~repro.model.instance.DirectoryInstance`: the three standard
LDAP scopes (``base``, ``one``, ``sub``) plus ``children`` (subtree
minus the base, LDAP's ``subordinateSubtree``), an RFC 2254 filter, and
an optional size limit.

This rounds out the query layer for application use; the legality
machinery itself uses the algebra in :mod:`repro.query.ast` directly.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.errors import QueryError
from repro.model.dn import DN
from repro.model.entry import Entry
from repro.model.instance import DirectoryInstance
from repro.query.evaluator import FilterPlanner
from repro.query.filter_parser import parse_filter
from repro.query.filters import TRUE_FILTER, Filter

__all__ = ["SearchScope", "PlannedSearch", "search"]


class SearchScope(str, Enum):
    """The LDAP search scopes."""

    #: Just the base entry.
    BASE = "base"
    #: Direct children of the base entry (LDAP ``singleLevel``).
    ONE = "one"
    #: The base entry and its whole subtree (LDAP ``wholeSubtree``).
    SUB = "sub"
    #: The subtree *excluding* the base (LDAP ``subordinateSubtree``).
    CHILDREN = "children"


def _in_scope(
    instance: DirectoryInstance,
    base: Optional[Entry],
    scope: SearchScope,
    entry: Entry,
) -> bool:
    """O(1) scope-membership test (interval numbering for subtree
    scopes) — lets index-planned searches visit only their candidates."""
    if base is None:
        if scope is SearchScope.BASE:
            return False
        if scope is SearchScope.ONE:
            return instance.parent_id(entry.eid) is None
        return True
    if scope is SearchScope.BASE:
        return entry.eid == base.eid
    if scope is SearchScope.ONE:
        return instance.parent_id(entry.eid) == base.eid
    if scope is SearchScope.SUB:
        return entry.eid == base.eid or instance.is_ancestor(base, entry)
    return instance.is_ancestor(base, entry)


def _scope_size(
    instance: DirectoryInstance,
    base: Optional[Entry],
    scope: SearchScope,
) -> int:
    """How many entries :func:`_candidates` would yield, without
    yielding them: O(1) for ``base``/``one``, two bisects in the
    document order for the subtree scopes."""
    if scope is SearchScope.BASE:
        return 0 if base is None else 1
    if scope is SearchScope.ONE:
        children = instance.root_ids() if base is None else instance.children_ids(base)
        return len(children)
    if base is None:
        return len(instance)
    return instance.subtree_size(base) - (scope is SearchScope.CHILDREN)


def _candidates(
    instance: DirectoryInstance,
    base: Optional[Entry],
    scope: SearchScope,
) -> Iterator[Entry]:
    if base is None:
        # The empty base denotes the conceptual root above all entries.
        if scope is SearchScope.BASE:
            return
        if scope is SearchScope.ONE:
            yield from instance.roots()
            return
        for entry in instance:
            yield entry
        return
    if scope is SearchScope.BASE:
        yield base
    elif scope is SearchScope.ONE:
        yield from instance.children_of(base)
    elif scope is SearchScope.SUB:
        yield base
        yield from instance.descendants_of(base)
    else:
        yield from instance.descendants_of(base)


def _ranked_candidates(
    instance: DirectoryInstance,
    base: Optional[Entry],
    scope: SearchScope,
    rank: Callable[[Entry], Any],
) -> Iterator[Entry]:
    """What :func:`_candidates` yields, in canonical order instead of
    document order: the scope depth-first, root first, each node's
    children taken sorted by ``rank``.  Lazy — a node's children are
    sorted only when the walk is about to descend into them, so a
    search cut at its size limit sorts no child list below the last
    entry it kept."""
    if scope is SearchScope.BASE:
        if base is not None:
            yield base
        return
    top = instance.roots() if base is None else instance.children_of(base)
    top.sort(key=rank)
    if scope is SearchScope.ONE:
        yield from top
        return
    if base is not None and scope is SearchScope.SUB:
        yield base
    stack = top[::-1]
    while stack:
        entry = stack.pop()
        yield entry
        stack.extend(
            sorted(instance.children_of(entry), key=rank, reverse=True)
        )


def _rank_paths(
    instance: DirectoryInstance,
    base: Optional[Entry],
    rank: Callable[[Entry], Any],
) -> Callable[[Entry], Tuple[Any, ...]]:
    """A key giving the ranks of an entry and its ancestors below
    ``base``, root first: sorting a scope's entries by it gives the
    order :func:`_ranked_candidates` walks them in (a parent's path is a
    prefix of its children's, siblings differ in their last rank).  An
    entry's path is its parent's plus its own rank, so the key memoizes
    paths by eid and ranks each entry on the matches' paths once."""
    paths: Dict[Optional[int], Tuple[Any, ...]] = {
        None if base is None else base.eid: ()
    }

    def path(entry: Entry) -> Tuple[Any, ...]:
        climbed = []
        eid: Optional[int] = entry.eid
        while eid not in paths:
            climbed.append(eid)
            eid = instance.parent_id(eid)
        known = paths[eid]
        for eid in reversed(climbed):
            known = paths[eid] = known + (rank(instance.entry(eid)),)
        return known

    return path


def _planned_walk(
    instance: DirectoryInstance,
    base: Optional[Entry],
    scope: SearchScope,
    planned: Iterable[int],
    document_order: bool,
) -> Iterator[Entry]:
    """The candidates that lie in scope — one O(1) scope test each, not
    a pass over the scope.  In document order (O(|C| log |C|), one
    :meth:`~DirectoryInstance.interval_of` per candidate) only when the
    caller asks for it: a ranked search sorts the matches by their rank
    paths anyway."""
    if document_order:
        planned = sorted(planned, key=lambda eid: instance.interval_of(eid)[0])
    for eid in planned:
        entry = instance.entry(eid)
        if _in_scope(instance, base, scope, entry):
            yield entry


class PlannedSearch:
    """One scoped LDAP search, planned once: the scope and size limit
    validated, the base resolved and — when the instance carries
    secondary indexes — the filter's candidate set probed.  :meth:`run`
    answers it; the parameters are those of :func:`search`, and the
    plan is only good for the instance as it was planned on.

    :attr:`bounded` is true when the planner returned a candidate set:
    :meth:`run` then judges at most those candidates (or a smaller
    scope), work bounded by the posting sizes of the filter's indexed
    terms rather than by the directory.  An unbounded plan scans its
    scope.

    With a ``rank`` the answer comes in canonical order: a plan that
    walks its scope (unbounded, or a scope smaller than the posting)
    walks it depth-first, each node's children sorted by rank, and
    stops at the size limit; a plan that keeps its posting sorts the
    matching candidates by their root-first rank paths — the same
    order — and cuts them after.

    Raises
    ------
    QueryError
        If the base DN does not name an entry, or the size limit is
        negative.
    """

    def __init__(
        self,
        instance: DirectoryInstance,
        base: Union[DN, str, None] = None,
        scope: Union[SearchScope, str] = SearchScope.SUB,
        filter: Union[Filter, str, None] = None,
        size_limit: Optional[int] = None,
        rank: Optional[Callable[[Entry], Any]] = None,
    ) -> None:
        scope = SearchScope(scope)
        if size_limit is not None and size_limit < 0:
            raise QueryError(f"size limit must not be negative, got {size_limit}")
        if filter is None:
            predicate: Filter = TRUE_FILTER
        elif isinstance(filter, str):
            predicate = parse_filter(filter)
        else:
            predicate = filter

        base_entry: Optional[Entry] = None
        if base is not None and str(base):
            base_entry = instance.find(base)
            if base_entry is None:
                raise QueryError(f"search base {base!s} does not exist")

        # Index-aware planning: when the instance carries secondary
        # indexes, bound the scan by a candidate superset first.  The
        # residual ``matches`` pass of :meth:`run` still judges every
        # candidate, so planner output is byte-identical to the naive
        # scan — only cheaper.
        planned = None
        indexes = getattr(instance, "indexes", None)
        if indexes is not None and predicate is not TRUE_FILTER:
            planned = FilterPlanner(indexes).plan(predicate)
        self.bounded = planned is not None
        # The probe bounds the result from one side and the scope from
        # the other: walk whichever is smaller (a unit's dozen children,
        # not the directory's thousands of persons).  A probed posting
        # is a view, so weighing it copies nothing.
        if planned is not None and (
            _scope_size(instance, base_entry, scope) < len(planned)
        ):
            planned = None

        self.instance = instance
        self._base = base_entry
        self._scope = scope
        self._predicate = predicate
        self._size_limit = size_limit
        self._rank = rank
        self._planned = planned

    def run(self) -> List[Entry]:
        """The matching entries, in order, cut to the size limit."""
        instance, base, scope = self.instance, self._base, self._scope
        rank = self._rank
        if self._planned is not None:
            walk = _planned_walk(
                instance, base, scope, self._planned, rank is None
            )
        elif rank is None:
            walk = _candidates(instance, base, scope)
        else:
            walk = _ranked_candidates(instance, base, scope, rank)
        matching = (entry for entry in walk if self._predicate.matches(entry))
        if self._planned is not None and rank is not None:
            path = _rank_paths(instance, base, rank)
            return sorted(matching, key=path)[: self._size_limit]
        return list(itertools.islice(matching, self._size_limit))


def search(
    instance: DirectoryInstance,
    base: Union[DN, str, None] = None,
    scope: Union[SearchScope, str] = SearchScope.SUB,
    filter: Union[Filter, str, None] = None,
    size_limit: Optional[int] = None,
    rank: Optional[Callable[[Entry], Any]] = None,
) -> List[Entry]:
    """Scoped LDAP search: :class:`PlannedSearch` planned and run.

    Parameters
    ----------
    base:
        DN (or DN string) of the search base; ``None`` or the empty DN
        searches from the conceptual root.
    scope:
        A :class:`SearchScope` or its string value.
    filter:
        A :class:`~repro.query.filters.Filter`, an RFC 2254 string, or
        ``None`` for match-all.
    size_limit:
        Keep only the first this many matches (LDAP ``sizeLimit``);
        ``0`` keeps none.
    rank:
        A sort key over entries that no two siblings share.  Without
        one the matches come in document order; with one they come in
        the canonical order it defines — root first, each entry before
        its descendants, siblings sorted by rank — whatever order the
        children were inserted in (how a stitched composite answers
        independently of its shard layout).  Either way the limit keeps
        the first matches of that order, and a search that walks its
        scope stops there.

    Raises
    ------
    QueryError
        If the base DN does not name an entry, or the size limit is
        negative.
    """
    return PlannedSearch(instance, base, scope, filter, size_limit, rank).run()
