"""Per-entry counts of the relatives that hold a class.

For a required child element ``ci → cj`` or a required descendant
element ``ci →→ cj``, what a deletion can break is one number per entry:
how many of its children (child axis) or proper descendants (descendant
axis) belong to ``cj``.  :class:`PathCounts` keeps those numbers for a
chosen set of target classes, only the non-zero ones, and its owning
:class:`~repro.model.instance.DirectoryInstance` patches them from its
mutators: an entry that gains or loses a tracked class, or arrives or
leaves as a leaf, moves its parent's child count and each ancestor's
descendant count by one — O(depth) — and a pruned subtree moves its
ancestors once, by its root's own totals.  The incremental checker then
answers Figure 5's two full re-check rows with one lookup per entry on
the path above the change (DESIGN.md §6, "Deletions judged on the
ancestor path").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Container, Dict, Iterable, List, Optional, Tuple

from repro.axes import Axis

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.instance import DirectoryInstance

__all__ = ["PathCounts"]

Table = Dict[int, int]


def _bump(table: Table, eid: int, amount: int) -> None:
    count = table.get(eid, 0) + amount
    if count:
        table[eid] = count
    else:
        del table[eid]


class PathCounts:
    """Counts of children / descendants holding each tracked class.

    Build one with :meth:`attach`; from then on the instance keeps it
    exact.  :attr:`steps` counts the ancestor visits its maintenance
    has made — the work unit the O(depth) gates read.
    """

    def __init__(
        self,
        instance: "DirectoryInstance",
        child_classes: Iterable[str] = (),
        descendant_classes: Iterable[str] = (),
    ) -> None:
        self.instance = instance
        self._tables: Dict[Tuple[Axis, str], Table] = {}
        for axis, classes in (
            (Axis.CHILD, child_classes),
            (Axis.DESCENDANT, descendant_classes),
        ):
            for object_class in sorted(set(classes)):
                self._tables[(axis, object_class)] = {}
        self._child = [(c, t) for (a, c), t in self._tables.items() if a is Axis.CHILD]
        self._descendant = [
            (c, t) for (a, c), t in self._tables.items() if a is Axis.DESCENDANT
        ]
        self.steps = 0

    @classmethod
    def attach(
        cls,
        instance: "DirectoryInstance",
        child_classes: Iterable[str] = (),
        descendant_classes: Iterable[str] = (),
    ) -> "PathCounts":
        """Count ``instance`` in one pass and install the result as
        ``instance.path_counts``."""
        counts = cls(instance, child_classes, descendant_classes)
        counts.rebuild()
        instance.path_counts = counts
        return counts

    def rebuild(self) -> None:
        """Recount from scratch: a child count per member of a tracked
        class, and one pass over the forest, children before parents,
        in which each entry hands its descendant totals to its parent."""
        instance = self.instance
        parent_of, members = instance._parent, instance._class_index
        for table in self._tables.values():
            table.clear()
        for object_class, table in self._child:
            for eid in members.get(object_class, ()):
                parent = parent_of[eid]
                if parent is not None:
                    table[parent] = table.get(parent, 0) + 1
        if not self._descendant:
            return
        # breadth-first, then reversed: every child before its parent
        order = list(instance._roots)
        children = instance._children
        for eid in order:
            order.extend(children[eid])
        order.reverse()
        for object_class, table in self._descendant:
            holders = members.get(object_class, ())
            get = table.get
            for eid in order:
                total = get(eid, 0) + (eid in holders)
                if total:
                    parent = parent_of[eid]
                    if parent is not None:
                        table[parent] = get(parent, 0) + total

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def tracks(self, axis: Axis, object_class: str) -> bool:
        """Whether ``axis``-relatives holding ``object_class`` are counted."""
        return (axis, object_class) in self._tables

    def count(self, axis: Axis, object_class: str, eid: int) -> int:
        """How many children (child axis) or descendants (descendant
        axis) of ``eid`` belong to ``object_class``."""
        return self._tables[(axis, object_class)].get(eid, 0)

    def export(self) -> Dict[Tuple[Axis, str], Table]:
        """A copy of every table: ``(axis, class) -> {eid: count}``, the
        non-zero counts only."""
        return {key: dict(table) for key, table in self._tables.items()}

    # ------------------------------------------------------------------
    # maintenance (called by the owning instance)
    # ------------------------------------------------------------------
    def shift(self, eid: int, classes: Container[str], amount: int) -> None:
        """The linked entry ``eid`` has just gained (``amount`` 1) or lost
        (−1) ``classes`` — a new leaf gains all of its own: move its
        parent's child counts and its ancestors' descendant counts.
        ``eid``'s own counts do not change."""
        parent = self.instance._parent[eid]
        if parent is None:
            return
        for object_class, table in self._child:
            if object_class in classes:
                _bump(table, parent, amount)
        self._walk_up(parent, [(t, amount) for c, t in self._descendant if c in classes])

    def subtree_removed(self, eid: int) -> None:
        """The subtree at ``eid`` (a leaf, or more) is about to be
        unlinked: take its totals off its parent and ancestors once, and
        drop the counts of every entry in it."""
        instance = self.instance
        parent = instance._parent[eid]
        classes = instance._entries[eid]._classes
        if parent is not None:
            for object_class, table in self._child:
                if object_class in classes:
                    _bump(table, parent, -1)
            totals = [
                (table, table.get(eid, 0) + (object_class in classes))
                for object_class, table in self._descendant
            ]
            self._walk_up(parent, [(table, -n) for table, n in totals if n])
        stack = [eid]
        while stack:
            node = stack.pop()
            for table in self._tables.values():
                table.pop(node, None)
            stack.extend(instance._children[node])

    def _walk_up(self, eid: Optional[int], moves: List[Tuple[Table, int]]) -> None:
        """Apply every ``(table, amount)`` to ``eid`` and each of its
        ancestors: one walk to the root, whatever the number of moves."""
        if not moves:
            return
        parent_of = self.instance._parent
        while eid is not None:
            self.steps += 1
            for table, amount in moves:
                _bump(table, eid, amount)
            eid = parent_of[eid]
