"""Class schemas (Definition 2.3).

A class schema ``H = (C, E, Aux)`` consists of

* a finite set of **core** object classes ``Cc`` containing ``top``,
  arranged by ``E`` into a single-inheritance tree rooted at ``top``;
* a finite set of **auxiliary** object classes ``Cx``; and
* a function ``Aux : Cc -> 2^Cx`` giving, per core class, the auxiliary
  classes its entries may additionally belong to.

Two derived relations drive both legality checking and the consistency
inference system:

* ``ci ⊑ cj`` (:meth:`ClassSchema.subsumes`): ``cj`` lies on the tree path
  from ``ci`` to ``top`` — entries of ``ci`` must also belong to ``cj``;
* ``ci ⊥ cj`` (:meth:`ClassSchema.incomparable`): neither subsumes the
  other — single inheritance forbids any entry from belonging to both.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.errors import ClassHierarchyError, SchemaError
from repro.schema.elements import Disjoint, Subclass

__all__ = ["TOP", "ClassSchema"]

#: The root of every core-class hierarchy (Definition 2.3).
TOP = "top"


class ClassSchema:
    """The class schema ``(Cc ∪ Cx, E, Aux)``.

    A fresh schema contains only ``top``.  Core classes are added with
    :meth:`add_core` (parent defaults to ``top``), auxiliary classes with
    :meth:`add_auxiliary`, and the ``Aux`` association with
    :meth:`allow_auxiliary`.  Because a core class's parent must already
    exist, the core graph is a tree rooted at ``top`` by construction.
    """

    def __init__(self) -> None:
        self._parent: Dict[str, Optional[str]] = {TOP: None}
        self._children: Dict[str, List[str]] = {TOP: []}
        self._auxiliary: Set[str] = set()
        self._aux_of: Dict[str, Set[str]] = {TOP: set()}
        self._depth_cache: Optional[int] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_core(self, name: str, parent: str = TOP) -> "ClassSchema":
        """Add a core class as a child of ``parent``; returns ``self``.

        Raises
        ------
        ClassHierarchyError
            If ``parent`` is not an existing core class.
        SchemaError
            If ``name`` already exists (as core or auxiliary).
        """
        if name in self._parent or name in self._auxiliary:
            raise SchemaError(f"class {name!r} already exists")
        if parent not in self._parent:
            raise ClassHierarchyError(
                f"parent {parent!r} of {name!r} is not a core class"
            )
        self._parent[name] = parent
        self._children[name] = []
        self._children[parent].append(name)
        self._aux_of[name] = set()
        self._depth_cache = None
        return self

    def add_auxiliary(self, name: str) -> "ClassSchema":
        """Add an auxiliary class; returns ``self``."""
        if name in self._parent or name in self._auxiliary:
            raise SchemaError(f"class {name!r} already exists")
        self._auxiliary.add(name)
        return self

    def allow_auxiliary(self, core: str, *auxiliaries: str) -> "ClassSchema":
        """Extend ``Aux(core)`` with the given auxiliary classes."""
        if core not in self._parent:
            raise SchemaError(f"{core!r} is not a core class")
        for aux in auxiliaries:
            if aux not in self._auxiliary:
                raise SchemaError(f"{aux!r} is not an auxiliary class")
            self._aux_of[core].add(aux)
        return self

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def is_core(self, name: str) -> bool:
        """Whether ``name ∈ Cc``."""
        return name in self._parent

    def is_auxiliary(self, name: str) -> bool:
        """Whether ``name ∈ Cx``."""
        return name in self._auxiliary

    def __contains__(self, name: str) -> bool:
        return name in self._parent or name in self._auxiliary

    def core_classes(self) -> FrozenSet[str]:
        """The core classes ``Cc`` (always includes ``top``)."""
        return frozenset(self._parent)

    def auxiliary_classes(self) -> FrozenSet[str]:
        """The auxiliary classes ``Cx``."""
        return frozenset(self._auxiliary)

    def all_classes(self) -> FrozenSet[str]:
        """``C = Cc ∪ Cx``."""
        return frozenset(self._parent) | frozenset(self._auxiliary)

    def aux(self, core: str) -> FrozenSet[str]:
        """``Aux(core)`` — allowed auxiliary classes of a core class."""
        return frozenset(self._aux_of.get(core, ()))

    # ------------------------------------------------------------------
    # hierarchy relations
    # ------------------------------------------------------------------
    def parent(self, name: str) -> Optional[str]:
        """The superclass of a core class (``None`` for ``top``)."""
        if name not in self._parent:
            raise SchemaError(f"{name!r} is not a core class")
        return self._parent[name]

    def children(self, name: str) -> Tuple[str, ...]:
        """Direct subclasses of a core class."""
        if name not in self._children:
            raise SchemaError(f"{name!r} is not a core class")
        return tuple(self._children[name])

    def superclasses(self, name: str) -> Tuple[str, ...]:
        """The chain from ``name`` (inclusive) up to ``top`` (inclusive) —
        exactly the core classes an entry of ``name`` must belong to."""
        if name not in self._parent:
            raise SchemaError(f"{name!r} is not a core class")
        chain: List[str] = []
        cursor: Optional[str] = name
        while cursor is not None:
            chain.append(cursor)
            cursor = self._parent[cursor]
        return tuple(chain)

    def subsumes(self, sub: str, sup: str) -> bool:
        """``sub ⊑ sup`` — ``sup`` is on ``sub``'s path to ``top``
        (reflexively)."""
        if sub not in self._parent or sup not in self._parent:
            return False
        return sup in self.superclasses(sub)

    def incomparable(self, a: str, b: str) -> bool:
        """``a ⊥ b`` — both core, neither subsumes the other; single
        inheritance forbids joint membership (Definition 2.3)."""
        if a not in self._parent or b not in self._parent:
            return False
        return not self.subsumes(a, b) and not self.subsumes(b, a)

    def depth(self) -> int:
        """``depth(H)`` — length of the longest root-to-leaf chain; a
        factor of the content-checking bound in Section 3.1."""
        if self._depth_cache is None:
            self._depth_cache = max(
                len(self.superclasses(c)) for c in self._parent
            )
        return self._depth_cache

    def max_aux_size(self) -> int:
        """``max_c |Aux(c)|`` — a factor of the Section 3.1 bound."""
        return max((len(a) for a in self._aux_of.values()), default=0)

    # ------------------------------------------------------------------
    # schema elements for the inference system
    # ------------------------------------------------------------------
    def subclass_elements(self) -> Iterator[Subclass]:
        """The direct-edge ``ci ⊑ cj`` elements (one per tree edge); the
        inference system closes them reflexively and transitively."""
        for name, parent in self._parent.items():
            if parent is not None:
                yield Subclass(name, parent)

    def disjoint_elements(self) -> Iterator[Disjoint]:
        """All ``ci ⊥ cj`` elements between incomparable core classes.

        Quadratic in ``|Cc|``; intended for the consistency engine where
        schemas are small.  Pairs are emitted in canonical order.
        """
        cores = sorted(self._parent)
        for i, a in enumerate(cores):
            ancestors_a = set(self.superclasses(a))
            for b in cores[i + 1:]:
                if b in ancestors_a or a in self.superclasses(b):
                    continue
                yield Disjoint(a, b)
