"""Bounded model finding — the semantic ground truth for small schemas.

A test oracle, like ``oracle.py`` beside it, not library code.  The
inference system of Section 5 is validated differentially: for small
class universes, :func:`find_model` *exhaustively* searches for a legal
instance of bounded size, deciding consistency semantically (up to the
bound).  The test suite runs it against :func:`repro.consistency.engine.close`
over exhaustive/random families of small schemas:

* ``find_model`` finds an instance but the closure derives ``∅ □``
  → an inference rule is **unsound** (must never happen);
* the closure is ⊥-free but no model exists up to a generous bound
  → a (documented) completeness gap worth inspecting.

Search space: forests of at most ``max_entries`` nodes.  Node class-sets
are restricted to root-to-node chains of the core hierarchy — without
loss of generality, because content legality forces core classes to form
a chain, auxiliary classes never appear in structure elements, and any
legal instance remains legal after dropping auxiliary classes and
attribute values (structure satisfaction only reads core membership).

Consistency per Section 5 concerns the class and structure schemas;
attribute values never matter (required attributes can always be
populated), so the finder checks structure elements plus chain-validity
only.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.axes import Axis
from repro.schema.class_schema import ClassSchema
from repro.schema.directory_schema import DirectorySchema
from repro.schema.elements import (
    ForbiddenEdge,
    RequiredClass,
    RequiredEdge,
    SchemaElement,
)

__all__ = ["find_model", "Model"]


class Model:
    """A tiny forest: parent vector plus per-node class chains."""

    def __init__(self, parents: Sequence[Optional[int]], chains: Sequence[Tuple[str, ...]]):
        self.parents = tuple(parents)
        self.chains = tuple(frozenset(chain) for chain in chains)

    def __len__(self) -> int:
        return len(self.parents)

    def ancestors(self, i: int) -> Iterator[int]:
        """Proper ancestors of node ``i``, nearest first."""
        cursor = self.parents[i]
        while cursor is not None:
            yield cursor
            cursor = self.parents[cursor]

    def members(self, object_class: str) -> List[int]:
        """Nodes whose class chain contains ``object_class``."""
        return [i for i, chain in enumerate(self.chains) if object_class in chain]

    def satisfies(self, element: SchemaElement) -> bool:
        """Definition 2.6 satisfaction, specialized to this tiny model."""
        if isinstance(element, RequiredClass):
            return bool(self.members(element.object_class))
        if isinstance(element, RequiredEdge):
            for i in self.members(element.source):
                if not self._has_related(i, element.axis, element.target):
                    return False
            return True
        if isinstance(element, ForbiddenEdge):
            for i in self.members(element.source):
                if self._has_related(i, element.axis, element.target):
                    return False
            return True
        return True  # Subclass/Disjoint hold by chain construction

    def _has_related(self, i: int, axis: Axis, target: str) -> bool:
        if axis is Axis.PARENT:
            p = self.parents[i]
            return p is not None and target in self.chains[p]
        if axis is Axis.ANCESTOR:
            return any(target in self.chains[a] for a in self.ancestors(i))
        if axis is Axis.CHILD:
            return any(
                self.parents[j] == i and target in self.chains[j]
                for j in range(len(self.parents))
            )
        return any(
            target in self.chains[j]
            for j in range(len(self.parents))
            if j != i and i in set(self.ancestors(j))
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [
            f"{i}<-{p if p is not None else 'root'}:{sorted(c)}"
            for i, (p, c) in enumerate(zip(self.parents, self.chains))
        ]
        return "Model(" + "; ".join(parts) + ")"


def _forest_shapes(n: int) -> Iterator[Tuple[Optional[int], ...]]:
    """All canonical parent vectors on ``n`` nodes: node ``i`` is a root
    or a child of an earlier node (every forest has such a numbering)."""
    options: List[List[Optional[int]]] = [
        [None] + list(range(i)) for i in range(n)
    ]
    yield from product(*options)  # type: ignore[misc]


def find_model(
    schema: DirectorySchema,
    max_entries: int = 4,
) -> Optional[Model]:
    """Search for a legal model of up to ``max_entries`` entries.

    Returns the first (smallest) model found or ``None`` when no model
    of bounded size exists.  Exponential in ``max_entries`` — intended
    for class universes of up to ~5 classes and bounds of up to ~5
    entries, as used by the differential tests.
    """
    elements = [
        e
        for e in schema.structure_schema.elements()
    ]
    chains = _chains(schema.class_schema)

    for n in range(0, max_entries + 1):
        if n == 0:
            model = Model((), ())
            if all(model.satisfies(e) for e in elements):
                return model
            continue
        for parents in _forest_shapes(n):
            for assignment in product(chains, repeat=n):
                model = Model(parents, assignment)
                if all(model.satisfies(e) for e in elements):
                    return model
    return None


def _chains(class_schema: ClassSchema) -> List[Tuple[str, ...]]:
    """Every root-to-node chain of the core hierarchy — the possible
    core class-sets of a content-legal entry."""
    return [
        class_schema.superclasses(c) for c in sorted(class_schema.core_classes())
    ]
