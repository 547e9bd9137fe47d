"""Directory schemas (Definition 2.5): the full bounding-schema.

``S = (A, H, S)`` packages an attribute schema, a class schema, and a
structure schema.  :meth:`DirectorySchema.validate` enforces the
cross-component well-formedness conditions the paper states in passing:

* every class mentioned by the attribute schema exists in the class
  schema (core or auxiliary);
* every class mentioned by the structure schema is a **core** class
  (``Cr ⊆ Cc`` and ``Er, Ef ⊆ Cc × ... × Cc``, Definition 2.4).

:meth:`DirectorySchema.all_elements` exposes the schema as the element set
``Γ`` consumed by the consistency engine (Section 5): structure elements
plus the subclass/disjointness elements induced by the class hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from repro.errors import SchemaError
from repro.model.attributes import AttributeRegistry
from repro.schema.attribute_schema import AttributeSchema
from repro.schema.class_schema import ClassSchema
from repro.schema.elements import SchemaElement
from repro.schema.extras import SchemaExtras
from repro.schema.structure_schema import StructureSchema

__all__ = ["DirectorySchema"]


@dataclass
class DirectorySchema:
    """A bounding-schema ``S = (A, H, S)`` (Definition 2.5).

    Parameters
    ----------
    attribute_schema:
        The content bound on attributes (Definition 2.2).
    class_schema:
        The content bound on object classes (Definition 2.3).
    structure_schema:
        The bound on forest shape (Definition 2.4).
    registry:
        Optional attribute registry realizing ``tau``; used by checkers
        that type-check values and by the witness synthesizer to invent
        values for required attributes.
    extras:
        Optional Section 6.1 extensions (single-valued attributes, keys,
        extensible object classes).
    """

    attribute_schema: AttributeSchema = field(default_factory=AttributeSchema)
    class_schema: ClassSchema = field(default_factory=ClassSchema)
    structure_schema: StructureSchema = field(default_factory=StructureSchema)
    registry: Optional[AttributeRegistry] = None
    extras: Optional["SchemaExtras"] = None

    def validate(self) -> "DirectorySchema":
        """Check cross-component well-formedness; returns ``self``.

        Raises
        ------
        SchemaError
            With a message naming every offending class.
        """
        problems: List[str] = []
        for object_class in sorted(self.attribute_schema.classes()):
            if object_class not in self.class_schema:
                problems.append(
                    f"attribute schema mentions unknown class {object_class!r}"
                )
        for object_class in sorted(self.structure_schema.mentioned_classes()):
            if not self.class_schema.is_core(object_class):
                problems.append(
                    f"structure schema mentions non-core class {object_class!r} "
                    "(Definition 2.4 ranges over Cc)"
                )
        if self.extras is not None:
            problems.extend(self.extras.validate_against(self))
        if problems:
            raise SchemaError("; ".join(problems))
        return self

    def all_elements(self) -> Iterator[SchemaElement]:
        """The element set ``Γ`` of Theorem 5.2: the elements of ``H``
        (subclass edges and disjointness of incomparable cores) and of
        ``S`` (required classes, required and forbidden relationships)."""
        yield from self.class_schema.subclass_elements()
        yield from self.class_schema.disjoint_elements()
        yield from self.structure_schema.elements()

    def size(self) -> int:
        """``|S|`` — a rough element count for complexity accounting."""
        return (
            len(self.attribute_schema)
            + len(self.class_schema.all_classes())
            + self.structure_schema.size()
        )
