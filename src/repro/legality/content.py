"""Content-schema legality (Section 3.1).

Content legality is checked **per entry, independently** — the property
that makes content checking trivially incremental under updates
(Section 4.2: an inserted subtree need only be checked in isolation, and
deletions can never violate content legality).

Per entry ``e`` the checker verifies the Definition 2.7 conditions:

Attribute schema
    * every required attribute of every class in ``class(e)`` has a value;
    * every attribute with a value is allowed by some class in
      ``class(e)`` (``objectClass`` itself is always permitted, and
      entries of an *extensible* class — Section 6.1 — are exempt).

Class schema
    * only classes of the schema occur;
    * at least one core class occurs;
    * single inheritance: the core classes of ``e`` are exactly one
      root-to-node chain of the hierarchy — this realizes all the
      ``ci ⊑ cj`` / ``ci ⊥ cj`` elements in
      ``O(|class(e)| + depth(H))`` rather than pairwise;
    * every auxiliary class occurs in ``Aux(c)`` of some core class of
      ``e``.

The per-entry cost matches the Section 3.1 bound
``O(|class(e)| + max|Aux| * depth(H) + |val(e)| + Σ|a(c)|)``.
"""

from __future__ import annotations

from typing import AbstractSet, List, Optional, Set

from repro.model.attributes import OBJECT_CLASS
from repro.model.entry import Entry
from repro.model.instance import DirectoryInstance
from repro.legality.report import Kind, LegalityReport, Violation
from repro.schema.directory_schema import DirectorySchema

__all__ = ["ContentChecker"]


class ContentChecker:
    """Checks instances and single entries against the content schema
    ``(A, H)`` of a directory schema."""

    def __init__(self, schema: DirectorySchema) -> None:
        self.schema = schema
        self.attribute_schema = schema.attribute_schema
        self.class_schema = schema.class_schema
        self.extras = schema.extras

    # ------------------------------------------------------------------
    # entry-level checking
    # ------------------------------------------------------------------
    def check_entry(self, entry: Entry, dn: Optional[str] = None) -> List[Violation]:
        """All content violations of one entry."""
        where = dn if dn is not None else str(entry.dn)
        violations: List[Violation] = []
        violations.extend(self.class_violations(entry.classes, where))
        violations.extend(self._check_attributes(entry, where))
        return violations

    def class_violations(self, classes: AbstractSet[str], where: str) -> List[Violation]:
        """The class-schema violations of an entry at ``where`` whose
        class set is ``classes`` — a function of the set alone."""
        schema = self.class_schema
        violations: List[Violation] = []

        # Sorted, like every loop below: the verdict — text and order —
        # is a function of the class *set*, not of its iteration order.
        core: List[str] = []
        for name in sorted(classes):
            if name not in schema:
                violations.append(
                    Violation(
                        Kind.UNKNOWN_CLASS,
                        f"class {name!r} is not in the class schema",
                        dn=where,
                    )
                )
            elif schema.is_core(name):
                core.append(name)

        if not core:
            violations.append(
                Violation(
                    Kind.NO_CORE_CLASS,
                    "entry belongs to no core object class",
                    dn=where,
                )
            )
            return violations

        # Single inheritance: the deepest core class's superclass chain
        # must cover every core class of the entry (chain test, giving
        # the O(|class(e)| + depth(H)) bound of Section 3.1).
        deepest = max(core, key=lambda c: len(schema.superclasses(c)))
        lineage = schema.superclasses(deepest)
        chain = set(lineage)
        for name in lineage:
            if name not in classes:
                violations.append(
                    Violation(
                        Kind.MISSING_SUPERCLASS,
                        f"entry belongs to {deepest!r} but not to its "
                        f"superclass {name!r} (single inheritance)",
                        dn=where,
                        element=f"{deepest} ⊑ {name}",
                    )
                )
        for name in core:
            if name not in chain:
                violations.append(
                    Violation(
                        Kind.INCOMPARABLE_CORE_CLASSES,
                        f"core classes {deepest!r} and {name!r} are "
                        "incomparable (single inheritance forbids joint "
                        "membership)",
                        dn=where,
                        element=f"{deepest} ⊥ {name}",
                    )
                )

        allowed_aux: Set[str] = set()
        for name in core:
            allowed_aux |= schema.aux(name)
        for name in sorted(classes):
            if name in schema and schema.is_auxiliary(name) and name not in allowed_aux:
                violations.append(
                    Violation(
                        Kind.DISALLOWED_AUXILIARY,
                        f"auxiliary class {name!r} is not in Aux(c) of any "
                        "core class of the entry",
                        dn=where,
                    )
                )
        return violations

    def _check_attributes(self, entry: Entry, where: str) -> List[Violation]:
        schema = self.attribute_schema
        violations: List[Violation] = []
        classes = entry.classes

        for object_class in sorted(classes):
            for attribute in sorted(schema.required(object_class)):
                if not entry.has_attribute(attribute):
                    violations.append(
                        Violation(
                            Kind.MISSING_REQUIRED_ATTRIBUTE,
                            f"attribute {attribute!r} is required by class "
                            f"{object_class!r} but absent",
                            dn=where,
                        )
                    )

        if self.extras is not None and self.extras.is_extensible(classes):
            return violations

        for attribute in sorted(entry.attribute_names()):
            if attribute == OBJECT_CLASS:
                continue
            if not schema.allowed_by_any(classes, attribute):
                violations.append(
                    Violation(
                        Kind.DISALLOWED_ATTRIBUTE,
                        f"attribute {attribute!r} is not allowed by any "
                        "class of the entry",
                        dn=where,
                    )
                )
        return violations

    # ------------------------------------------------------------------
    # instance-level checking
    # ------------------------------------------------------------------
    def check(self, instance: DirectoryInstance) -> LegalityReport:
        """Content-check every entry; linear in ``|D|``.

        DNs come from the instance's O(1) key cache, so the pass stays
        linear even on pathologically deep directories.
        """
        report = LegalityReport()
        for entry in instance:
            report.extend(self.check_entry(entry, dn=instance.dn_string_of(entry)))
        return report

    def is_legal(self, instance: DirectoryInstance) -> bool:
        """Whether every entry passes the content check."""
        for entry in instance:
            if self.check_entry(entry, dn=instance.dn_string_of(entry)):
                return False
        return True
