"""Schema workbench: exploring the Section 5 consistency machinery.

Walks through the paper's worked inconsistency examples (cycles,
hierarchy-induced cycles, contradictions), shows proof trees, uses the
empty-class lint, cross-checks verdicts against the bounded model finder,
and synthesizes witnesses.

Run with::

    python examples/schema_workbench.py
"""

import os
import sys

from repro.axes import Axis
from repro.consistency import check_consistency, close
from repro.schema import (
    AttributeSchema,
    ClassSchema,
    DirectorySchema,
    StructureSchema,
    Subclass,
)
from repro.schema.elements import RequiredClass, RequiredEdge

# The bounded model finder is the test suite's semantic oracle, not
# library code; it lives with the tests.
sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests")
)
from modelfinder import find_model  # noqa: E402


def show(title: str) -> None:
    print()
    print(f"=== {title} " + "=" * max(0, 60 - len(title)))


def report(schema: DirectorySchema) -> None:
    result = check_consistency(schema, synthesize=True)
    print(f"  consistent: {result.consistent}")
    if result.consistent:
        empties = result.empty_classes()
        if empties:
            print(f"  lint: classes that can never be populated: {sorted(empties)}")
        if result.witness is not None:
            print(f"  witness: legal instance with {len(result.witness)} entries")
    else:
        print("  proof:")
        for line in (result.proof() or "").splitlines():
            print(f"    {line}")
    model = find_model(schema, max_entries=4)
    print(f"  bounded model finder (≤4 entries) agrees: "
          f"{(model is not None) == result.consistent} "
          f"{'(model: ' + repr(model) + ')' if model else ''}")


def flat_schema(*names: str) -> ClassSchema:
    classes = ClassSchema()
    for name in names:
        classes.add_core(name)
    return classes


def main() -> None:
    # ------------------------------------------------------------------
    show("Section 5.1: a cycle — c1 □, c1 → c2, c2 →→ c1")
    structure = (
        StructureSchema()
        .require_class("c1")
        .require_child("c1", "c2")
        .require_descendant("c2", "c1")
    )
    report(DirectorySchema(AttributeSchema(), flat_schema("c1", "c2"), structure))

    show("Footnote 3: the same edges without c1 □ are satisfiable")
    structure = (
        StructureSchema().require_child("c1", "c2").require_descendant("c2", "c1")
    )
    report(DirectorySchema(AttributeSchema(), flat_schema("c1", "c2"), structure))

    # ------------------------------------------------------------------
    show("Section 5.1: a cycle through the class hierarchy")
    print("  c1 □, c2 → c3, c4 →→ c5   with   c1 ⊑ c2, c3 ⊑ c4, c5 ⊑ c1")
    closure = close([
        RequiredClass("c1"),
        RequiredEdge(Axis.CHILD, "c2", "c3"),
        RequiredEdge(Axis.DESCENDANT, "c4", "c5"),
        Subclass("c1", "c2"),
        Subclass("c3", "c4"),
        Subclass("c5", "c1"),
    ])
    print(f"  consistent: {closure.consistent}")
    print("  proof:")
    for line in (closure.proof_of_inconsistency() or "").splitlines():
        print(f"    {line}")

    # ------------------------------------------------------------------
    show("Section 5.2: a contradiction — c1 □, c1 →→ c2, c1 ↛↛ c2")
    structure = (
        StructureSchema()
        .require_class("c1")
        .require_descendant("c1", "c2")
        .forbid_descendant("c1", "c2")
    )
    report(DirectorySchema(AttributeSchema(), flat_schema("c1", "c2"), structure))

    # ------------------------------------------------------------------
    show("A subtle case found by differential testing (see DESIGN.md)")
    print("  k4 → k1, k1 ⇐⇐ k2 (required ancestor), k2 ⇐ k4 (required")
    print("  parent), k2 □: every k4 needs a k2 strictly above it, and")
    print("  every k2 needs a k4 strictly above it — an infinite tower.")
    structure = (
        StructureSchema()
        .require_class("k2")
        .require_child("k4", "k1")
        .require_ancestor("k1", "k2")
        .require_parent("k2", "k4")
    )
    report(DirectorySchema(AttributeSchema(), flat_schema("k1", "k2", "k4"), structure))

    # ------------------------------------------------------------------
    show("The empty-class lint on a consistent schema")
    print("  c →→ c alone is consistent — but only because no legal")
    print("  instance may contain a c at all; worth telling the author:")
    structure = StructureSchema().require_descendant("c", "c").require_class("d")
    report(DirectorySchema(AttributeSchema(), flat_schema("c", "d"), structure))


if __name__ == "__main__":
    main()
