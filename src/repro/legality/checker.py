"""The full legality test (Definition 2.7, Theorem 3.1).

:class:`LegalityChecker` is the paper's name for the one checking path:
a :class:`~repro.legality.engine.CheckSession`, whose ``check`` combines
the per-entry content check (Section 3.1), the Figure 4 structure
queries (Section 3.2, batched by the
:class:`~repro.legality.structure_engine.StructureEngine`) and — when
the schema declares extras — the Section 6.1 checks, into one
``O(|D| * (...))`` pass matching the Theorem 3.1 bound.
"""

from __future__ import annotations

from repro.legality.engine import CheckSession
from repro.schema.directory_schema import DirectorySchema

__all__ = ["LegalityChecker"]


class LegalityChecker(CheckSession):
    """Tests whether directory instances are legal w.r.t. one schema.

    The checker is schema-bound and reusable across instances: the
    Figure 4 queries are compiled once at construction time, and
    verdicts are memoized under content and class fingerprints.

    Parameters
    ----------
    schema:
        The bounding-schema to check against.
    structure:
        An expectation, not a selector: there is one structure-checking
        path, ``"batched"``; any other value is a ``ValueError``.
    """

    def __init__(self, schema: DirectorySchema, structure: str = "batched") -> None:
        if structure != "batched":
            raise ValueError(
                f"unknown structure strategy {structure!r}: the batched "
                "structure engine is the one checking path"
            )
        super().__init__(schema)
