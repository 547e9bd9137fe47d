"""The legality engine (``CheckSession``).

Theorem 3.1 makes the legality test one content check per entry plus
one Figure 4 query per structure element.  A :class:`CheckSession` runs
exactly that, once per call:

1. **content** — one pass in document order.  The class part of the
   Section 3.1 check depends on an entry's class set alone, so the
   session compiles it once per distinct set (a *plan*: the class-level
   verdict, ``∪ r(c)`` and ``∪ a(c)``) and passes a legal entry with two
   set operations and no DN.  An entry its plan cannot pass goes to the
   literal :meth:`ContentChecker.check_entry`, which names every
   violation, so the verdict is the sequential one;
2. **structure** — the whole Figure 4 check set evaluated as one batch
   on the :class:`~repro.legality.structure_engine.StructureEngine`
   (combined flag passes);
3. **extras** — the global single-pass algorithm of Section 6.1.

Every check is cold: the session keeps no verdict between calls.  The
plans it keeps are a compilation of the schema, one per class set seen,
and say nothing about any instance.  A view keeps its verdict under
updates by running the Section 4 Δ-checks as it replays frames
(:mod:`repro.updates.incremental`), so nothing on the serving path
re-checks an instance a session has seen.  Each check
produces a :class:`~repro.legality.metrics.CheckStats` (entries
checked, query work, per-phase wall time) attached to the returned
report and accumulated on the session.

:meth:`CheckSession.check` is the one place a full verdict (content →
structure → extras) is composed, and it has one path.
``validate``/``check``, the server's ``check`` op, store creation,
recovery, ``DirectoryStore.check`` and every reader view call it.  The
paper's literal algorithms
(:class:`~repro.legality.structure.QueryStructureChecker`, the
quadratic :class:`~repro.legality.structure.NaiveStructureChecker`)
stay as classes nothing here selects; the differential tests compose
them with the sequential :class:`ContentChecker` as the oracle: same
violations, same order.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, FrozenSet, List, Optional, Tuple

from repro.legality.content import ContentChecker
from repro.legality.extras import ExtrasChecker
from repro.legality.metrics import CheckStats
from repro.legality.report import LegalityReport, Violation
from repro.legality.structure_engine import StructureEngine
from repro.model.attributes import OBJECT_CLASS
from repro.model.entry import Entry
from repro.model.instance import DirectoryInstance
from repro.schema.directory_schema import DirectorySchema

__all__ = ["CheckSession"]

#: A compiled content plan: the attributes an entry must hold and the
#: ones it may hold (``None`` when the class set is extensible) — or
#: ``None`` when the class set itself is illegal.
_Plan = Optional[Tuple[FrozenSet[str], Optional[FrozenSet[str]]]]


class CheckSession:
    """A reusable legality-checking session: the compiled checkers and
    their cumulative stats.

    Parameters
    ----------
    schema:
        The bounding-schema; compiled once (Figure 4 queries).
    """

    def __init__(self, schema: DirectorySchema) -> None:
        self.schema = schema
        self.content = ContentChecker(schema)
        self.structure = StructureEngine(schema.structure_schema)
        self.extras = None if schema.extras is None else ExtrasChecker(schema.extras)
        #: Cumulative stats across every check this session ran.
        self.stats = CheckStats()
        self._plans: Dict[FrozenSet[str], _Plan] = {}
        #: Content plans compiled so far: one per distinct class set.
        self.plans_built = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Nothing to release: a session holds no workers or files.
        Kept so a session is a context manager like the views that own
        one."""

    def __enter__(self) -> "CheckSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # checking
    # ------------------------------------------------------------------
    def check(self, instance: DirectoryInstance) -> LegalityReport:
        """The full legality report for ``instance`` (Definition 2.7):
        content, then structure, then the Section 6.1 extras.  The
        returned report carries this check's
        :class:`~repro.legality.metrics.CheckStats` under
        ``report.stats``.
        """
        stats = CheckStats()
        report = LegalityReport(stats=stats)
        with stats.timer("content"):
            passes = self._passes
            check_entry = self.content.check_entry
            for entry in instance:
                if not passes(entry):
                    report.extend(check_entry(entry, dn=instance.dn_string_of(entry)))
        stats.entries_checked += len(instance)
        with stats.timer("structure"):
            report.extend(self.structure.check(instance).violations)
        stats.queries_evaluated += self.structure.last_cost
        stats.structure_checks += len(self.structure.checks)
        stats.structure_batched += self.structure.last_batched
        stats.flag_passes += self.structure.last_flag_passes
        if self.extras is not None:
            with stats.timer("extras"):
                report.extend(self.extras.check(instance).violations)
        stats.violations = len(report)
        self.stats.merge(stats)
        return report

    def is_legal(self, instance: DirectoryInstance) -> bool:
        """Yes/no legality verdict."""
        return self.check(instance).is_legal

    def check_entry(self, entry: Entry, dn: Optional[str] = None) -> List[Violation]:
        """One entry's content check (:meth:`ContentChecker.check_entry`),
        counted in ``stats.entries_checked``.

        This is the hook the incremental checker (Section 4.2) feeds its
        Δ through.
        """
        self.stats.entries_checked += 1
        if self._passes(entry):
            return []
        return self.content.check_entry(entry, dn=dn)

    # ------------------------------------------------------------------
    # content plans
    # ------------------------------------------------------------------
    def _passes(self, entry: Entry) -> bool:
        """Whether ``entry``'s class-set plan passes it: ``False`` means
        "run the literal check", which then names the violations."""
        classes = entry.classes
        try:
            plan = self._plans[classes]
        except KeyError:
            plan = self._plans[classes] = self._compile(classes)
        if plan is None:
            return False
        required, allowed = plan
        held = entry.held_attributes()
        return required <= held and (allowed is None or held <= allowed)

    def _compile(self, classes: AbstractSet[str]) -> _Plan:
        """The plan of one class set: paid once, at the Section 3.1
        per-entry bound, for every entry that holds the set."""
        self.plans_built += 1
        if self.content.class_violations(classes, ""):
            return None
        attributes = self.schema.attribute_schema
        required: FrozenSet[str] = frozenset().union(
            *(attributes.required(c) for c in classes)
        ) - {OBJECT_CLASS}
        extras = self.schema.extras
        if extras is not None and extras.is_extensible(classes):
            return required, None
        return required, frozenset().union(*(attributes.allowed(c) for c in classes))
