"""The memoized legality engine (``CheckSession``).

Theorem 3.1 makes the legality test linear in ``|D|``; this module
attacks the constant factor.  A :class:`CheckSession`:

1. **memoizes** content verdicts keyed by each entry's *content
   fingerprint* (:meth:`repro.model.entry.Entry.content_fingerprint` — a
   stable digest of classes plus the attribute multiset, invalidated at
   the mutation sites), so a re-check after a subtree update re-runs
   content checks only on the dirty set: cost O(|Δ|), not O(|D|);
2. **deduplicates** the misses of one pass by fingerprint: entries with
   identical content are content-checked once;
3. **observes** itself: every check produces a
   :class:`~repro.legality.metrics.CheckStats` (entries checked, cache
   hits, query work, per-phase wall time) attached to the returned
   report and accumulated on the session.

The structure phase runs on the
:class:`~repro.legality.structure_engine.StructureEngine`: the whole
Figure 4 check set is evaluated as one batch (combined flag passes,
per-element verdict memoization keyed on class fingerprints).  Extras
checking remains the global single-pass algorithm of Section 6.1.

:meth:`CheckSession.check` is the one place a full verdict (content →
structure → extras) is composed, and it has one path: sequential and
memoized.  ``validate``/``check``, the server's ``check`` op, store
creation, recovery, ``DirectoryStore.check`` and every reader view call
it.  The paper's literal algorithms
(:class:`~repro.legality.structure.QueryStructureChecker`, the
quadratic :class:`~repro.legality.structure.NaiveStructureChecker`)
stay as classes nothing here selects; the differential tests compose
them with the sequential :class:`ContentChecker` as the oracle: same
violations, same order.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.legality.content import ContentChecker
from repro.legality.extras import ExtrasChecker
from repro.legality.metrics import CheckStats
from repro.legality.report import LegalityReport, Violation
from repro.legality.structure_engine import StructureEngine
from repro.model.entry import Entry
from repro.model.instance import DirectoryInstance
from repro.schema.directory_schema import DirectorySchema

__all__ = ["CheckSession"]

#: A content verdict as cached: DN-independent (kind, message, element)
#: triples, rebound to the offending entry's DN on report assembly.
Verdict = Tuple[Tuple[str, str, Optional[str]], ...]

#: Maximum number of cached content verdicts; eviction is LRU (one
#: coldest verdict per insertion beyond the limit), so hot verdicts
#: survive adversarial streams of ever-fresh content.
CACHE_LIMIT = 1_000_000


class CheckSession:
    """A reusable legality-checking session: the compiled checkers plus
    the verdict cache.

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
        self._cache: "OrderedDict[str, Verdict]" = OrderedDict()

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

    def clear_cache(self) -> None:
        """Drop every memoized verdict (content and structure)."""
        self._cache.clear()
        self.structure.clear_memo()

    @property
    def cache_size(self) -> int:
        """Number of distinct fingerprints with a cached verdict."""
        return len(self._cache)

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
            report.extend(self._check_content(instance, stats))
        with stats.timer("structure"):
            report.extend(self.structure.check(instance).violations)
        stats.queries_evaluated += self.structure.last_cost
        stats.structure_checks += self.structure.last_checks_evaluated
        stats.structure_cache_hits += self.structure.last_cache_hits
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
        """Memoized per-entry content check (same verdicts as
        :meth:`ContentChecker.check_entry`).

        This is the hook the incremental checker (Section 4.2) feeds its
        Δ through: verdicts computed while vetting a subtree insertion
        are cached under content fingerprints, so a later session
        re-check of the updated instance pays nothing for Δ.
        """
        where = dn if dn is not None else str(entry.dn)
        fingerprint = entry.content_fingerprint()
        verdict = self._cache.get(fingerprint)
        if verdict is not None:
            self._cache.move_to_end(fingerprint)
        if verdict is None:
            self.stats.cache_misses += 1
            self.stats.entries_checked += 1
            verdict = tuple(
                (v.kind, v.message, v.element)
                for v in self.content.check_entry(entry, dn=where)
            )
            self._store(fingerprint, verdict)
        else:
            self.stats.cache_hits += 1
        return [
            Violation(kind, message, dn=where, element=element)
            for kind, message, element in verdict
        ]

    # ------------------------------------------------------------------
    # content phase
    # ------------------------------------------------------------------
    def _check_content(
        self, instance: DirectoryInstance, stats: CheckStats
    ) -> List[Violation]:
        entries = list(instance)
        # Pass 1: resolve memoized verdicts, collect the miss set.
        verdicts: List[Optional[Verdict]] = [None] * len(entries)
        misses: List[int] = []
        for index, entry in enumerate(entries):
            cached = self._cache.get(entry.content_fingerprint())
            if cached is None:
                misses.append(index)
            else:
                self._cache.move_to_end(entry.content_fingerprint())
                verdicts[index] = cached
        stats.cache_hits += len(entries) - len(misses)
        stats.cache_misses += len(misses)

        # Pass 2: check the misses.  Within a pass, entries sharing a
        # fingerprint are checked once (a verdict is a pure function of
        # the fingerprinted content), so ``entries_checked`` counts
        # checks actually executed.
        if misses:
            results: Dict[str, Verdict] = {}
            for index in misses:
                entry = entries[index]
                fingerprint = entry.content_fingerprint()
                if fingerprint in results:
                    continue
                results[fingerprint] = tuple(
                    (v.kind, v.message, v.element)
                    for v in self.content.check_entry(
                        entry, dn=instance.dn_string_of(entry)
                    )
                )
            stats.entries_checked += len(results)
            for index in misses:
                fingerprint = entries[index].content_fingerprint()
                verdict = results[fingerprint]
                verdicts[index] = verdict
                self._store(fingerprint, verdict)

        # Pass 3: assemble in document order, binding DNs lazily (legal
        # entries — the common case — never pay the DN lookup).
        violations: List[Violation] = []
        for entry, verdict in zip(entries, verdicts):
            assert verdict is not None
            if verdict:
                where = instance.dn_string_of(entry)
                violations.extend(
                    Violation(kind, message, dn=where, element=element)
                    for kind, message, element in verdict
                )
        return violations

    # ------------------------------------------------------------------
    # cache internals
    # ------------------------------------------------------------------
    def _store(self, fingerprint: str, verdict: Verdict) -> None:
        if fingerprint in self._cache:
            self._cache.move_to_end(fingerprint)
            self._cache[fingerprint] = verdict
            return
        # LRU eviction: drop exactly the coldest verdict per insertion
        # beyond the limit — hot entries survive adversarial streams of
        # ever-fresh content (a wholesale clear() would not).
        while len(self._cache) >= CACHE_LIMIT:
            self._cache.popitem(last=False)
        self._cache[fingerprint] = verdict
