"""Observability for the legality engine.

:class:`CheckStats` is the machine-readable record one
:class:`~repro.legality.engine.CheckSession` check leaves behind:
counters (entries content-checked, query evaluator work, violations
found) and per-phase wall-clock timings.  The
engine attaches a snapshot to every
:class:`~repro.legality.report.LegalityReport` it produces
(``report.stats``) and keeps a cumulative copy on the session;
the ``check --profile`` CLI renders :meth:`CheckStats.format_table`.

Counters, not timings, are what the benchmark gates assert on — wall
clock varies with the machine, the number of content checks actually
executed does not (the FIG5 philosophy of measuring *shape*).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterator, List, Tuple

__all__ = ["CheckStats"]


@dataclass
class CheckStats:
    """Counters and timers describing one (or several) legality checks.

    Attributes
    ----------
    entries_checked:
        Per-entry content checks executed: ``|D|`` for a full check, the
        entries of Δ for a guarded update.
    cache_hits / cache_misses:
        Always 0: the engine keeps no verdict cache.  The fields stay
        only because ``benchmarks/e2e/layers.py`` reads them for its
        ``incremental.cache_hit_share`` row; they go in the
        benchmark-only change that retires that row (ROADMAP item
        1B(b)).
    queries_evaluated:
        Work done by the hierarchical query evaluator (entries touched)
        during structure checking.
    structure_checks:
        Structure-schema elements evaluated — the structure-phase
        analogue of ``entries_checked``.
    structure_batched:
        Structure elements answered by the combined bitmask flag pass
        instead of an individual Figure 4 query evaluation.
    flag_passes:
        Whole-forest flag-propagation sweeps performed (the batched
        engine needs at most 2 per check, one per direction, however
        many elements share them).
    violations:
        Violations reported.
    index_probes / index_hits / index_candidates:
        Secondary-index activity (:mod:`repro.store.index`): posting-list
        probes issued, probes that found a non-empty posting list, and
        total candidate entries those postings named.  Populated by the
        index-backed extras delta checks and by index-planned searches;
        ``candidates`` is the work-unit the bench gates compare against
        ``|D|`` to certify sublinearity.
    phase_seconds:
        Wall-clock seconds per phase (``content``, ``structure``,
        ``extras``, ...).
    """

    entries_checked: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    queries_evaluated: int = 0
    structure_checks: int = 0
    structure_batched: int = 0
    flag_passes: int = 0
    violations: int = 0
    index_probes: int = 0
    index_hits: int = 0
    index_candidates: int = 0
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    @contextmanager
    def timer(self, phase: str) -> Iterator[None]:
        """Accumulate the wall time of the ``with`` body under ``phase``."""
        started = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - started
            self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + elapsed

    def merge(self, other: "CheckStats") -> None:
        """Fold ``other``'s counters and timings into this record."""
        self.entries_checked += other.entries_checked
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.queries_evaluated += other.queries_evaluated
        self.structure_checks += other.structure_checks
        self.structure_batched += other.structure_batched
        self.flag_passes += other.flag_passes
        self.violations += other.violations
        self.index_probes += other.index_probes
        self.index_hits += other.index_hits
        self.index_candidates += other.index_candidates
        for phase, seconds in other.phase_seconds.items():
            self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds

    def copy(self) -> "CheckStats":
        """An independent snapshot of this record."""
        snapshot = CheckStats()
        snapshot.merge(self)
        return snapshot

    def since(self, baseline: "CheckStats") -> "CheckStats":
        """The delta from ``baseline`` to this record — what happened
        between two snapshots of a cumulative session counter (used by
        :meth:`repro.store.journal.DirectoryStore.apply` to attribute
        check work to one transaction)."""
        delta = CheckStats(
            entries_checked=self.entries_checked - baseline.entries_checked,
            cache_hits=self.cache_hits - baseline.cache_hits,
            cache_misses=self.cache_misses - baseline.cache_misses,
            queries_evaluated=self.queries_evaluated - baseline.queries_evaluated,
            structure_checks=self.structure_checks - baseline.structure_checks,
            structure_batched=self.structure_batched - baseline.structure_batched,
            flag_passes=self.flag_passes - baseline.flag_passes,
            violations=self.violations - baseline.violations,
            index_probes=self.index_probes - baseline.index_probes,
            index_hits=self.index_hits - baseline.index_hits,
            index_candidates=self.index_candidates - baseline.index_candidates,
        )
        for phase, seconds in self.phase_seconds.items():
            before = baseline.phase_seconds.get(phase, 0.0)
            if seconds - before > 0.0:
                delta.phase_seconds[phase] = seconds - before
        return delta

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    @property
    def total_seconds(self) -> float:
        """Total wall time across all recorded phases."""
        return sum(self.phase_seconds.values())

    def rows(self) -> List[Tuple[str, str]]:
        """(label, value) rows for the ``--profile`` table."""
        rows: List[Tuple[str, str]] = [
            ("entries content-checked", str(self.entries_checked)),
            ("query work (entries touched)", str(self.queries_evaluated)),
            ("structure checks evaluated", str(self.structure_checks)),
            ("structure checks batched", str(self.structure_batched)),
            ("flag passes", str(self.flag_passes)),
            ("violations", str(self.violations)),
            ("index probes", str(self.index_probes)),
            ("index probe hits", str(self.index_hits)),
            ("index candidates", str(self.index_candidates)),
        ]
        for phase in sorted(self.phase_seconds):
            rows.append((f"{phase} wall time", f"{self.phase_seconds[phase] * 1e3:.1f} ms"))
        rows.append(("total wall time", f"{self.total_seconds * 1e3:.1f} ms"))
        return rows

    def format_table(self) -> str:
        """The ``--profile`` table: aligned two-column plain text."""
        rows = self.rows()
        width = max(len(label) for label, _ in rows)
        lines = [f"  {label.ljust(width)}  {value}" for label, value in rows]
        return "\n".join(["profile:"] + lines)

    def __str__(self) -> str:
        return self.format_table()
