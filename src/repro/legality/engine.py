"""The parallel, memoized legality engine (``CheckSession``).

Theorem 3.1 makes the legality test linear in ``|D|``; this module
attacks the constant factor.  The Section 3.1 content check is *per
entry, independent* — embarrassingly parallel, exactly the property
validation engines for sibling formalisms (ShEx, SHACL) exploit — so a
:class:`CheckSession`:

1. **shards** the per-entry content check over document-order chunks
   across a ``concurrent.futures`` worker pool — a process pool with a
   pickled schema where possible, a thread pool as fallback — sized by
   ``parallelism=`` (``--jobs`` on the CLI) and entered only when at
   least :data:`MIN_PARALLEL` entries miss the cache;
2. **memoizes** content verdicts keyed by each entry's *content
   fingerprint* (:meth:`repro.model.entry.Entry.content_fingerprint` — a
   stable digest of classes plus the attribute multiset, invalidated at
   the mutation sites), so a re-check after a subtree update re-runs
   content checks only on the dirty set: cost O(|Δ|), not O(|D|);
3. **observes** itself: every check produces a
   :class:`~repro.legality.metrics.CheckStats` (entries checked, cache
   hits, query work, per-phase wall time) attached to the returned
   report and accumulated on the session.

The structure phase runs on the
:class:`~repro.legality.structure_engine.StructureEngine`: the whole
Figure 4 check set is evaluated as one batch (combined flag passes,
concurrent non-batched checks on the session's ``parallelism``,
per-element verdict memoization keyed on class fingerprints).  Extras
checking remains the global single-pass algorithm of Section 6.1.

:meth:`CheckSession.check` is the one place a full verdict (content →
structure → extras) is composed: ``validate``/``check``, the server's
``check`` op, store creation, recovery, ``DirectoryStore.check`` and
every reader view call it.  The paper's literal algorithms
(:class:`~repro.legality.structure.QueryStructureChecker`, the
quadratic :class:`~repro.legality.structure.NaiveStructureChecker`)
stay as classes nothing here selects; the differential tests compose
them with the sequential :class:`ContentChecker` as the oracle: same
violations, same order.
"""

from __future__ import annotations

import os
import pickle
from collections import OrderedDict
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.legality.content import ContentChecker
from repro.legality.extras import ExtrasChecker
from repro.legality.metrics import CheckStats
from repro.legality.report import LegalityReport, Violation
from repro.legality.structure_engine import StructureEngine
from repro.model.dn import RDN
from repro.model.entry import Entry
from repro.model.instance import DirectoryInstance
from repro.schema.directory_schema import DirectorySchema

__all__ = ["CheckSession"]

#: A content verdict as cached: DN-independent (kind, message, element)
#: triples, rebound to the offending entry's DN on report assembly.
Verdict = Tuple[Tuple[str, str, Optional[str]], ...]

#: One unit of worker input: (fingerprint, dn, classes, attributes).
_Payload = Tuple[str, str, Tuple[str, ...], Dict[str, List[object]]]

#: Entries are detached in workers; the RDN never participates in the
#: content check, so a placeholder suffices.
_PAYLOAD_RDN = RDN("cn", "payload")

#: A pass with fewer cache misses than this runs inline even when
#: ``parallelism > 1`` — pool latency would dominate.
MIN_PARALLEL = 2_048

#: Maximum number of cached content verdicts; eviction is LRU (one
#: coldest verdict per insertion beyond the limit), so hot verdicts
#: survive adversarial streams of ever-fresh content.
CACHE_LIMIT = 1_000_000

# ----------------------------------------------------------------------
# process-pool worker side
# ----------------------------------------------------------------------
_WORKER_CHECKER: Optional[ContentChecker] = None


def _init_worker(schema_bytes: bytes) -> None:
    """Process-pool initializer: unpickle the schema once per worker."""
    global _WORKER_CHECKER
    _WORKER_CHECKER = ContentChecker(pickle.loads(schema_bytes))


def _check_chunk(payloads: Sequence[_Payload]) -> List[Tuple[str, Verdict]]:
    """Content-check one chunk of detached entries (worker side)."""
    checker = _WORKER_CHECKER
    assert checker is not None, "worker used before initialization"
    return _run_chunk(checker, payloads)


def _run_chunk(
    checker: ContentChecker, payloads: Sequence[_Payload]
) -> List[Tuple[str, Verdict]]:
    results: List[Tuple[str, Verdict]] = []
    for fingerprint, dn, classes, attributes in payloads:
        entry = Entry(_PAYLOAD_RDN, classes, attributes)
        verdict = tuple(
            (v.kind, v.message, v.element)
            for v in checker.check_entry(entry, dn=dn)
        )
        results.append((fingerprint, verdict))
    return results


class CheckSession:
    """A reusable legality-checking session: worker pool + verdict cache.

    Parameters
    ----------
    schema:
        The bounding-schema; compiled once (Figure 4 queries, pickled
        schema bytes for pool workers).
    parallelism:
        Worker count for the content phase and the structure engine.
        ``None`` or ``<= 1`` runs sequentially (still memoized).  The
        content pool prefers processes and falls back to threads when
        the schema does not pickle or process pools are unavailable.
    """

    def __init__(
        self,
        schema: DirectorySchema,
        parallelism: Optional[int] = None,
    ) -> None:
        self.schema = schema
        self.parallelism = max(1, parallelism or 1)
        self.content = ContentChecker(schema)
        self.structure = StructureEngine(
            schema.structure_schema, parallelism=self.parallelism
        )
        self.extras = None if schema.extras is None else ExtrasChecker(schema.extras)
        #: Cumulative stats across every check this session ran.
        self.stats = CheckStats()
        self._cache: "OrderedDict[str, Verdict]" = OrderedDict()
        self._executor: Optional[Executor] = None
        self._pool_broken = False
        self._schema_bytes: Optional[bytes] = None
        self._chunk_runner: Callable[
            [Sequence[_Payload]], List[Tuple[str, Verdict]]
        ] = _check_chunk

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the worker pools (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self.structure.close()

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

        # Pass 2: check the misses — sharded across the pool when the
        # workload justifies it, inline otherwise.  Within a pass,
        # entries sharing a fingerprint are checked once (a verdict is a
        # pure function of the fingerprinted content), so
        # ``entries_checked`` counts checks actually executed.
        if misses:
            if self.parallelism > 1 and len(misses) >= MIN_PARALLEL:
                results = self._check_parallel(instance, entries, misses, stats)
            else:
                results = {}
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

    def _check_parallel(
        self,
        instance: DirectoryInstance,
        entries: List[Entry],
        misses: List[int],
        stats: CheckStats,
    ) -> Dict[str, Verdict]:
        # Deduplicate by fingerprint: identical content needs one check.
        payloads: Dict[str, _Payload] = {}
        for index in misses:
            entry = entries[index]
            fingerprint = entry.content_fingerprint()
            if fingerprint in payloads:
                continue
            payloads[fingerprint] = (
                fingerprint,
                instance.dn_string_of(entry),
                tuple(entry.classes),
                {
                    name: list(entry.values(name))
                    for name in entry.attribute_names()
                    if name != "objectClass"
                },
            )
        work = list(payloads.values())
        chunk_count = max(1, min(len(work), self.parallelism * 4))
        size = (len(work) + chunk_count - 1) // chunk_count
        chunks = [work[i : i + size] for i in range(0, len(work), size)]
        stats.chunks += len(chunks)

        executor = self._get_executor()
        results: Dict[str, Verdict] = {}
        if executor is not None:
            stats.workers = max(stats.workers, self.parallelism)
            try:
                for chunk_result in executor.map(self._chunk_runner, chunks):
                    results.update(chunk_result)
                return results
            except Exception:
                # A broken pool (killed worker, pickling trouble at call
                # time) must degrade, not fail: drop to the sequential
                # path and stop trying to parallelize this session.
                self.close()
                self._pool_broken = True
                results.clear()
        for chunk in chunks:
            results.update(_run_chunk(self.content, chunk))
        return results

    # ------------------------------------------------------------------
    # pool management
    # ------------------------------------------------------------------
    def _get_executor(self) -> Optional[Executor]:
        if self._executor is not None:
            return self._executor
        if self._pool_broken or self.parallelism <= 1:
            return None
        try:
            self._executor = ProcessPoolExecutor(
                max_workers=self.parallelism,
                initializer=_init_worker,
                initargs=(self._pickled_schema(),),
            )
            self._chunk_runner = _check_chunk
        except Exception:
            # Schema unpicklable or no process support here — threads
            # still help when checks release the GIL and keep the code
            # path uniform when they do not.  Thread workers share this
            # process; bind this session's checker directly (no
            # module-level global — sessions must not clash).
            self._executor = ThreadPoolExecutor(max_workers=self.parallelism)
            self._chunk_runner = partial(_run_chunk, self.content)
        return self._executor

    def _pickled_schema(self) -> bytes:
        if self._schema_bytes is None:
            self._schema_bytes = pickle.dumps(self.schema)
        return self._schema_bytes

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

    # ------------------------------------------------------------------
    # cache persistence (the DirectoryStore sidecar)
    # ------------------------------------------------------------------
    def export_verdicts(self) -> Dict[str, List[List[Optional[str]]]]:
        """The fingerprint cache as a JSON-serializable mapping —
        ``fingerprint -> [[kind, message, element-or-null], ...]`` —
        for the :mod:`repro.store.journal` warm-start sidecar.
        Fingerprints are content digests (position-independent and
        stable across processes), so exported verdicts stay valid for
        any instance checked under the same schema."""
        return {
            fingerprint: [list(entry) for entry in verdict]
            for fingerprint, verdict in self._cache.items()
        }

    def import_verdicts(self, payload: Mapping[str, object]) -> int:
        """Warm the fingerprint cache from :meth:`export_verdicts`
        output.  Malformed rows are rejected wholesale (``ValueError``)
        — a corrupt sidecar must degrade to a cold start, never seed a
        wrong verdict.  Returns the number of verdicts imported."""
        staged: List[Tuple[str, Verdict]] = []
        for fingerprint, rows in payload.items():
            if not isinstance(fingerprint, str) or not isinstance(rows, list):
                raise ValueError("malformed verdict-cache payload")
            verdict: List[Tuple[str, str, Optional[str]]] = []
            for row in rows:
                if (
                    not isinstance(row, list)
                    or len(row) != 3
                    or not isinstance(row[0], str)
                    or not isinstance(row[1], str)
                    or not (row[2] is None or isinstance(row[2], str))
                ):
                    raise ValueError("malformed verdict-cache payload")
                verdict.append((row[0], row[1], row[2]))
            staged.append((fingerprint, tuple(verdict)))
        for fingerprint, verdict in staged:
            self._store(fingerprint, verdict)
        return len(staged)


def default_parallelism() -> int:
    """A sensible ``--jobs`` default: the machine's CPU count."""
    return os.cpu_count() or 1
