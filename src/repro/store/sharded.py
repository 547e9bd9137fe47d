"""Sharding the DIT across independent stores behind one view.

:class:`ShardedStore` routes disjoint DIT subtrees to independent
:class:`~repro.store.journal.DirectoryStore` directories — one WAL,
snapshot, manifest, and advisory lock per shard — via a persisted,
checksummed shard map (:mod:`repro.store.shardmap`).
:class:`CompositeReader` stitches per-shard lock-free
:class:`~repro.store.reader.StoreReader` views back into one read
surface.  Theorem 4.1's subtree modularity is what licenses the split:
a transaction touching one shard's subtree is checkable against that
shard alone, *except* for the checks whose scope spans the routing cut
— classified up front by :func:`repro.legality.scope.analyze_shard_scope`
and enforced here on the composite view.

Layout::

    root/
      shardmap            # checksummed routing table (written LAST)
      shards/
        <name>/           # a plain DirectoryStore per shard
          snapshot.ldif, journal.ldif, manifest, lock, ...

Enforcement split:

* **content** checks and **shard-local** structure checks ride the
  per-shard store's own incremental guard, unchanged;
* **required classes** and (under a nested cut) **cut-spanning edges**
  are enforced by :meth:`ShardedStore.apply` *before* anything becomes
  durable: a routed (single-shard) change is staged in memory
  (:meth:`~repro.store.journal.DirectoryStore.stage`),
  composite-checked, and only then journaled — a composite violation
  rolls the staging back with **zero durable footprint**, so there is
  no compensation commit and no crash window in which a
  composite-illegal state is durable;
* a transaction **spanning shards** commits through two-phase commit:
  each owning shard stages and journals a durable-but-invisible
  ``#PREPARE`` frame, the composite check runs on the staged state,
  and a ``commit`` record in the root's coordinator log
  (:mod:`repro.store.txlog`) is the single commit point — participant
  ``#DECIDE`` frames then make the prepares visible.  Recovery is
  presumed abort: an in-doubt participant (prepared, undecided) is
  resolved from the coordinator log at the next
  :meth:`ShardedStore.open` / :meth:`ShardedStore.open_shard`, and
  without a durable commit record the prepare aborts.  Killing the
  coordinator or any participant at any protocol step therefore leaves
  — after recovery — either every shard committed or every shard
  rolled back (``tests/harness/crash2pc.py`` enumerates the steps);
* **unroutable** DNs still raise
  :class:`~repro.errors.ShardRoutingError` — no shard owns the entry,
  which is a caller bug, not a legality verdict.  Deleting a nested
  shard's *attachment entry* (the enclosing-shard entry its base hangs
  under) is a cross-cut subtree delete: it commits (through 2PC) when
  the same transaction also deletes every entry of the nested shard,
  and is otherwise rejected with exactly the
  ``LDAP deletes leaves only`` precondition a single union store would
  raise;
* an **orphaned shard** (a nested shard whose attachment entry a
  per-shard writer or crash nevertheless removed) is a *reported*
  state, not a raising one: stitching grafts the orphan's entries as
  detached roots and every ``check()`` surface adds an
  ``orphaned-shard`` violation, so search/fsck keep working against
  the damaged store.

Semantics note: the per-shard guard checks each Theorem 4.1 subtree
step of a transaction *stepwise*, while composite elements are checked
once against the transaction's *final* state.  The two disciplines
nevertheless return identical verdicts for every transaction
:func:`~repro.updates.transactions.decompose` accepts, mixed
insert+delete ones included, because its LDAP preconditions make an
intermediate-only violation unrepairable by a later step of the same
transaction (spanning ones included — 2PC decomposes a transaction
per shard but the composite check still runs once, on the union of
all staged shard states): (a) structure elements relate entries only to their
ancestors/descendants, and an inserted entry's in-transaction
descendants are grouped into its own step, so an insert-step violation
involves an *existing ancestor* — which no later step may delete
(deleting it would put the insert root's parent inside a deleted
subtree, which decompose refuses); (b) delete subtrees are whole and
their roots disjoint, so a required relationship broken by one delete
step cannot have its source removed by another (the source's subtree
would contain the already-deleted entry); (c) required-class
populations only grow during the insert phase and only shrink during
the delete phase, and insertions run first.  Hence an illegal
intermediate state implies an illegal final state, and checking
composite elements once at the end loses nothing —
``test_differential_against_union_store`` exercises this with mixed
transactions in the stream.
"""

from __future__ import annotations

import contextlib
import functools
import os
import shutil
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import ModelError, StoreError, UpdateError
from repro.ldif.modify import ModifyRecord
from repro.legality.extras import ExtrasChecker
from repro.legality.metrics import CheckStats
from repro.legality.report import Kind, LegalityReport, Violation
from repro.legality.scope import (
    ShardScope,
    analyze_shard_scope,
    composite_structure_schema,
    shard_local_schema,
)
from repro.legality.structure import QueryStructureChecker
from repro.model.attributes import AttributeRegistry
from repro.model.dn import DN, parse_dn
from repro.model.entry import Entry
from repro.model.instance import DirectoryInstance
from repro.query.search import SearchScope
from repro.query.search import search as _search
from repro.schema.directory_schema import DirectorySchema
from repro.schema.elements import RequiredClass
from repro.store import index as _index
from repro.store.journal import DirectoryStore
from repro.store.position import Position
from repro.store.reader import ReaderLag, RefreshResult, StoreReader
from repro.store.recovery import replay_change
from repro.store.txlog import TXLOG_FILE, TxLog, inspect_txlog
from repro.store.wal import StoreIO
from repro.store.shardmap import (
    ShardMap,
    ShardSpec,
    read_shard_map,
    shard_dir,
    write_shard_map,
)
from repro.updates.incremental import UpdateOutcome
from repro.updates.operations import (
    DeleteEntry,
    InsertEntry,
    UpdateTransaction,
)

__all__ = [
    "ShardedStore",
    "CompositeReader",
    "CompositeRefreshResult",
    "check_shards_parallel",
]


# ----------------------------------------------------------------------
# shared helpers (writer and reader sides enforce identical semantics)
# ----------------------------------------------------------------------
def _globalized(report: LegalityReport, spec: ShardSpec) -> LegalityReport:
    """Re-suffix the violation DNs of a shard-local report so they name
    entries in the composite namespace."""
    if spec.suffix.is_empty():
        out = LegalityReport(list(report.violations))
        out.stats = report.stats
        return out
    suffix = str(spec.suffix)
    out = LegalityReport()
    out.stats = report.stats
    for violation in report:
        dn = violation.dn if violation.dn is None else f"{violation.dn},{suffix}"
        out.add(
            Violation(violation.kind, violation.message, dn=dn,
                      element=violation.element)
        )
    return out


def _globalized_change(change, spec: ShardSpec, shard_map: ShardMap):
    """The twin of :func:`_globalized` for changes: re-suffix the DNs
    of a shard-local change (the transaction or modify list a shard
    view replayed) so it names entries in the composite namespace —
    the inverse of :func:`_shard_slices`."""
    if spec.suffix.is_empty():
        return change
    if isinstance(change, UpdateTransaction):
        out = UpdateTransaction()
        for op in change:
            dn = shard_map.globalize(op.dn, spec)
            out.operations.append(
                InsertEntry(dn, op.classes, op.attributes)
                if isinstance(op, InsertEntry)
                else DeleteEntry(dn)
            )
        return out
    return [
        ModifyRecord(shard_map.globalize(record.dn, spec), record.ops)
        for record in change
    ]


def _summed(total: Optional[CheckStats], stats: Optional[CheckStats]):
    """``total`` with one more shard's engine ``stats`` folded in (the
    first is copied: per-shard records stay their sessions' own)."""
    if stats is None:
        return total
    if total is None:
        return stats.copy()
    total.merge(stats)
    return total


def _orphan_report(
    shard_map: Optional[ShardMap],
    instances: Dict[str, DirectoryInstance],
) -> LegalityReport:
    """Violations for nested shards whose attachment entry is gone.

    A nested shard hangs off an entry of its enclosing shard (the
    shard's ``suffix``).  Per-shard writers (:meth:`ShardedStore.
    open_shard`, crash windows) can delete that entry out of the
    enclosing shard — the shard-local guard cannot see the nested
    shard's content — leaving a durable orphaned state.  That state is
    *reported* here as an :data:`~repro.legality.report.Kind.
    ORPHANED_SHARD` violation; stitching (:func:`_stitch`) tolerates
    it, so every read/check surface keeps working instead of raising.
    """
    report = LegalityReport()
    if shard_map is None:
        return report
    for spec in shard_map:
        if spec.suffix.is_empty() or len(instances[spec.name]) == 0:
            continue
        owner = shard_map.route(spec.suffix)
        local = shard_map.localize(spec.suffix, owner)
        if instances[owner.name].find(local) is None:
            report.add(
                _orphan_violation(
                    spec.name, len(instances[spec.name]),
                    str(spec.suffix), owner.name,
                )
            )
    return report


def _orphan_violation(
    shard_name: str, entry_count: int, suffix: str, owner_name: str
) -> Violation:
    return Violation(
        Kind.ORPHANED_SHARD,
        f"shard {shard_name!r} ({entry_count} entries) is orphaned: "
        f"its attachment entry {suffix!r} is missing from shard "
        f"{owner_name!r}",
        dn=suffix,
    )


def _composite_report(
    scope: ShardScope,
    shard_map: Optional[ShardMap],
    instances: Dict[str, DirectoryInstance],
    stitched,
) -> LegalityReport:
    """Evaluate the composite structure elements.

    ``stitched`` is a zero-argument callable producing the composite
    instance — only invoked when a cut-spanning edge actually needs
    it; a flat map's composite elements are just the required-class
    existence tests, answered from the per-shard class counts.
    ``shard_map`` is ``None`` when ``instances`` is not keyed by shard
    name (the pre-partition union at :meth:`ShardedStore.create` time,
    where an orphaned shard cannot exist).
    """
    report = _orphan_report(shard_map, instances)
    if scope.composite_edges:
        checker = QueryStructureChecker(composite_structure_schema(scope))
        report.extend(checker.check(stitched()).violations)
        return report
    for name in sorted(scope.required_classes):
        if sum(inst.class_count(name) for inst in instances.values()) == 0:
            report.add(
                Violation(
                    Kind.MISSING_REQUIRED_CLASS,
                    f"no entry belongs to required class {name!r}",
                    element=str(RequiredClass(name)),
                )
            )
    return report


def _stitch(
    shard_map: ShardMap,
    instances: Dict[str, DirectoryInstance],
    attributes: Optional[AttributeRegistry],
) -> DirectoryInstance:
    """Build the composite instance: graft each shard's subtree back at
    its base, enclosing shards (shallow bases) first so every nested
    cut finds its parent entry already present.

    A nested shard whose attachment entry is *missing* (an orphaned
    shard — see :func:`_orphan_report`) is grafted as detached roots
    instead of raising, so search/check surfaces over a damaged store
    report the violation rather than exploding on every call."""
    composite = DirectoryInstance(attributes=attributes)
    ordered = sorted(
        shard_map.specs, key=lambda s: (s.base.depth(), s.name)
    )
    for spec in ordered:
        parent = None if spec.suffix.is_empty() else str(spec.suffix)
        if parent is not None and composite.find(parent) is None:
            try:
                composite.insert_subtree(None, instances[spec.name])
            except ModelError:  # pragma: no cover - colliding wreckage
                # Detached roots can collide with existing entries in
                # an already-broken state; keep what stitched — the
                # orphan violation is reported either way.
                pass
            continue
        composite.insert_subtree(parent, instances[spec.name])
    return composite


def _global_document_key(instance: DirectoryInstance, entry: Entry):
    """Sort key giving the canonical global document order of a
    composite view: the root-first tuple of normalized RDN strings.

    Tuple comparison makes a parent sort before every descendant (its
    path is a strict prefix) and orders siblings by normalized RDN, so
    the order depends only on the *content* of the directory — not on
    shard layout, stitch order, or per-shard insertion history."""
    dn = instance.dn_of(entry)
    return tuple(str(rdn) for rdn in reversed(dn.normalized().rdns))


def _canonical_search(
    instance: DirectoryInstance,
    base,
    scope,
    filter,
    size_limit: Optional[int],
) -> List[Entry]:
    """Scoped search over a stitched composite, results in canonical
    global document order; ``size_limit`` truncates *after* ordering so
    the first N results are deterministic too."""
    results = _search(instance, base=base, scope=scope, filter=filter)
    results.sort(key=lambda entry: _global_document_key(instance, entry))
    if size_limit is not None and size_limit >= 0:
        del results[size_limit:]
    return results


def _shard_slices(
    shard_map: ShardMap, transaction: UpdateTransaction
) -> Dict[str, UpdateTransaction]:
    """The transaction cut along the routing map: each owning shard's
    operations, localized, in transaction order — keyed by shard name in
    first-touch order.  Raises :class:`ShardRoutingError` for a DN no
    shard owns."""
    slices: Dict[str, UpdateTransaction] = {}
    for op in transaction:
        spec = shard_map.route(op.dn)
        dn = shard_map.localize(op.dn, spec)
        local = slices.setdefault(spec.name, UpdateTransaction())
        if isinstance(op, InsertEntry):
            local.operations.append(InsertEntry(dn, op.classes, op.attributes))
        else:
            local.operations.append(DeleteEntry(dn))
    return slices


# ----------------------------------------------------------------------
# the writer
# ----------------------------------------------------------------------
class ShardedStore:
    """K independent :class:`DirectoryStore` directories behind one
    routed write surface.

    Create via :meth:`create`, reopen via :meth:`open`.  Each shard
    holds its subtree *localized* (the base's parent suffix stripped)
    and enforces the shard-local slice of the schema; this object owns
    routing, composite enforcement, and the shard map.
    """

    def __init__(
        self,
        directory: str,
        schema: DirectorySchema,
        shard_map: ShardMap,
        shards: Dict[str, DirectoryStore],
        scope: ShardScope,
        registry: Optional[AttributeRegistry] = None,
        io: Optional[StoreIO] = None,
    ) -> None:
        self._dir = directory
        self.schema = schema
        self.shard_map = shard_map
        self._shards = shards
        self.scope = scope
        self._registry = registry
        self._io = io if io is not None else StoreIO()
        # The coordinator log needs no lock of its own: only a writer
        # holding EVERY shard's advisory lock (this object) appends to
        # it, and `open_shard` writers can never coexist with one.
        self._txlog = TxLog.open(directory, io=self._io)
        self._closed = False
        self._composite_cache: Optional[
            Tuple[Tuple[Tuple[str, int, int], ...], DirectoryInstance]
        ] = None
        self._extras_stats_delta: Optional[CheckStats] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        directory: str,
        schema: DirectorySchema,
        shard_bases: Dict[str, Union[DN, str]],
        initial: Optional[DirectoryInstance] = None,
        registry: Optional[AttributeRegistry] = None,
        *,
        io: Optional[StoreIO] = None,
    ) -> "ShardedStore":
        """Initialize a sharded store at ``directory``.

        ``initial`` is partitioned by routing every entry's DN; an
        entry no shard owns raises :class:`ShardRoutingError` before
        anything is written.  The shard map is written *last*: a crash
        mid-create leaves a root that refuses to open rather than a
        half-populated store that routes.  Not single-rename atomic
        (unlike ``DirectoryStore.create``): the completeness marker is
        the map, not the directory.

        Section 6.1 extras are supported: keys and references are
        directory-wide properties, so each per-shard store maintains
        key/referential postings (:mod:`repro.store.index`) for the
        *global* extras attributes even though its local schema carries
        none, and :meth:`apply` merges the per-shard postings at the
        composite check step — global key uniqueness costs a handful of
        index probes per transaction instead of a pass over the union.

        Raises
        ------
        UpdateError
            When ``initial`` violates the schema (composite elements
            and Section 6.1 extras included).
        """
        if os.path.exists(directory):
            raise StoreError(f"refusing to create over existing {directory!r}")
        shard_map = ShardMap.from_bases(shard_bases)
        scope = analyze_shard_scope(schema, shard_map)
        local_schema = shard_local_schema(schema, scope)

        base_instance = (
            initial
            if initial is not None
            else DirectoryInstance(attributes=registry)
        )
        # Composite elements are validated on the union up front: the
        # per-shard guards only ever see the shard-local slice.
        composite = _composite_report(
            scope,
            None,
            {"__union__": base_instance},
            lambda: base_instance,
        )
        if not composite.is_legal:
            raise UpdateError(
                "initial instance violates composite schema elements:\n"
                + str(composite)
            )
        if schema.extras is not None:
            # Like composite elements, extras are directory-wide:
            # validated on the union up front (the apply-time delta
            # checks assume a clean pre-state).
            extras_report = ExtrasChecker(schema.extras).check(base_instance)
            if not extras_report.is_legal:
                raise UpdateError(
                    "instance is not legal to begin with:\n"
                    + str(extras_report)
                )
        partitions = cls._partition(shard_map, base_instance, registry)
        index_keys, index_refs = _index.extras_index_attributes(schema.extras)

        os.makedirs(os.path.join(directory, "shards"))
        shards: Dict[str, DirectoryStore] = {}
        try:
            for spec in shard_map:
                shards[spec.name] = DirectoryStore.create(
                    shard_dir(directory, spec.name),
                    local_schema,
                    partitions[spec.name],
                    registry,
                    io=io,
                    index_key_attributes=index_keys,
                    index_referential_attributes=index_refs,
                )
            write_shard_map(directory, shard_map)
        except BaseException:
            for store in shards.values():
                store.close()
            shutil.rmtree(directory, ignore_errors=True)
            raise
        return cls(directory, schema, shard_map, shards, scope, registry, io=io)

    @staticmethod
    def _partition(
        shard_map: ShardMap,
        instance: DirectoryInstance,
        registry: Optional[AttributeRegistry],
    ) -> Dict[str, DirectoryInstance]:
        """Split ``instance`` into per-shard (localized) instances.

        Document-order traversal plus routing convexity (an entry's
        parent routes to the same shard unless the entry *is* a shard
        base) guarantee each parent exists in its shard before any
        child arrives.
        """
        partitions = {
            spec.name: DirectoryInstance(attributes=registry)
            for spec in shard_map
        }
        for entry in instance:
            dn = parse_dn(instance.dn_string_of(entry))
            spec = shard_map.route(dn)  # ShardRoutingError if unowned
            local_dn = shard_map.localize(dn, spec)
            parent = (
                None if local_dn.parent().is_empty() else str(local_dn.parent())
            )
            attributes = {
                name: list(entry.values(name))
                for name in entry.attribute_names()
                if name != "objectClass"
            }
            partitions[spec.name].add_entry(
                parent, entry.rdn, entry.classes, attributes
            )
        return partitions

    @classmethod
    def open(
        cls,
        directory: str,
        schema: DirectorySchema,
        registry: Optional[AttributeRegistry] = None,
        *,
        io: Optional[StoreIO] = None,
    ) -> "ShardedStore":
        """Reopen a sharded store: read the (authoritative) shard map,
        recover and lock every shard, and resolve any in-doubt 2PC
        participants against the coordinator log (presumed abort: a
        prepare without a durable ``commit`` decision rolls back).

        Raises
        ------
        ShardMapError
            Missing or damaged shard map.
        StoreLockedError
            Any shard still locked by a live holder (shards already
            opened by this call are closed again first).
        StoreError
            A corrupt coordinator log — in-doubt decisions cannot be
            trusted, so the open refuses rather than guessing.
        """
        shard_map = read_shard_map(directory)
        scope = analyze_shard_scope(schema, shard_map)
        local_schema = shard_local_schema(schema, scope)
        index_keys, index_refs = _index.extras_index_attributes(schema.extras)
        shards: Dict[str, DirectoryStore] = {}
        try:
            for spec in shard_map:
                shards[spec.name] = DirectoryStore.open(
                    shard_dir(directory, spec.name), local_schema, registry,
                    io=io,
                    index_key_attributes=index_keys,
                    index_referential_attributes=index_refs,
                )
            store = cls(
                directory, schema, shard_map, shards, scope, registry, io=io
            )
            store._resolve_in_doubt()
        except BaseException:
            for shard in shards.values():
                shard.close()
            raise
        return store

    @classmethod
    def open_shard(
        cls,
        directory: str,
        name: str,
        schema: DirectorySchema,
        registry: Optional[AttributeRegistry] = None,
        *,
        io: Optional[StoreIO] = None,
    ) -> DirectoryStore:
        """Open ONE shard as a standalone writer (its own advisory
        lock; shard-local schema; DNs in shard-local form).

        This is the per-shard write path for multi-writer topologies —
        one writer process per shard, as in the stress harness.  The
        caller takes on what :meth:`apply` would otherwise enforce:
        composite elements are *not* checked here (readers surface
        composite violations via :meth:`CompositeReader.check`).

        If the shard holds an in-doubt 2PC prepare (the sharded writer
        died between prepare and decide), it is resolved here from the
        root's coordinator log — read-only, presumed abort — so the
        shard comes back writable.
        """
        shard_map = read_shard_map(directory)
        shard_map.spec(name)  # raises ShardMapError for unknown names
        scope = analyze_shard_scope(schema, shard_map)
        local_schema = shard_local_schema(schema, scope)
        index_keys, index_refs = _index.extras_index_attributes(schema.extras)
        store = DirectoryStore.open(
            shard_dir(directory, name), local_schema, registry, io=io,
            index_key_attributes=index_keys,
            index_referential_attributes=index_refs,
        )
        try:
            if store.pending_txid is not None and not store.read_only:
                log = inspect_txlog(directory, io=io)
                verdict = (
                    "abort" if log is None else log.verdict(store.pending_txid)
                )
                store.resolve_pending(verdict)
        except BaseException:
            store.close()
            raise
        return store

    def _resolve_in_doubt(self) -> List[Tuple[str, str, str]]:
        """Settle every in-doubt participant from the coordinator log
        and retire finished transactions; returns
        ``[(shard, txid, verdict), ...]`` for what was resolved."""
        resolved: List[Tuple[str, str, str]] = []
        for name in self.shard_map.names():
            shard = self._shards[name]
            txid = shard.pending_txid
            if txid is None or shard.read_only:
                # A degraded (read-only) shard keeps its in-doubt state
                # for `recover` to deal with after repair.
                continue
            verdict = self._txlog.verdict(txid)
            shard.resolve_pending(verdict)
            resolved.append((name, txid, verdict))
        for txid, entry in sorted(self._txlog.unfinished().items()):
            if any(s.pending_txid == txid for s in self._shards.values()):
                continue  # still held in doubt by a degraded shard
            if entry.state == "begin":
                self._txlog.abort(txid)
            self._txlog.complete(txid)
        if resolved:
            self._composite_cache = None
        return resolved

    def close(self) -> None:
        """Close every shard (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for store in self._shards.values():
            store.close()

    def __enter__(self) -> "ShardedStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def route(self, dn: Union[DN, str]) -> ShardSpec:
        """The shard owning ``dn`` (raises :class:`ShardRoutingError`)."""
        return self.shard_map.route(dn)

    def shard(self, name: str) -> DirectoryStore:
        """The per-shard store (shard-local DNs!) for introspection."""
        return self._shards[name]

    def shard_names(self) -> Tuple[str, ...]:
        """Shard names in shard-map order."""
        return self.shard_map.names()

    # ------------------------------------------------------------------
    # the write path
    # ------------------------------------------------------------------
    def apply(self, transaction: UpdateTransaction) -> UpdateOutcome:
        """Route, stage, composite-check, and commit one transaction.

        A transaction whose operations all route to one shard takes the
        **fast path**: staged in that shard's memory
        (:meth:`~repro.store.journal.DirectoryStore.stage`),
        composite-checked, then journaled — or rolled back in memory
        with zero durable footprint.  A transaction **spanning shards**
        is decomposed per shard and committed through two-phase commit:
        every owning shard appends a durable-but-invisible ``#PREPARE``
        frame, the composite check runs on the union of the staged
        states, and the coordinator log's ``commit`` record is the
        single commit point before the per-shard ``#DECIDE`` frames
        land.  Either way the outcome (and any rejection) is exactly
        what a single union store's guard would have produced; only
        unroutable DNs raise :class:`ShardRoutingError` — no shard owns
        them, which is a caller bug, not a legality verdict.
        """
        self._ensure_open()
        transaction.validate()
        if not transaction.operations:
            return UpdateOutcome()
        slices = _shard_slices(self.shard_map, transaction)
        # The decompose preconditions whose scope crosses the routing
        # cut — a shard-local guard cannot see them, so they are
        # checked here, up front, with the union store's exact errors.
        self._cross_cut_preconditions(transaction)
        if len(slices) == 1:
            ((name, local),) = slices.items()
            return self._commit_routed(name, local)
        return self._apply_spanning(slices)

    def _cross_cut_preconditions(self, transaction: UpdateTransaction) -> None:
        """Raise the :class:`UpdateError` a union store's decompose
        would raise for preconditions that span the cut.

        Only two relationships cross it (routing convexity: a child
        routes with its parent unless the child *is* a shard base):
        inserting a nested shard's base attaches under an entry of the
        enclosing shard, and deleting an entry above a nested base
        prunes the nested shard's whole population.  Everything else is
        validated by the owning shard's own guard.
        """
        if not self.shard_map.has_cut():
            return
        deleted = {
            str(op.dn.normalized()) for op in transaction.deletions()
        }
        inserted = {
            str(op.dn.normalized()) for op in transaction.insertions()
        }
        for op in transaction.insertions():
            spec = self.shard_map.route(op.dn)
            if spec.suffix.is_empty():
                continue
            if str(op.dn.normalized()) != str(spec.base.normalized()):
                continue
            parent = op.dn.parent()
            if str(parent.normalized()) in inserted:
                continue  # the enclosing shard's slice validates it
            owner = self.shard_map.route(parent)
            local = self.shard_map.localize(parent, owner)
            if self._shards[owner.name].instance.find(local) is None:
                raise UpdateError(
                    f"insertion {op.dn} has no parent: {parent} "
                    "is neither in the instance nor inserted"
                )
            if str(parent.normalized()) in deleted:
                raise UpdateError(
                    f"insertion {op.dn} attaches under {parent}, "
                    "which the same transaction deletes"
                )
        for op in transaction.deletions():
            if str(op.dn.parent().normalized()) in deleted:
                continue  # interior of a larger deleted subtree
            owner_name = self.shard_map.route(op.dn).name
            for other in self.shard_map:
                if other.name == owner_name:
                    continue
                if not op.dn.is_ancestor_of(other.base):
                    continue
                nested = self._shards[other.name].instance
                for entry in nested:
                    gdn = self.shard_map.globalize(
                        parse_dn(nested.dn_string_of(entry)), other
                    )
                    if str(gdn.normalized()) not in deleted:
                        raise UpdateError(
                            f"transaction deletes {op.dn} but not its "
                            f"descendant {gdn} (LDAP deletes leaves only)"
                        )

    def modify(self, record) -> UpdateOutcome:
        """Route and apply one ``changetype: modify`` record.

        A modify targets exactly one entry, so it always takes the
        single-shard fast path (:meth:`_commit_routed`): one ordinary
        WAL frame, or nothing durable at all.
        """
        self._ensure_open()
        if not isinstance(record, ModifyRecord):
            raise UpdateError(
                "only changetype: modify records are journaled; "
                f"got {type(record).__name__}"
            )
        spec = self.shard_map.route(record.dn)  # ShardRoutingError
        local = ModifyRecord(
            self.shard_map.localize(record.dn, spec), record.ops
        )
        return self._commit_routed(spec.name, local)

    def _commit_routed(self, name: str, change) -> UpdateOutcome:
        """The routed fast path for either change kind: staged in the
        owning shard's memory, composite-checked, then committed as one
        ordinary WAL frame — or aborted with nothing durable at all."""
        if self.schema.extras is not None:
            self._extras_checkpoint()
        staged = self._shards[name].stage(change)
        outcome = staged.outcome
        if not outcome.applied:
            # The guard's violation DNs are Δ-relative (an inserted
            # entry is a root of its own delta), exactly as a single
            # store reports them — re-suffixing here would fabricate
            # DNs no client ever named.  `_globalized` is for the
            # check() paths, whose DNs are shard-rooted.
            return outcome
        try:
            composite = self._staged_composite_report()
        except BaseException:
            # The staged state must never outlive the check: roll the
            # memory back, then propagate.  Nothing was written, so a
            # crash here needs no recovery work at all.
            try:
                staged.abort()
            finally:
                self._composite_cache = None
            raise
        if composite.is_legal:
            staged.commit()
            return self._fold_extras_stats(outcome)
        staged.abort()
        self._composite_cache = None
        return self._fold_extras_stats(UpdateOutcome(
            report=composite,
            cost=outcome.cost,
            checks=outcome.checks
            + [f"composite check: {self.scope.summary()}",
               "rolled back in memory (no durable footprint)"],
            stats=outcome.stats,
        ))

    def _composite_report(self) -> LegalityReport:
        """The composite structure elements over the shards' current
        in-memory states."""
        return _composite_report(
            self.scope,
            self.shard_map,
            {name: s.instance for name, s in self._shards.items()},
            self.composite_instance,
        )

    def _staged_composite_report(self) -> LegalityReport:
        """What the routing cut hides from the shard guards, judged on
        the staged state: composite structure elements, then — only if
        those hold — the directory-wide Section 6.1 extras delta."""
        self._composite_cache = None
        composite = self._composite_report()
        if composite.is_legal and self.schema.extras is not None:
            composite.extend(self._extras_delta_violations())
        return composite

    def _apply_spanning(
        self, slices: Dict[str, UpdateTransaction]
    ) -> UpdateOutcome:
        """Two-phase commit across every owning shard (``slices`` maps
        each to its localized share of the transaction).

        Protocol (named fault points in brackets — the crash harness
        kills the process at each one and asserts all-or-nothing):

        1. [``2pc:begin``] coordinator log records BEGIN + participants;
        2. per shard: stage (guard, in memory) + ``#PREPARE`` frame,
           fsynced [``2pc:prepared:<shard>``];
        3. composite check on the staged union [``2pc:decision``];
        4. coordinator log records COMMIT — **the commit point**
           [``2pc:committed``];
        5. per shard: ``#DECIDE commit`` frame [``2pc:decided:<shard>``];
        6. [``2pc:complete``] coordinator log records COMPLETE.

        A guard or composite rejection aborts instead: ABORT record,
        per-shard ``#DECIDE abort`` (rolling the staged memory back via
        the retained inverse), COMPLETE.  Any crash before step 4
        resolves to abort at the next open (presumed abort); any crash
        after it resolves to commit.
        """
        if self.schema.extras is not None:
            self._extras_checkpoint()
        order = list(slices)
        self._io.fault_point("2pc:begin")
        txid = self._txlog.begin(order)
        outcomes: List[UpdateOutcome] = []
        prepared: List[str] = []
        rejection: Optional[UpdateOutcome] = None
        try:
            for name, local in slices.items():
                outcome = self._shards[name].stage(local).prepare(txid)
                if not outcome.applied:
                    rejection = outcome
                    why = f"shard {name!r} rejected"
                    break
                outcomes.append(outcome)
                prepared.append(name)
                self._io.fault_point(f"2pc:prepared:{name}")
            if rejection is None:
                composite = self._staged_composite_report()
                if composite.is_legal:
                    self._io.fault_point("2pc:decision")
                    self._txlog.commit(txid)
                    self._io.fault_point("2pc:committed")
                    for name in prepared:
                        self._shards[name].decide(txid, "commit")
                        self._io.fault_point(f"2pc:decided:{name}")
                    self._io.fault_point("2pc:complete")
                    self._txlog.complete(txid)
                    self._composite_cache = None
                    return self._fold_extras_stats(self._merge_outcomes(
                        outcomes,
                        LegalityReport(),
                        [f"2pc: committed {txid} across shards "
                         f"{', '.join(order)}"],
                    ))
                rejection = UpdateOutcome(
                    report=composite,
                    checks=[f"composite check: {self.scope.summary()}"],
                )
                why = "composite check failed"
        except Exception:
            # A non-crash failure (e.g. a decompose precondition raised
            # by a shard's guard) aborts the prepared participants and
            # propagates.  An InjectedCrash is a BaseException and is
            # deliberately NOT caught: the simulated process is dead,
            # and recovery resolves the in-doubt prepares instead.
            self._abort(txid, prepared)
            raise
        self._abort(txid, prepared)
        return self._fold_extras_stats(self._merge_outcomes(
            outcomes + [rejection],
            rejection.report,
            [f"2pc: aborted {txid} ({why}); rolled back in memory "
             "(prepares never became visible)"],
        ))

    def _abort(self, txid: str, prepared: List[str]) -> None:
        """Decide ``txid`` as aborted everywhere: ABORT in the
        coordinator log (making the state explicit, though its absence
        would mean the same under presumed abort), ``#DECIDE abort``
        on every prepared shard (each rolls its staged memory back),
        then COMPLETE."""
        self._txlog.abort(txid)
        for name in prepared:
            self._shards[name].decide(txid, "abort")
            self._io.fault_point(f"2pc:decided:{name}")
        self._txlog.complete(txid)
        self._composite_cache = None

    @staticmethod
    def _merge_outcomes(
        outcomes: List[UpdateOutcome],
        report: LegalityReport,
        extra_checks: List[str],
    ) -> UpdateOutcome:
        """One :class:`UpdateOutcome` for the whole global transaction:
        costs sum, check descriptions concatenate, per-shard stats fold
        together."""
        merged = UpdateOutcome(report=report)
        for outcome in outcomes:
            merged.cost += outcome.cost
            merged.checks.extend(outcome.checks)
            merged.stats = _summed(merged.stats, outcome.stats)
        merged.checks.extend(extra_checks)
        return merged

    # ------------------------------------------------------------------
    # Section 6.1 extras (global key/referential checks via per-shard
    # index probes, merged at the composite step)
    # ------------------------------------------------------------------
    def _extras_checkpoint(self) -> None:
        """Before staging: flush every shard's pending index maintenance
        so the per-shard dirty sets afterwards track exactly this
        transaction's footprint."""
        self._extras_stats_delta = None
        for name in self.shard_map.names():
            indexes = self._shards[name].instance.indexes
            if indexes is not None:
                indexes.delta_checkpoint()

    def _counters_total(self) -> Tuple[int, int, int]:
        """Sum of the ``(probes, hits, candidates)`` counters across
        every shard's indexes."""
        probes = hits = candidates = 0
        for name in self.shard_map.names():
            indexes = self._shards[name].instance.indexes
            if indexes is not None:
                p, h, c = indexes.counters()
                probes += p
                hits += h
                candidates += c
        return probes, hits, candidates

    def _fold_extras_stats(self, outcome: UpdateOutcome) -> UpdateOutcome:
        """Fold the composite-step extras probe counters into the
        outcome's stats, so ``--profile`` shows the O(|Δ|) key-check
        work on the sharded path exactly as the union store does."""
        delta = self._extras_stats_delta
        self._extras_stats_delta = None
        if delta is not None:
            if outcome.stats is None:
                outcome.stats = delta
            else:
                folded = outcome.stats.copy()
                folded.merge(delta)
                outcome.stats = folded
        return outcome

    def _extras_delta_violations(self) -> List[Violation]:
        """The Section 6.1 violations the staged update introduced.

        Runs at the composite check step, like the cut-spanning
        structure elements: keys and references are directory-wide, so
        each probe merges the per-shard key/referential postings
        (maintained for the *global* extras attributes — the local
        schemas carry none) and every DN is globalized, making the
        verdicts identical to a single union store's.  Cost is a
        handful of index probes per touched entry — O(|Δ|), not a pass
        over the union."""
        extras = self.schema.extras
        shard_map = self.shard_map
        counters_before = self._counters_total()
        views: List[Tuple[ShardSpec, DirectoryInstance, object]] = []
        touched: List[Tuple[Entry, str]] = []
        removed: List[str] = []
        for spec in shard_map:
            instance = self._shards[spec.name].instance
            indexes = instance.indexes
            if indexes is None:
                continue
            views.append((spec, instance, indexes))
            eids, local_removed = indexes.delta_collect()
            for eid in eids:
                local = parse_dn(instance.dn_string_of(eid))
                touched.append(
                    (instance._entries[eid],
                     str(shard_map.globalize(local, spec)))
                )
            for norm in local_removed:
                removed.append(
                    str(shard_map.globalize(parse_dn(norm), spec).normalized())
                )

        def key_holders(attribute: str, value) -> List[str]:
            holders: List[str] = []
            for spec, instance, indexes in views:
                for eid in indexes.key_holders(attribute, value):
                    local = parse_dn(instance.dn_string_of(eid))
                    holders.append(str(shard_map.globalize(local, spec)))
            return holders

        def resolve(target: str) -> bool:
            try:
                dn = parse_dn(target)
                spec = shard_map.route(dn)
                local = shard_map.localize(dn, spec)
            except Exception:
                return False  # unparseable or unrouted: names no entry
            return self._shards[spec.name].instance.find(local) is not None

        def referrers(attribute: str, norm_target: str):
            found: List[Tuple[Entry, str]] = []
            for spec, instance, indexes in views:
                for eid in indexes.referrers(attribute, norm_target):
                    local = parse_dn(instance.dn_string_of(eid))
                    found.append(
                        (instance._entries[eid],
                         str(shard_map.globalize(local, spec)))
                    )
            return found

        violations = _index.delta_extras_violations(
            extras, touched, removed, key_holders, resolve, referrers
        )
        probes, hits, candidates = (
            after - before
            for after, before in zip(self._counters_total(), counters_before)
        )
        self._extras_stats_delta = CheckStats(
            index_probes=probes, index_hits=hits, index_candidates=candidates
        )
        return violations

    # ------------------------------------------------------------------
    # the read/maintenance path
    # ------------------------------------------------------------------
    def check(self) -> LegalityReport:
        """Full legality of the composite state: every shard's own
        report (DNs globalized) plus the composite elements and — when
        the schema declares Section 6.1 extras — a full extras pass
        over the stitched union (keys and references are directory-wide
        properties no shard-local check can settle)."""
        self._ensure_open()
        merged = LegalityReport()
        for spec in self.shard_map:
            merged.extend(
                _globalized(self._shards[spec.name].check(), spec).violations
            )
        merged.extend(self._composite_report().violations)
        if self.schema.extras is not None:
            merged.extend(
                ExtrasChecker(self.schema.extras)
                .check(self.composite_instance())
                .violations
            )
        return merged

    def search(
        self,
        base=None,
        scope: Union[SearchScope, str] = SearchScope.SUB,
        filter=None,
        size_limit: Optional[int] = None,
    ) -> List[Entry]:
        """Scoped LDAP search over the stitched composite view, in
        canonical global document order (layout-independent)."""
        self._ensure_open()
        return _canonical_search(
            self.composite_instance(), base, scope, filter, size_limit
        )

    def composite_instance(self) -> DirectoryInstance:
        """The stitched union of all shard states (cached per
        frontier; rebuilt only after a commit or compaction)."""
        self._ensure_open()
        frontier = self.frontier_key()
        if self._composite_cache is not None:
            cached_key, cached = self._composite_cache
            if cached_key == frontier:
                return cached
        stitched = _stitch(
            self.shard_map,
            {name: s.instance for name, s in self._shards.items()},
            self._registry,
        )
        self._composite_cache = (frontier, stitched)
        return stitched

    @property
    def instance(self) -> DirectoryInstance:
        """The directory instance this store holds — the stitched
        composite, under the name a plain store uses."""
        return self.composite_instance()

    def position(self) -> Position:
        """The committed frontier, one member per shard."""
        return Position(
            {name: (generation, seq)
             for name, generation, seq in self.frontier_key()}
        )

    def frontier_key(self) -> Tuple[Tuple[str, int, int], ...]:
        """``((name, generation, journal_length), ...)`` per shard —
        the composite position."""
        return tuple(
            (name, self._shards[name].generation,
             self._shards[name].journal_length)
            for name in self.shard_map.names()
        )

    def compact(self) -> None:
        """Compact every shard (each bumps its own generation) and
        retire finished transactions from the coordinator log."""
        self._ensure_open()
        for store in self._shards.values():
            store.compact()
        self._txlog.compact()
        self._composite_cache = None

    def _ensure_open(self) -> None:
        if self._closed:
            raise StoreError("sharded store is closed")


# ----------------------------------------------------------------------
# parallel whole-store checking (one worker process per shard)
# ----------------------------------------------------------------------
def _check_one_shard(
    path: str,
    local_schema: DirectorySchema,
    registry: Optional[AttributeRegistry],
    required: Tuple[str, ...],
    probes: Tuple[Tuple[str, str], ...],
):
    """Worker body: check one shard through a lock-free reader.

    Returns ``(report, {required class: count}, entries, attachments)``
    — the counts let the parent answer required-class existence without
    stitching, and ``attachments`` maps each probed nested-shard name
    to whether its attachment entry (a shard-local DN of *this* shard)
    exists, so the parent can flag orphaned shards without stitching.
    """
    reader = StoreReader.open(path, local_schema, registry)
    try:
        report = reader.check()
        counts = {name: reader.instance.class_count(name) for name in required}
        attachments = {
            nested: reader.instance.find(dn) is not None
            for nested, dn in probes
        }
        return report, counts, len(reader.instance), attachments
    finally:
        reader.close()


def check_shards_parallel(
    directory: str,
    schema: DirectorySchema,
    registry: Optional[AttributeRegistry] = None,
    jobs: Optional[int] = None,
) -> Tuple[LegalityReport, int]:
    """Check a sharded store with one worker *process per shard*.

    This is where the routing cut pays off: shards are independent
    store directories, so their (CPU-bound) legality checks run with
    no shared state at all — each worker opens its own lock-free
    reader, sidestepping the GIL entirely.  Composite elements are
    evaluated in the parent afterwards: required classes from the
    per-shard class counts the workers return; cut-spanning edges (only
    under a nested map) on a stitched composite view.

    Returns ``(merged report, total entries)``.  ``jobs`` caps worker
    processes (default: one per shard).
    """
    import concurrent.futures
    import multiprocessing

    shard_map = read_shard_map(directory)
    scope = analyze_shard_scope(schema, shard_map)
    local_schema = shard_local_schema(schema, scope)
    names = shard_map.names()
    workers = min(jobs or len(names), len(names))
    required = tuple(sorted(scope.required_classes))
    merged = LegalityReport()
    counts_total = {name: 0 for name in required}
    entries = 0
    # Each nested shard's attachment entry lives in its enclosing
    # shard; that shard's worker probes for it, so orphaned shards are
    # flagged without stitching (and even when no composite edge
    # forces a stitched pass).
    probes: Dict[str, List[Tuple[str, str]]] = {name: [] for name in names}
    for spec in shard_map:
        if spec.suffix.is_empty():
            continue
        owner = shard_map.route(spec.suffix)
        probes[owner.name].append(
            (spec.name, str(shard_map.localize(spec.suffix, owner)))
        )
    shard_entries: Dict[str, int] = {}
    attachment_present: Dict[str, bool] = {}
    ctx = multiprocessing.get_context(
        "fork" if hasattr(os, "fork") else None
    )
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=max(1, workers), mp_context=ctx
    ) as pool:
        futures = {
            name: pool.submit(
                _check_one_shard,
                shard_dir(directory, name),
                local_schema,
                registry,
                required,
                tuple(probes[name]),
            )
            for name in names
        }
        for name in names:
            report, counts, count, attachments = futures[name].result()
            merged.extend(_globalized(report, shard_map.spec(name)).violations)
            for cls, n in counts.items():
                counts_total[cls] += n
            entries += count
            shard_entries[name] = count
            attachment_present.update(attachments)
    for spec in shard_map:
        if spec.suffix.is_empty() or shard_entries[spec.name] == 0:
            continue
        if not attachment_present[spec.name]:
            merged.add(
                _orphan_violation(
                    spec.name, shard_entries[spec.name],
                    str(spec.suffix), shard_map.route(spec.suffix).name,
                )
            )
    if scope.composite_edges or schema.extras is not None:
        # Nested cut (or Section 6.1 extras): the stitched view is
        # unavoidable for checks that can span it.  Orphans were
        # already flagged from the worker probes above; the tolerant
        # stitch keeps this pass from raising on a damaged store.
        with CompositeReader.open(directory, schema, registry) as reader:
            if scope.composite_edges:
                checker = QueryStructureChecker(
                    composite_structure_schema(scope)
                )
                merged.extend(checker.check(reader.instance).violations)
            if schema.extras is not None:
                merged.extend(
                    ExtrasChecker(schema.extras)
                    .check(reader.instance)
                    .violations
                )
    if not scope.composite_edges:
        for name in required:
            if counts_total[name] == 0:
                merged.add(
                    Violation(
                        Kind.MISSING_REQUIRED_CLASS,
                        f"no entry belongs to required class {name!r}",
                        element=str(RequiredClass(name)),
                    )
                )
    return merged, entries


# ----------------------------------------------------------------------
# the reader
# ----------------------------------------------------------------------
class CompositeRefreshResult:
    """What one :meth:`CompositeReader.refresh` did, per shard and in
    aggregate."""

    def __init__(self, per_shard: Dict[str, RefreshResult]) -> None:
        self.per_shard = per_shard
        self.advanced = any(r.advanced for r in per_shard.values())
        self.stale = any(r.stale for r in per_shard.values())
        #: A consistent frontier report: every shard's (generation,
        #: seq) as of this refresh — the composite view's position.
        self.frontier: Dict[str, Tuple[int, int]] = {
            name: (r.generation, r.seq) for name, r in per_shard.items()
        }
        notes = [
            f"{name}: {r.note}" for name, r in sorted(per_shard.items())
            if r.note
        ]
        self.note: Optional[str] = "; ".join(notes) if notes else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompositeRefreshResult(advanced={self.advanced}, "
            f"stale={self.stale}, frontier={self.frontier})"
        )


class CompositeReader:
    """Per-shard lock-free readers stitched into one read surface.

    Holds one :class:`StoreReader` per shard (no locks anywhere), a
    composite search/check surface over the stitched instance, and
    per-shard refresh/lag introspection.  The stitched instance is a
    *cross-shard snapshot*: each shard's slice is an actual committed
    state of that shard, but different shards' slices may be from
    different instants — per-shard writers commit independently, so no
    global total order exists to be consistent with.  ``frontier()``
    names the exact per-shard positions backing the current view.

    The composite is **stitched once and then follows**: every change
    a shard view replays during :meth:`refresh` is replayed, suffix
    re-attached, onto the composite already held, so a refresh costs
    O(|Δ|) on the composite exactly as it does on the shards.
    :func:`_stitch` stays the definition of the composite and the
    fallback — the held composite is dropped, and stitched again on
    next use, whenever a shard view was rebuilt (compaction,
    re-bootstrap), a change names an entry above a nested shard's base
    (it can re-parent a whole shard slice), or a follow raised.
    """

    def __init__(
        self,
        directory: str,
        schema: DirectorySchema,
        shard_map: ShardMap,
        readers: Dict[str, StoreReader],
        scope: ShardScope,
        registry: Optional[AttributeRegistry] = None,
    ) -> None:
        self._dir = directory
        self.schema = schema
        self.shard_map = shard_map
        self._readers = readers
        self.scope = scope
        self._registry = registry
        self._closed = False
        self._composite: Optional[DirectoryInstance] = None
        #: The shard instances :attr:`_composite` was stitched from; a
        #: shard view that re-bootstraps swaps its instance object.
        self._stitched_from: Dict[str, DirectoryInstance] = {}
        #: Normalized DNs of every proper ancestor of a nested shard
        #: base — the entries whose insertion or deletion moves another
        #: shard's slice between "grafted" and "orphaned".
        self._above_cut = frozenset(
            str(DN(spec.base.rdns[i:]).normalized())
            for spec in shard_map
            for i in range(1, spec.base.depth())
        )
        #: Times this view built its composite with :func:`_stitch`, and
        #: shard changes it replayed onto a held composite instead —
        #: the pair ``benchmarks/bench_shard.py`` gates on.
        self.stitches = 0
        self.followed = 0
        self._cohort = None
        self._txn_cut: Dict[str, str] = {}
        self._txn_cut_stamp: Optional[Tuple[int, int, int]] = None
        for spec in shard_map:
            readers[spec.name].txn_resolver = self._txn_verdict
            readers[spec.name].on_replay = functools.partial(
                self._follow, spec
            )

    @classmethod
    def open(
        cls,
        directory: str,
        schema: DirectorySchema,
        registry: Optional[AttributeRegistry] = None,
        *,
        parallelism: Optional[int] = None,
    ) -> "CompositeReader":
        """Open read-only views of every shard (no locks taken)."""
        shard_map = read_shard_map(directory)
        scope = analyze_shard_scope(schema, shard_map)
        local_schema = shard_local_schema(schema, scope)
        readers: Dict[str, StoreReader] = {}
        try:
            for spec in shard_map:
                readers[spec.name] = StoreReader.open(
                    shard_dir(directory, spec.name),
                    local_schema,
                    registry,
                    parallelism=parallelism,
                )
        except BaseException:
            for reader in readers.values():
                reader.close()
            raise
        return cls(directory, schema, shard_map, readers, scope, registry)

    def close(self) -> None:
        """Close every per-shard reader (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for reader in self._readers.values():
            reader.close()

    def __enter__(self) -> "CompositeReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # read surface
    # ------------------------------------------------------------------
    def search(
        self,
        base=None,
        scope: Union[SearchScope, str] = SearchScope.SUB,
        filter=None,
        size_limit: Optional[int] = None,
    ) -> List[Entry]:
        """Scoped LDAP search over the stitched composite view, in
        canonical global document order (layout-independent)."""
        self._ensure_open()
        return _canonical_search(
            self.instance, base, scope, filter, size_limit
        )

    def check(self) -> LegalityReport:
        """Full legality of the composite view: per-shard reports (each
        shard view's verdict follows its own frames once it was found
        legal; DNs globalized, engine stats summed) plus composite
        elements."""
        self._ensure_open()
        merged = LegalityReport()
        for spec in self.shard_map:
            report = _globalized(self._readers[spec.name].check(), spec)
            merged.extend(report.violations)
            merged.stats = _summed(merged.stats, report.stats)
        merged.extend(
            _composite_report(
                self.scope,
                self.shard_map,
                {name: r.instance for name, r in self._readers.items()},
                lambda: self.instance,
            ).violations
        )
        if self.schema.extras is not None:
            merged.extend(
                ExtrasChecker(self.schema.extras)
                .check(self.instance)
                .violations
            )
        return merged

    def is_legal(self) -> bool:
        """Whether the composite view satisfies the whole schema."""
        return self.check().is_legal

    @property
    def instance(self) -> DirectoryInstance:
        """The composite instance: stitched on first use, then kept
        current by :meth:`_follow`; stitched again only after a shard
        view swapped its instance object or a follow gave up."""
        self._ensure_open()
        views = {name: r.instance for name, r in self._readers.items()}
        if self._composite is None or any(
            views[name] is not self._stitched_from[name] for name in views
        ):
            self._composite = _stitch(self.shard_map, views, self._registry)
            self._stitched_from = views
            self.stitches += 1
        return self._composite

    def _follow(self, spec: ShardSpec, change) -> None:
        """Replay onto the held composite a change the shard ``spec``
        view just replayed (its :attr:`StoreReader.on_replay` hook).
        The composite is dropped unless the replay reproduces what a
        fresh stitch would show; the next :attr:`instance` stitches."""
        composite, self._composite = self._composite, None
        if composite is None or (
            self._readers[spec.name].instance
            is not self._stitched_from[spec.name]
        ):
            return
        try:
            change = _globalized_change(change, spec, self.shard_map)
            if (
                self._above_cut
                and isinstance(change, UpdateTransaction)
                and any(
                    str(op.dn.normalized()) in self._above_cut
                    for op in change
                )
            ):
                return
            replay_change(composite, change)
        except Exception:
            return
        self._composite = composite
        self.followed += 1

    def dn_string_of(self, entry: Entry) -> str:
        """The composite (global) DN of an entry returned by
        :meth:`search`."""
        return self.instance.dn_string_of(entry)

    # ------------------------------------------------------------------
    # refresh / staleness
    # ------------------------------------------------------------------
    def refresh(self, strict: bool = False) -> CompositeRefreshResult:
        """Refresh every shard view to a *cross-shard-atomic* committed
        frontier; per-shard results plus the frontier the composite now
        sits at.

        Shard journals advance independently, so sweeping them one
        after another could catch shard A after a spanning
        transaction's ``#DECIDE`` frame and shard B before its — a torn
        view showing half an atomically committed transaction.  The
        sweep is made atomic by a **coordinator cut**: the decision set
        of the coordinator log is captured once, before any shard is
        scanned, and every shard then shows a spanning transaction iff
        the cut commits it.  A shard whose decide frame is still in
        flight applies its prepared payload early (the cut proves the
        commit); a shard whose decide landed *after* the cut withholds
        the pair until the next refresh.  Soundness rests on the 2PC
        write order: every participant's prepare frame is durable
        before the coordinator's commit record, so a transaction the
        cut commits is visible to every shard's (later) scan.  A
        transaction with no durable decision at the cut is withheld on
        every shard — no decide frame can exist yet — matching the
        presumed-abort rule for writer crashes.

        A view of a replica cohort (:meth:`_serve_cohort`) has no
        coordinator log to pin to; it refreshes inside the cohort's
        replicated cut instead, and raises :class:`StoreError` when the
        cohort is between cuts or closed."""
        self._ensure_open()
        if self._cohort is None:
            self._capture_txn_cut()
            gate = contextlib.nullcontext()
        else:
            gate = self._cohort.at_cut()
        with gate:
            return CompositeRefreshResult({
                name: reader.refresh(strict=strict)
                for name, reader in self._readers.items()
            })

    def _serve_cohort(self, cohort) -> None:
        """Make this a view of a replica cohort's directory (called by
        :meth:`~repro.store.replicate.ShardedReplicaApplier.open_view`,
        the only place such a view comes from).

        A replica has no coordinator log: the primary ships a decided
        2PC pair only once its transaction is complete on every shard,
        and the cohort applies each shipped batch under its lock and
        records the cut it lands on.  So instead of pinning a refresh
        to a coordinator cut, the view trusts the shipped ``#DECIDE``
        frames and refreshes only inside ``cohort.at_cut()`` — under
        the batch lock, on a recorded cut — where every shard journal
        holds a spanning transaction whole or not at all."""
        self._cohort = cohort
        for reader in self._readers.values():
            reader.txn_resolver = None

    def _capture_txn_cut(self) -> None:
        """Pin this refresh to the coordinator log's current decision
        set.  Re-parsed only when the log file changed (cheap stat
        probe); an unreadable or absent log yields an empty cut, which
        keeps every in-flight spanning transaction withheld."""
        path = os.path.join(self._dir, TXLOG_FILE)
        try:
            probe = os.stat(path)
            stamp = (probe.st_size, probe.st_mtime_ns, probe.st_ino)
        except OSError:
            self._txn_cut = {}
            self._txn_cut_stamp = None
            return
        if stamp == self._txn_cut_stamp:
            return
        try:
            log = inspect_txlog(self._dir, io=StoreIO())
        except StoreError:
            self._txn_cut = {}
            self._txn_cut_stamp = None
            return
        states = log.states() if log is not None else {}
        self._txn_cut = {
            txid: entry.verdict
            for txid, entry in states.items()
            if entry.decided
        }
        self._txn_cut_stamp = stamp

    def _txn_verdict(self, txid: str) -> Optional[str]:
        """Answer a shard reader's 2PC lookup from the captured cut.
        Only a decision durable at the cut is actionable: ``"commit"``
        / ``"abort"`` when the cut holds one, ``None`` for everything
        else — unknown txid, a bare ``begin`` — which keeps the
        transaction withheld on this shard.  The conservative ``None``
        matters twice over: a transaction with no durable commit may
        still abort, and one that committed *after* the cut was
        invisible to sibling shards scanned earlier in this pass."""
        return self._txn_cut.get(txid)

    def lag(self) -> Dict[str, ReaderLag]:
        """Per-shard lag behind the on-disk committed state."""
        self._ensure_open()
        return {name: r.lag() for name, r in self._readers.items()}

    def frontier(self) -> Dict[str, Tuple[int, int]]:
        """``{shard: (generation, seq)}`` of the current view."""
        self._ensure_open()
        return {name: r.position().raw for name, r in self._readers.items()}

    def position(self) -> Position:
        """The current view's position, one member per shard."""
        return Position(self.frontier())

    def shard_reader(self, name: str) -> StoreReader:
        """The per-shard reader (shard-local DNs!) for introspection."""
        return self._readers[name]

    def _ensure_open(self) -> None:
        if self._closed:
            raise StoreError("composite reader is closed")
