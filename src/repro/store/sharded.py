"""Sharding the DIT across independent stores behind one view.

:class:`ShardedStore` routes disjoint DIT subtrees to independent
:class:`~repro.store.journal.DirectoryStore` directories — one WAL,
snapshot, and advisory lock per shard — via a persisted,
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
          snapshot.ldif, journal.ldif, lock

Enforcement split:

* the **full verdict** of the cohort is composed in exactly one place,
  :func:`_cohort_report`, over a *member list* (one :class:`_Member`
  per shard: its own report, its required-class counts, its entry
  count, whether the attachment entries it should hold exist).  It
  emits shard reports (DNs globalized, engine stats summed) →
  orphaned attachments → cut-spanning edges *or* required-class
  populations (:func:`_composite_report`) → the full Section 6.1
  extras, and stitches the composite only when an edge or the extras
  need it.  :meth:`ShardedStore.create`, :meth:`ShardedStore.check`
  and :meth:`CompositeReader.check` differ only in where their members
  come from (partitions, live stores, reader views); the write path
  reuses the :func:`_composite_report` half on the staged state and
  settles the extras by Δ-probe
  (:class:`repro.store.index.ExtrasDeltaProbe`, one member per shard —
  a plain store runs the same probe with one);
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
  detached roots and the one verdict adds an ``orphaned-shard``
  violation on every ``check()`` surface, so search/fsck keep working
  against the damaged store;
* a **search** is the same split read the other way: the filter is
  planned on each shard's own indexes (the stitched composite carries
  :class:`repro.store.index.MemberIndexes`, a view over them — it
  builds no postings), and the composite keeps what spans the cut:
  the scope test, the residual ``matches`` pass and the canonical
  order.  A composite holding an orphaned shard, or stitched from a
  shard without indexes, carries no view, and a candidate the composite
  does not hold turns the candidate set into every entry: in all three
  cases the search scans.

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

import functools
import os
import shutil
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple, Union

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
from repro.query.search import PlannedSearch, SearchScope
from repro.schema.directory_schema import DirectorySchema
from repro.schema.elements import RequiredClass
from repro.store import index as _index
from repro.store.journal import DirectoryStore
from repro.store.position import Position
from repro.store.reader import ReaderLag, RefreshResult, StoreReader
from repro.store.recovery import replay_change
from repro.store.txlog import (
    TXLOG_FILE,
    TxLog,
    TxLogTail,
    TxState,
    inspect_txlog,
)
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
]


# ----------------------------------------------------------------------
# shared helpers (writer and reader sides enforce identical semantics)
# ----------------------------------------------------------------------
def _globalized(report: LegalityReport, spec: ShardSpec) -> List[Violation]:
    """The violations of a shard-local report, DNs re-suffixed so they
    name entries in the composite namespace."""
    if spec.suffix.is_empty():
        return report.violations
    suffix = str(spec.suffix)
    return [
        Violation(
            violation.kind, violation.message,
            dn=violation.dn if violation.dn is None
            else f"{violation.dn},{suffix}",
            element=violation.element,
        )
        for violation in report
    ]


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


class _Member(NamedTuple):
    """What the cohort's verdict needs from one shard, computed
    (:func:`_members`) from the instance and report of a partition, a
    live :class:`DirectoryStore` or a :class:`StoreReader`."""

    spec: ShardSpec
    #: The shard's own verdict against the shard-local schema
    #: (shard-local DNs).
    report: LegalityReport
    #: ``{required class: members in this shard}``.
    counts: Dict[str, int]
    entries: int
    #: ``{nested shard: whether its attachment entry exists}`` for the
    #: nested shards hanging off an entry of this one.
    attached: Dict[str, bool]


def _members(shard_map: ShardMap, scope: ShardScope, view) -> List[_Member]:
    """The member list of a cohort, in shard-map order; ``view(name)``
    is ``(instance, shard-local report)``.  A nested shard's attachment
    entry lives in its enclosing shard, which is therefore the one to
    look for it in."""
    required = sorted(scope.required_classes)
    views = {spec.name: view(spec.name) for spec in shard_map}
    attached: Dict[str, Dict[str, bool]] = {name: {} for name in views}
    for spec in shard_map:
        if not spec.suffix.is_empty():
            owner = shard_map.route(spec.suffix)
            local = shard_map.localize(spec.suffix, owner)
            attached[owner.name][spec.name] = (
                views[owner.name][0].find(local) is not None
            )
    members = []
    for spec in shard_map:
        instance, report = views[spec.name]
        members.append(_Member(
            spec,
            report,
            {name: instance.class_count(name) for name in required},
            len(instance),
            attached[spec.name],
        ))
    return members


def _composite_report(
    scope: ShardScope, members: List[_Member], stitched
) -> LegalityReport:
    """The structure verdicts the routing cut hides from every shard:
    orphaned attachments, then cut-spanning edges *or* required-class
    populations.

    A nested shard (with entries) whose attachment entry is gone is an
    *orphaned shard*.  Per-shard writers (:meth:`ShardedStore.
    open_shard`, crash windows) can delete that entry out of the
    enclosing shard — the shard-local guard cannot see the nested
    shard's content — leaving a durable state that is *reported*, as a
    :data:`~repro.legality.report.Kind.ORPHANED_SHARD` violation, not
    raised; stitching (:func:`_stitch`) tolerates it.

    ``stitched`` is a zero-argument callable producing the composite
    instance — only invoked when a cut-spanning edge actually needs
    it; a flat map's composite elements are just the required-class
    existence tests, answered from the members' class counts.
    """
    report = LegalityReport()
    attached = {
        nested: (present, member.spec.name)
        for member in members
        for nested, present in member.attached.items()
    }
    for member in members:
        present, owner = attached.get(member.spec.name, (True, None))
        if member.entries and not present:
            suffix = str(member.spec.suffix)
            report.add(
                Violation(
                    Kind.ORPHANED_SHARD,
                    f"shard {member.spec.name!r} ({member.entries} entries) "
                    f"is orphaned: its attachment entry {suffix!r} is "
                    f"missing from shard {owner!r}",
                    dn=suffix,
                )
            )
    if scope.composite_edges:
        checker = QueryStructureChecker(composite_structure_schema(scope))
        report.extend(checker.check(stitched()).violations)
        return report
    for name in sorted(scope.required_classes):
        if not any(member.counts[name] for member in members):
            report.add(
                Violation(
                    Kind.MISSING_REQUIRED_CLASS,
                    f"no entry belongs to required class {name!r}",
                    element=str(RequiredClass(name)),
                )
            )
    return report


def _cohort_report(
    schema: DirectorySchema,
    scope: ShardScope,
    members: List[_Member],
    stitched,
) -> LegalityReport:
    """THE verdict of a sharded directory (Theorem 4.1): the shard-local
    verdicts plus the residue whose scope spans the routing cut.

    Emits, in this order: every member's own report (DNs globalized,
    engine stats summed onto the result), orphaned attachments,
    cut-spanning edges or required-class populations
    (:func:`_composite_report`), and — when the schema declares them —
    the Section 6.1 extras in full (keys and references are
    directory-wide properties no shard-local check can settle).
    ``stitched()`` is called only by an edge or by extras; every
    full-verdict surface (:meth:`ShardedStore.create`,
    :meth:`ShardedStore.check`, :meth:`CompositeReader.check`) is a
    caller of this function and differs only in where its members come
    from.
    """
    merged = LegalityReport()
    for member in members:
        merged.extend(_globalized(member.report, member.spec))
        merged.stats = _summed(merged.stats, member.report.stats)
    merged.extend(_composite_report(scope, members, stitched).violations)
    if schema.extras is not None:
        merged.extend(
            ExtrasChecker(schema.extras).check(stitched()).violations
        )
    return merged


def _stitch(
    shard_map: ShardMap,
    instances: Dict[str, DirectoryInstance],
    attributes: Optional[AttributeRegistry],
) -> DirectoryInstance:
    """Build the composite instance: graft each shard's subtree back at
    its base, enclosing shards (shallow bases) first so every nested
    cut finds its parent entry already present.

    A nested shard whose attachment entry is *missing* (an orphaned
    shard — see :func:`_composite_report`) is grafted as detached roots
    instead of raising, so search/check surfaces over a damaged store
    report the violation rather than exploding on every call.

    The composite builds no postings of its own: when every shard went
    where its base says and holds indexes, it carries a view over
    theirs (:class:`repro.store.index.MemberIndexes`), so a search of
    it is planned on the shard indexes; otherwise it carries none and
    a search of it scans."""
    composite = DirectoryInstance(attributes=attributes)
    ordered = sorted(
        shard_map.specs, key=lambda s: (s.base.depth(), s.name)
    )
    #: ``[(shard instance, what its normalized DNs lack in the
    #: composite)]``, for the shards that went where their base says.
    members = []
    for spec in ordered:
        shard = instances[spec.name]
        parent, graft = None, ""
        if not spec.suffix.is_empty():
            parent = composite.find(spec.suffix)
            if parent is None:
                try:
                    composite.insert_subtree(None, shard)
                except ModelError:  # pragma: no cover - colliding wreckage
                    # Detached roots can collide with existing entries in
                    # an already-broken state; keep what stitched — the
                    # orphan violation is reported either way.
                    pass
                continue
            graft = "," + composite.normalized_dn_string_of(parent)
        composite.insert_subtree(parent, shard)
        members.append((shard, graft))
    if len(members) == len(ordered) and all(
        shard.indexes is not None for shard, _ in members
    ):
        composite.indexes = _index.MemberIndexes(composite, members)
    return composite


def _sibling_rank(entry: Entry) -> str:
    """An entry's rank among its siblings in a composite view: its
    normalized RDN string.  The canonical order it defines (root first,
    siblings by rank) depends only on the *content* of the directory —
    not on shard layout, stitch order, or per-shard insertion history."""
    return str(entry.rdn.normalized())


def _canonical_plan(
    instance: DirectoryInstance,
    base,
    scope,
    filter,
    size_limit: Optional[int],
) -> PlannedSearch:
    """Scoped search over a stitched composite, planned: results in
    canonical global document order, walked by :func:`_sibling_rank`;
    ``size_limit`` keeps the first N of that order, so the first N
    results are deterministic too."""
    return PlannedSearch(
        instance, base, scope, filter, size_limit, rank=_sibling_rank
    )


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
        #: Global key/referential checks by per-shard index probes,
        #: merged at the composite step: each shard maintains postings
        #: for the *global* extras attributes (its local schema carries
        #: none) and every DN is globalized, so the verdicts are a
        #: single union store's.
        self._extras_probe: Optional[_index.ExtrasDeltaProbe] = None
        if schema.extras is not None:
            self._extras_probe = _index.ExtrasDeltaProbe(
                schema.extras,
                [
                    (shards[spec.name].instance,
                     lambda local, spec=spec: str(
                         shard_map.globalize(parse_dn(local), spec)))
                    for spec in shard_map
                ],
                lambda target: self._holds(parse_dn(target)),
            )

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
        partitions = cls._partition(shard_map, base_instance, registry)
        # What the per-shard guards cannot see — composite elements and
        # the directory-wide extras (the apply-time delta checks assume
        # a clean pre-state) — is validated up front; each shard's
        # `create` below judges its own slice.
        report = _cohort_report(
            schema,
            scope,
            _members(
                shard_map, scope,
                lambda name: (partitions[name], LegalityReport()),
            ),
            lambda: base_instance,
        )
        composite = LegalityReport(
            [v for v in report if v.kind not in Kind.EXTRAS_KINDS]
        )
        if not composite.is_legal:
            raise UpdateError(
                "initial instance violates composite schema elements:\n"
                + str(composite)
            )
        if not report.is_legal:
            raise UpdateError(
                "instance is not legal to begin with:\n" + str(report)
            )
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
            if not self._holds(parent):
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
        if self._extras_probe is not None:
            self._extras_probe.checkpoint()
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
            composite, probed = self._staged_composite_report()
        except BaseException:
            # The staged state must never outlive the check: roll the
            # memory back, then propagate.  Nothing was written, so a
            # crash here needs no recovery work at all.
            staged.abort()
            raise
        outcome.stats = _summed(outcome.stats, probed)
        if composite.is_legal:
            staged.commit()
            return outcome
        staged.abort()
        return UpdateOutcome(
            report=composite,
            cost=outcome.cost,
            checks=outcome.checks
            + [f"composite check: {self.scope.summary()}",
               "rolled back in memory (no durable footprint)"],
            stats=outcome.stats,
        )

    def _staged_composite_report(
        self,
    ) -> Tuple[LegalityReport, Optional[CheckStats]]:
        """What the routing cut hides from the shard guards, judged on
        the staged state: composite structure elements, then — only if
        those hold — the directory-wide Section 6.1 extras delta, whose
        index work is the second half of the result (so ``--profile``
        shows the O(|Δ|) key-check work exactly as a union store does)."""
        composite = _composite_report(
            self.scope,
            _members(
                self.shard_map, self.scope,
                lambda name: (self._shards[name].instance, LegalityReport()),
            ),
            self.composite_instance,
        )
        probed = None
        if composite.is_legal and self._extras_probe is not None:
            violations, probed = self._extras_probe.settle()
            composite.extend(violations)
        return composite, probed

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
        the staged undo token), COMPLETE.  Any crash before step 4
        resolves to abort at the next open (presumed abort); any crash
        after it resolves to commit.  A failed coordinator-log append is
        treated like a crash: it raises, the participants stay prepared,
        and every later spanning write is refused until the store is
        reopened.
        """
        if self._extras_probe is not None:
            self._extras_probe.checkpoint()
        order = list(slices)
        self._io.fault_point("2pc:begin")
        txid = self._txlog.begin(order)
        outcomes: List[UpdateOutcome] = []
        prepared: List[str] = []
        rejection: Optional[UpdateOutcome] = None
        probed: Optional[CheckStats] = None
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
                composite, probed = self._staged_composite_report()
                if composite.is_legal:
                    self._io.fault_point("2pc:decision")
                    self._txlog.commit(txid)
                    self._io.fault_point("2pc:committed")
                    for name in prepared:
                        self._shards[name].decide(txid, "commit")
                        self._io.fault_point(f"2pc:decided:{name}")
                    self._io.fault_point("2pc:complete")
                    self._txlog.complete(txid)
                    return self._merge_outcomes(
                        outcomes,
                        LegalityReport(),
                        [f"2pc: committed {txid} across shards "
                         f"{', '.join(order)}"],
                        probed,
                    )
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
            # and recovery resolves the in-doubt prepares instead.  So
            # does a failed coordinator-log append: the record (a commit,
            # say) may have landed, and only a reopen reads which.
            if not self._txlog.poisoned:
                self._abort(txid, prepared)
            raise
        self._abort(txid, prepared)
        return self._merge_outcomes(
            outcomes + [rejection],
            rejection.report,
            [f"2pc: aborted {txid} ({why}); rolled back in memory "
             "(prepares never became visible)"],
            probed,
        )

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

    @staticmethod
    def _merge_outcomes(
        outcomes: List[UpdateOutcome],
        report: LegalityReport,
        extra_checks: List[str],
        probed: Optional[CheckStats],
    ) -> UpdateOutcome:
        """One :class:`UpdateOutcome` for the whole global transaction:
        costs sum, check descriptions concatenate, per-shard stats and
        the composite step's extras probes (``probed``) fold together."""
        merged = UpdateOutcome(report=report)
        for outcome in outcomes:
            merged.cost += outcome.cost
            merged.checks.extend(outcome.checks)
            merged.stats = _summed(merged.stats, outcome.stats)
        merged.checks.extend(extra_checks)
        merged.stats = _summed(merged.stats, probed)
        return merged

    def _holds(self, dn: DN) -> bool:
        """Whether the global ``dn`` names an entry of the shard that
        owns it."""
        spec = self.shard_map.route(dn)
        local = self.shard_map.localize(dn, spec)
        return self._shards[spec.name].instance.find(local) is not None

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
        return _cohort_report(
            self.schema,
            self.scope,
            _members(
                self.shard_map, self.scope,
                lambda name: (
                    self._shards[name].instance, self._shards[name].check()
                ),
            ),
            self.composite_instance,
        )

    def search(
        self,
        base=None,
        scope: Union[SearchScope, str] = SearchScope.SUB,
        filter=None,
        size_limit: Optional[int] = None,
    ) -> List[Entry]:
        """Scoped LDAP search over the stitched composite view, in
        canonical global document order (layout-independent): root
        first, siblings by normalized RDN, ``size_limit`` keeping the
        first N.  The filter is planned on the shards' own indexes — the
        composite carries a view of them (:func:`_stitch`), no postings —
        and the composite still decides scope, the residual ``matches``
        pass and the order: a search that walks its scope walks it in
        that order and stops at the limit, one that keeps its posting
        sorts the matches (:class:`~repro.query.search.PlannedSearch`)."""
        self._ensure_open()
        return _canonical_plan(
            self.composite_instance(), base, scope, filter, size_limit
        ).run()

    def composite_instance(self) -> DirectoryInstance:
        """The stitched union of all shard states, stitched afresh on
        each call (a served copy is a :class:`CompositeReader`'s)."""
        self._ensure_open()
        return _stitch(
            self.shard_map,
            {name: s.instance for name, s in self._shards.items()},
            self._registry,
        )

    @property
    def instance(self) -> DirectoryInstance:
        """The directory instance this store holds — the stitched
        composite, under the name a plain store uses."""
        return self.composite_instance()

    def position(self) -> Position:
        """The committed frontier, one member per shard."""
        return Position(
            {name: (self._shards[name].generation,
                    self._shards[name].journal_length)
             for name in self.shard_map.names()}
        )

    def compact(self) -> None:
        """Compact every shard (each bumps its own generation) and
        retire finished transactions from the coordinator log."""
        self._ensure_open()
        for store in self._shards.values():
            store.compact()
        self._txlog.compact()

    def _ensure_open(self) -> None:
        if self._closed:
            raise StoreError("sharded store is closed")


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
        #: Every shard's (generation, seq) as of this refresh — the
        #: composite view's position.
        self.position = Position(
            {name: (r.generation, r.seq) for name, r in per_shard.items()}
        )
        notes = [
            f"{name}: {r.note}" for name, r in sorted(per_shard.items())
            if r.note
        ]
        self.note: Optional[str] = "; ".join(notes) if notes else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompositeRefreshResult(advanced={self.advanced}, "
            f"stale={self.stale}, position={self.position})"
        )


class CompositeReader:
    """Per-shard lock-free readers stitched into one read surface.

    Holds one :class:`StoreReader` per shard (no locks anywhere), a
    composite search/check surface over the stitched instance, and
    per-shard refresh/lag introspection.  The stitched instance is a
    *cross-shard snapshot*: each shard's slice is an actual committed
    state of that shard, but different shards' slices may be from
    different instants — per-shard writers commit independently, so no
    global total order exists to be consistent with.  ``position()``
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

    A replica cohort serves one composite of its own
    (:meth:`of_cohort`): built over the readers its member appliers
    own and advance, never refreshed or closed by a read.
    """

    def __init__(
        self,
        directory: str,
        schema: DirectorySchema,
        shard_map: ShardMap,
        readers: Mapping[str, StoreReader],
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
        #: the pair ``tests/test_sharded.py`` gates on (60 commits on one
        #: open reader: one stitch, every shard change followed).
        self.stitches = 0
        self.followed = 0
        #: Whether the shard readers are a replica cohort's, fed by its
        #: appliers (:meth:`of_cohort`) rather than opened by this view.
        self._fed = False
        self._txlog = TxLogTail(directory)
        self._txn_cut: Mapping[str, TxState] = {}
        self._txn_cut_stamp: Optional[Tuple[int, int, int]] = None
        for spec in shard_map:
            readers[spec.name].on_replay = functools.partial(
                self._follow, spec
            )

    @classmethod
    def open(
        cls,
        directory: str,
        schema: DirectorySchema,
        registry: Optional[AttributeRegistry] = None,
    ) -> "CompositeReader":
        """Open read-only views of every shard (no locks taken), then
        bring them to one coordinator cut.

        Each shard view bootstraps on its own, without a cut, so a
        spanning commit that lands between two bootstraps can show on
        one shard and not another: a shard opened after its ``#DECIDE``
        frame replays the pair, one opened before its prepare shows
        nothing.  The :meth:`refresh` that closes the open is pinned to
        a cut captured after every bootstrap, and that cut commits any
        transaction some shard already shows (its decide follows the
        coordinator's commit record), whose prepares are durable on
        every other shard — so each of them applies it too."""
        shard_map = read_shard_map(directory)
        scope = analyze_shard_scope(schema, shard_map)
        local_schema = shard_local_schema(schema, scope)
        readers: Dict[str, StoreReader] = {}
        try:
            for spec in shard_map:
                readers[spec.name] = StoreReader.open(
                    shard_dir(directory, spec.name), local_schema, registry
                )
            view = cls(directory, schema, shard_map, readers, scope, registry)
            for reader in readers.values():
                reader.txn_resolver = view._txn_verdict
            view.refresh()
        except BaseException:
            for reader in readers.values():
                reader.close()
            raise
        return view

    @classmethod
    def of_cohort(
        cls,
        directory: str,
        schema: DirectorySchema,
        registry: Optional[AttributeRegistry],
        shard_map: ShardMap,
        readers: Mapping[str, StoreReader],
    ) -> "CompositeReader":
        """The served copy of a replica cohort laid out by
        ``shard_map``: a composite over ``readers``, its member
        appliers' own (a live mapping — a member that swaps a reader in
        is read through at once), which it neither refreshes nor closes.

        A replica has no coordinator log: the primary ships a decided
        2PC pair only once its transaction is complete on every shard,
        and the cohort lands each shipped batch whole, on the thread
        that reads it, at the cut it recorded.  So the member readers
        trust the shipped ``#DECIDE`` frames (no resolver), and a read
        on a recorded cut finds every shard holding a spanning
        transaction whole or not at all."""
        scope = analyze_shard_scope(schema, shard_map)
        view = cls(directory, schema, shard_map, readers, scope, registry)
        view._fed = True
        return view

    def close(self) -> None:
        """Retire the view (idempotent), closing every per-shard reader
        it opened — a cohort's are its appliers' to close."""
        if self._closed:
            return
        self._closed = True
        if not self._fed:
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
        canonical global document order (layout-independent): root
        first, siblings by normalized RDN, ``size_limit`` keeping the
        first N.  The filter is planned on the shards' own indexes — the
        composite carries a view of them (:func:`_stitch`), no postings —
        and the composite still decides scope, the residual ``matches``
        pass and the order: a search that walks its scope walks it in
        that order and stops at the limit, one that keeps its posting
        sorts the matches (:class:`~repro.query.search.PlannedSearch`)."""
        return self.plan_search(base, scope, filter, size_limit).run()

    def plan_search(
        self,
        base=None,
        scope: Union[SearchScope, str] = SearchScope.SUB,
        filter=None,
        size_limit: Optional[int] = None,
    ) -> PlannedSearch:
        """:meth:`search`, planned on the current view and not yet run:
        the scope and limit validated, the base resolved, the shard
        indexes probed and the walk-or-posting choice made; its
        :meth:`~repro.query.search.PlannedSearch.run` answers in the
        canonical order."""
        self._ensure_open()
        return _canonical_plan(self.instance, base, scope, filter, size_limit)

    def check(self) -> LegalityReport:
        """Full legality of the composite view: per-shard reports (each
        shard view's verdict follows its own frames once it was found
        legal; DNs globalized, engine stats summed) plus composite
        elements."""
        self._ensure_open()
        return _cohort_report(
            self.schema,
            self.scope,
            _members(
                self.shard_map, self.scope,
                lambda name: (
                    self._readers[name].instance, self._readers[name].check()
                ),
            ),
            lambda: self.instance,
        )

    def is_legal(self) -> bool:
        """Whether the composite view satisfies the whole schema."""
        return self.check().is_legal

    @property
    def instance(self) -> DirectoryInstance:
        """The composite instance: stitched on first use, then kept
        current by :meth:`_follow`; stitched again only after a shard
        view swapped its instance object or a follow gave up.

        A fresh stitch is numbered at once, one pass beside the
        stitch's own: a canonically ordered search reads no interval,
        so a served view would otherwise wait for a subtree scope or a
        check to number it, and the server answers a search on the
        event loop only from a numbered instance."""
        self._ensure_open()
        if not self._stitched():
            views = {name: r.instance for name, r in self._readers.items()}
            self._composite = _stitch(self.shard_map, views, self._registry)
            self._composite.ensure_numbered()
            self._stitched_from = views
            self.stitches += 1
        return self._composite

    def stitch(self) -> DirectoryInstance:
        """A fresh stitch of the shard views as they stand, detached from
        this view: the composite's definition, byte for byte.
        :attr:`instance` holds the same entries, but an entry it
        followed under a graft point comes after the grafted shard
        base, where a stitch puts it before."""
        self._ensure_open()
        views = {name: r.instance for name, r in self._readers.items()}
        return _stitch(self.shard_map, views, self._registry)

    def _stitched(self) -> bool:
        """Whether the held composite is the stitch of the shard views'
        current instance objects (so :attr:`instance` would not stitch)."""
        return self._composite is not None and all(
            reader.instance is self._stitched_from[name]
            for name, reader in self._readers.items()
        )

    def settled(self) -> bool:
        """Whether the view is open, every shard view is
        :meth:`StoreReader.settled` and the held composite is the stitch
        of their current instances (so :attr:`instance` would not
        stitch): its content is exactly its :meth:`position`, whole.
        Memory only, like the shard views' test."""
        return (
            not self._closed
            and self._stitched()
            and all(reader.settled() for reader in self._readers.values())
        )

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

        A cohort's served copy (:meth:`of_cohort`) refuses: its
        appliers advance it, a landed batch at a time, and its member
        journals may hold a batch half appended."""
        self._ensure_open()
        if self._fed:
            raise StoreError(
                f"{self._dir} is a replica cohort's served copy; its "
                "appliers advance it, a read never refreshes it"
            )
        self._capture_txn_cut()
        return CompositeRefreshResult({
            name: reader.refresh(strict=strict)
            for name, reader in self._readers.items()
        })

    def _capture_txn_cut(self) -> None:
        """Pin this refresh to the coordinator log's current decision
        set.  The log is read only when the file changed (cheap stat
        probe), and then only the records appended since the last read
        (:class:`~repro.store.txlog.TxLogTail`); an unreadable or absent
        log yields an empty cut, which keeps every in-flight spanning
        transaction withheld."""
        stamp = self._txlog_stamp()
        if stamp is None:
            self._txn_cut = {}
            self._txn_cut_stamp = None
            return
        if stamp == self._txn_cut_stamp:
            return
        try:
            self._txn_cut = self._txlog.read() or {}
        except StoreError:
            self._txn_cut = {}
            self._txn_cut_stamp = None
            return
        self._txn_cut_stamp = stamp

    def _txlog_stamp(self) -> Optional[Tuple[int, int, int]]:
        """The coordinator log's ``(size, mtime, inode)``, or ``None``
        when it cannot be stat'ed."""
        try:
            probe = os.stat(os.path.join(self._dir, TXLOG_FILE))
        except OSError:
            return None
        return (probe.st_size, probe.st_mtime_ns, probe.st_ino)

    def _txn_verdict(self, txid: str) -> Optional[str]:
        """Answer a shard reader's 2PC lookup from the captured cut.
        Only a decision durable at the cut is actionable: ``"commit"``
        / ``"abort"`` when the cut holds one, ``None`` for everything
        else — unknown txid, a bare ``begin`` — which keeps the
        transaction withheld on this shard.  The conservative ``None``
        matters twice over: a transaction with no durable commit may
        still abort, and one that committed *after* the cut was
        invisible to sibling shards scanned earlier in this pass."""
        entry = self._txn_cut.get(txid)
        return entry.verdict if entry is not None and entry.decided else None

    def lag(self) -> Dict[str, ReaderLag]:
        """Per-shard lag behind the on-disk committed state."""
        self._ensure_open()
        return {name: r.lag() for name, r in self._readers.items()}

    def position(self) -> Position:
        """The current view's position, one member per shard."""
        self._ensure_open()
        return Position(
            {name: (r.generation(), r.seq()) for name, r in self._readers.items()}
        )

    def shard_reader(self, name: str) -> StoreReader:
        """The per-shard reader (shard-local DNs!) for introspection."""
        return self._readers[name]

    def describe_cut(self) -> List[str]:
        """The routing cut as ``fsck`` prints it: the shard map, each
        shard's base, and which schema elements span the cut."""
        return [
            f"shard map: {len(self.shard_map)} shard(s)"
            + (" [nested cut]" if self.shard_map.has_cut() else ""),
            *(f"  {spec.name}: base {spec.base}" for spec in self.shard_map),
            f"scope: {self.scope.summary()}",
        ]

    def _ensure_open(self) -> None:
        if self._closed:
            raise StoreError("composite reader is closed")
