"""A crash-safe, schema-guarded directory store.

:class:`DirectoryStore` combines the Section 4 incremental legality
guard with a write-ahead-log storage engine:

* the **snapshot** (``snapshot.ldif``) is an LDIF content file prefixed
  with a generation-id header comment;
* the **journal** (``journal.ldif``) is an append-only sequence of
  checksummed, length-prefixed frames (:mod:`repro.store.wal`), one per
  committed transaction, fsynced before :meth:`apply` returns.

Every update goes through the
:class:`~repro.updates.incremental.IncrementalChecker` first — only
legality-preserving transactions reach the journal, so recovery
(:mod:`repro.store.recovery`) can replay blindly; Theorem 4.1's
modularity is what licenses that (``docs/paper_mapping.md``).

Crash-safety model (property-tested in ``tests/test_store_faults.py``
by crashing at every I/O boundary):

* :meth:`create` builds the store in a temp directory and publishes it
  with a single atomic rename — a crash leaves either no store or a
  complete one, never a half-initialised directory;
* :meth:`apply` appends one checksummed frame and fsyncs; a crash tears
  at most the in-flight frame, which recovery detects (CRC + length
  prefix), quarantines into ``journal.quarantine``, and truncates;
* :meth:`compact` bumps the store **generation**: the new snapshot is
  renamed into place carrying generation *g+1* while journal records
  carry *g*, so a crash between the two steps leaves a journal that
  recovery recognises as stale and discards instead of double-applying
  (the failure mode of the pre-WAL store);
* an advisory ``lock`` file (``flock``) rejects concurrent opens with
  :class:`~repro.errors.StoreLockedError`;
* when recovery finds real damage (checksum failure, replay error,
  illegal recovered instance) the store opens in degraded **read-only
  mode** instead of refusing: reads still serve, mutations raise
  :class:`~repro.errors.StoreReadOnlyError` until an explicit
  ``recover`` run quarantines the damage;
* in a **sharded** deployment each store doubles as a two-phase-commit
  participant: :meth:`StagedWrite.prepare` appends a durable
  ``#PREPARE`` frame that stays invisible to readers and recovery until
  the matching ``#DECIDE`` frame lands (:meth:`decide`).  A store
  reopened with an undecided prepare is *in doubt*: ordinary writes
  refuse until :meth:`resolve_pending` applies the coordinator's
  presumed-abort verdict (:mod:`repro.store.txlog`).

Every write takes one path (``DESIGN.md`` §6, "write pipeline"):
:meth:`DirectoryStore.stage` guards a change and applies it in memory,
and the returned :class:`StagedWrite` leaves through ``commit()`` (one
ordinary frame), ``abort()`` (the guard's undo token, nothing durable)
or ``prepare(txid)``; :meth:`apply` and :meth:`modify` are
``stage(change).commit()``.

The writer is a read surface too (:meth:`DirectoryStore.plan_search`,
:meth:`DirectoryStore.check`): a plain primary serves its writer's
instance.  Its verdict follows the guard as a reader's view follows its
frames, and a poisoned store refuses reads as it refuses writes.
"""

from __future__ import annotations

import glob
import os
import shutil
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Union

from repro.errors import (
    StoreError,
    StoreLockedError,
    StoreReadOnlyError,
    UpdateError,
)
from repro.ldif.changes import parse_changes, serialize_changes
from repro.ldif.modify import (
    ModifyRecord,
    apply_modification,
    apply_modify_blind,
    serialize_modification,
)
from repro.ldif.writer import serialize_ldif
from repro.legality.report import LegalityReport
from repro.model.attributes import AttributeRegistry
from repro.model.instance import DirectoryInstance
from repro.query.search import PlannedSearch, SearchScope
from repro.schema.directory_schema import DirectorySchema
from repro.store import index as _index
from repro.store import recovery as _recovery
from repro.store import wal
from repro.store.position import Position
from repro.store.recovery import (
    JOURNAL_FILE,
    LEFTOVER_FILES,
    LOCK_FILE,
    RecoveryReport,
    SNAPSHOT_FILE,
)
from repro.store.wal import StoreIO
from repro.updates.incremental import (
    FollowedVerdict,
    IncrementalChecker,
    UpdateOutcome,
    attach_path_counts,
)
from repro.updates.operations import UpdateTransaction

__all__ = ["DirectoryStore", "StagedWrite"]

#: Bounded retries for reclaiming a stale advisory lock (a dead holder
#: pid).  Each retry either acquires a fresh lock file or observes a
#: *live* contender and raises, so a handful of attempts suffices.
_LOCK_RECLAIM_ATTEMPTS = 4

#: Sibling of the lock file that serializes stale-lock reclaim.  It is
#: *never* unlinked, so a flock on it is always on the inode every
#: contender sees — the property the lock file itself loses the moment
#: reclaim unlinks it.
_LOCK_GUARD_SUFFIX = ".guard"


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (signal-0 probe).

    ``PermissionError`` means the pid exists but belongs to another
    user — treat it as alive; only a definite ``ProcessLookupError``
    licenses reclaiming the lock.
    """
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True
    return True


@dataclass(frozen=True)
class _ChangeKind:
    """What the write pipeline — and a reader re-checking the frames it
    follows — needs from one kind of change; each function takes its
    target first and the change second."""

    #: The journal frame payload (what recovery and readers replay).
    payload: Callable
    #: Apply through the incremental guard, returning the
    #: :class:`UpdateOutcome`; a rejected change is left rolled back,
    #: an applied one carries the token that undoes it.
    #: The guard's methods are looked up per call, never cached.
    guarded: Callable
    #: Apply to an instance with no legality check.
    replay: Callable


_TRANSACTION = _ChangeKind(
    payload=serialize_changes,
    guarded=lambda guard, transaction: guard.apply_transaction(transaction),
    replay=_recovery.replay_transaction,
)
_MODIFY = _ChangeKind(
    payload=serialize_modification,
    guarded=apply_modification,
    replay=apply_modify_blind,
)


def _kind_of(change) -> _ChangeKind:
    if isinstance(change, UpdateTransaction):
        return _TRANSACTION
    if isinstance(change, ModifyRecord):
        return _MODIFY
    raise UpdateError(
        "only insert/delete transactions and changetype: modify records "
        f"are journaled; got {type(change).__name__}"
    )


class StagedWrite:
    """A change :meth:`DirectoryStore.stage` applied in memory, not yet
    durable.  :attr:`outcome` is the guard's verdict; exactly one of
    :meth:`commit`, :meth:`abort` and :meth:`prepare` ends the write.
    When the change was rejected (or is empty) there is nothing staged
    and every exit is a no-op, as is any exit after the first."""

    def __init__(
        self,
        store: "DirectoryStore",
        kind: _ChangeKind,
        change,
        outcome: UpdateOutcome,
        *,
        live: bool = True,
    ) -> None:
        self.outcome = outcome
        self._store = store
        self._kind = kind
        self._change = change
        self._live = live and outcome.applied

    def _leave(self) -> bool:
        """Whether this exit has work to do; true at most once."""
        live, self._live = self._live, False
        return live

    def commit(self) -> UpdateOutcome:
        """Make the change durable and visible: one ordinary WAL frame,
        fsynced (poisoning contract of :meth:`DirectoryStore.apply`)."""
        if self._leave():
            store = self._store
            frame = wal.encode_record(
                store._journal_count + 1,
                store._generation,
                self._kind.payload(self._change),
            )
            store._append_frame(frame, "journal")
            self.outcome.token.clear()  # durable: nothing takes it back
        return self.outcome

    def abort(self) -> None:
        """Undo the change in memory with the token the guard recorded
        while applying it.  Nothing was written, so nothing is left to
        recover; a failing rollback poisons the store."""
        if self._leave():
            self._undo()

    def _undo(self) -> None:
        self._store._replay(self.outcome.undo, "staged-write rollback")

    def prepare(self, txid: str) -> UpdateOutcome:
        """2PC phase one: append a durable ``#PREPARE`` frame.

        The prepare is invisible to readers, recovery, and replay until
        the matching ``#DECIDE`` frame lands — so a crash here leaves
        the shard in doubt, and the coordinator log's presumed-abort
        rule resolves it at the next open.  The change stays applied in
        memory; :meth:`DirectoryStore.decide` keeps or rolls it back.
        When the guard rejected the change nothing is written and the
        rejection outcome is returned; the caller aborts the global
        transaction.
        """
        if self._leave():
            store = self._store
            frame = wal.encode_prepare(
                txid,
                store._journal_count + 1,
                store._generation,
                self._kind.payload(self._change),
            )
            store._append_frame(frame, f"prepare ({txid})")
            store._pending_txid = txid
            store._pending_staged = self
        return self.outcome


class DirectoryStore:
    """A schema-guarded directory with WAL durability.

    Instances hold an advisory lock on their directory for their whole
    lifetime: use :meth:`close` (or a ``with`` block) to release it.
    """

    def __init__(
        self,
        directory: str,
        schema: DirectorySchema,
        instance: DirectoryInstance,
        guard: IncrementalChecker,
        *,
        generation: int = 1,
        journal_count: int = 0,
        io: Optional[StoreIO] = None,
        lock_handle=None,
        read_only: bool = False,
        recovery: Optional[RecoveryReport] = None,
        index_key_attributes: Optional[Iterable[str]] = None,
        index_referential_attributes: Optional[Iterable[str]] = None,
    ) -> None:
        self._dir = directory
        self.schema = schema
        self.instance = instance
        self._guard = guard
        #: The writer's verdict: every write goes through :attr:`_guard`,
        #: so once a full pass finds the store legal it follows them.
        self._verdict = FollowedVerdict(guard.session)
        self._generation = generation
        self._journal_count = journal_count
        self._io = io if io is not None else StoreIO()
        self._lock_handle = lock_handle
        self._read_only = read_only
        self._poisoned: Optional[str] = None
        self.recovery_report = recovery
        self._closed = False
        #: 2PC participant state: the prepared-but-undecided transaction
        #: (at most one — the WAL scan discipline enforces it).  On the
        #: writer path it is applied in memory and ``_pending_staged``
        #: holds its handle; found in the journal at open time it was
        #: withheld from replay and ``_pending_payload`` preserves it.
        self._pending_txid: Optional[str] = None
        self._pending_payload: Optional[str] = None
        self._pending_staged: Optional[StagedWrite] = None
        #: Secondary indexes (:mod:`repro.store.index`), derived from the
        #: recovered instance.
        #: The sharded coordinator widens the key/referential sets so
        #: per-shard stores (whose local schema has no extras) still
        #: maintain the postings its global Section 6.1 probes need.
        keys, refs = _index.extras_index_attributes(schema.extras)
        if index_key_attributes is not None:
            keys = keys | frozenset(index_key_attributes)
        if index_referential_attributes is not None:
            refs = refs | frozenset(index_referential_attributes)
        _index.AttributeIndexes.attach(instance, keys, refs)
        # Counted children and descendants let the guard judge Figure 5's
        # required child/descendant deletion rows on the path above the
        # pruned root instead of over all of D − Δ.
        attach_path_counts(instance, schema)
        #: The Section 6.1 delta check — the one-member case of the
        #: probe a sharded coordinator runs over all its shards (whose
        #: local schemas carry no extras, so they hold none).
        self._extras_probe: Optional[_index.ExtrasDeltaProbe] = None
        if schema.extras is not None:
            self._extras_probe = _index.ExtrasDeltaProbe(
                schema.extras,
                [(instance, lambda dn: dn)],
                lambda target: instance.find(target) is not None,
            )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        directory: str,
        schema: DirectorySchema,
        initial: Optional[DirectoryInstance] = None,
        registry: Optional[AttributeRegistry] = None,
        *,
        io: Optional[StoreIO] = None,
        index_key_attributes: Optional[Iterable[str]] = None,
        index_referential_attributes: Optional[Iterable[str]] = None,
    ) -> "DirectoryStore":
        """Initialize a store directory atomically.

        The snapshot and journal are written into a sibling temp
        directory which is renamed into place in one step, so an
        interrupted ``create`` never leaves a partial store: the target
        either does not exist (retry freely) or is complete.  Stale
        temp directories from interrupted attempts are swept first.

        Raises
        ------
        UpdateError
            If the directory already holds a store (or is non-empty),
            or the initial instance is not legal w.r.t. the schema.
        StoreLockedError
            If another process locks the new store first.
        """
        io = io if io is not None else StoreIO()
        target = os.path.normpath(directory)
        if os.path.exists(os.path.join(target, SNAPSHOT_FILE)):
            raise UpdateError(f"{directory!r} already contains a store")
        if os.path.isdir(target) and os.listdir(target):
            raise UpdateError(
                f"{directory!r} is not empty and does not contain a store"
            )
        for stale in glob.glob(f"{target}.tmp-*"):
            shutil.rmtree(stale, ignore_errors=True)

        instance = (
            initial
            if initial is not None
            else DirectoryInstance(attributes=registry)
        )
        # The guard's baseline is the full session pass — extras
        # included: the Section 6.1 delta checks assume a clean pre-state.
        guard = IncrementalChecker(schema, instance)

        temp = f"{target}.tmp-{os.getpid()}"
        os.makedirs(temp)
        snapshot_text = wal.encode_snapshot(1, serialize_ldif(instance))
        with io.open_text(os.path.join(temp, SNAPSHOT_FILE), "w") as handle:
            handle.write(snapshot_text)
            io.fsync(handle)
        with io.open_bytes(os.path.join(temp, JOURNAL_FILE), "wb") as handle:
            io.fsync(handle)
        io.fsync_dir(temp)
        if os.path.isdir(target):  # exists but empty: make room for rename
            os.rmdir(target)
        io.rename(temp, target)
        io.fsync_dir(os.path.dirname(os.path.abspath(target)))

        lock = cls._acquire_lock(target)
        return cls(
            target,
            schema,
            instance,
            guard,
            generation=1,
            journal_count=0,
            io=io,
            lock_handle=lock,
            index_key_attributes=index_key_attributes,
            index_referential_attributes=index_referential_attributes,
        )

    @classmethod
    def open(
        cls,
        directory: str,
        schema: DirectorySchema,
        registry: Optional[AttributeRegistry] = None,
        *,
        io: Optional[StoreIO] = None,
        strict: bool = False,
        index_key_attributes: Optional[Iterable[str]] = None,
        index_referential_attributes: Optional[Iterable[str]] = None,
    ) -> "DirectoryStore":
        """Recover the store and take its lock.

        Runs :func:`repro.store.recovery.recover`: the committed journal
        prefix is replayed blindly onto the snapshot, a torn tail is
        quarantined and truncated automatically, a stale (pre-compaction)
        journal is discarded, and the recovered instance is verified
        against ``schema``.  Real damage opens the store in degraded
        read-only mode (``strict=True`` raises instead).  A snapshot
        without its header raises :class:`~repro.errors.StoreError`.
        """
        io = io if io is not None else StoreIO()
        if not os.path.isdir(directory):
            raise FileNotFoundError(f"{directory!r} is not a store directory")
        lock = cls._acquire_lock(directory)
        try:
            instance, report = _recovery.recover(
                directory, schema, registry, io=io, repair=True, strict=strict
            )
            guard = IncrementalChecker(schema, instance, assume_legal=True)
            store = cls(
                directory,
                schema,
                instance,
                guard,
                generation=report.generation,
                journal_count=report.last_seq,
                io=io,
                lock_handle=lock,
                read_only=report.read_only,
                recovery=report,
                index_key_attributes=index_key_attributes,
                index_referential_attributes=index_referential_attributes,
            )
            if report.in_doubt_txid is not None:
                store._pending_txid = report.in_doubt_txid
                store._pending_payload = report.in_doubt_payload
            return store
        except BaseException:
            cls._release_lock(lock)
            raise

    def close(self) -> None:
        """Release the advisory lock.  Idempotent; the store object must
        not be used afterwards."""
        if self._closed:
            return
        self._closed = True
        self._release_lock(self._lock_handle)
        self._lock_handle = None

    def __enter__(self) -> "DirectoryStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # updates: one staged pipeline, stage -> check -> commit | abort
    # ------------------------------------------------------------------
    def apply(self, transaction: UpdateTransaction) -> UpdateOutcome:
        """Run a transaction through the incremental checker; journal it
        when (and only when) it commits — ``stage(change).commit()``.

        If the journal append fails (disk full, I/O error) the store is
        *poisoned*: the in-memory state is ahead of the durable state,
        so every subsequent operation raises until the store is reopened
        — reopening recovers exactly the durable committed prefix.

        The returned outcome carries ``outcome.stats``: the legality
        work this transaction cost (content checks, query work — the
        ``check --profile`` counters), as the delta of the
        guard session's cumulative :class:`CheckStats`.  What is checked
        is :meth:`stage`'s to say; a rejected transaction is rolled back
        in memory and never journaled.
        """
        return self.stage(transaction).commit()

    def modify(self, record: ModifyRecord) -> UpdateOutcome:
        """Run one RFC 2849 ``changetype: modify`` record through the
        incremental checker; journal it when (and only when) it commits.

        The journal frame's payload is the modify record itself
        (:func:`repro.ldif.modify.serialize_modification`), which
        recovery and the WAL-following readers blind-replay through
        :func:`repro.ldif.modify.apply_modify_blind` — same poisoning
        contract as :meth:`apply`.  ``modrdn`` records are rejected:
        renames remain a memory-only extension with no replay form.
        """
        return self.stage(record).commit()

    def stage(self, change) -> "StagedWrite":
        """Guard ``change`` (an :class:`UpdateTransaction` or a
        :class:`~repro.ldif.modify.ModifyRecord`) and apply it *in
        memory only*; the returned :class:`StagedWrite` carries the
        :class:`UpdateOutcome` and the three ways out.

        Content and structure are Δ-checked by the incremental guard,
        then — when the schema declares Section 6.1 extras — the index
        probes vet the delta; a change either check rejects is already
        rolled back when this returns, and every exit of its handle is
        a no-op.  Nothing reaches the journal before an exit is taken,
        so a caller (the sharded coordinator's composite check) may
        still :meth:`StagedWrite.abort` with zero durable footprint.
        Settle the handle before the next call on this store.
        """
        self._ensure_writable()
        kind = _kind_of(change)
        if isinstance(change, UpdateTransaction) and not change.operations:
            # Nothing to check, journal or ship: an empty frame would
            # advance the journal (and every replica) for no change.
            return StagedWrite(self, kind, change, UpdateOutcome(), live=False)
        probe = self._extras_probe
        if probe is not None:
            probe.checkpoint()
        baseline = self._guard.session.stats.copy()
        outcome = kind.guarded(self._guard, change)
        outcome.stats = self._guard.session.stats.since(baseline)
        staged = StagedWrite(self, kind, change, outcome)
        if outcome.applied and probe is not None:
            violations, work = probe.settle()
            outcome.stats.merge(work)
            if violations:
                staged.abort()
                outcome.report.extend(violations)
                outcome.checks.append(
                    "extras delta check (index probes): rejected, rolled "
                    "back in memory"
                )
            else:
                outcome.checks.append(
                    "extras delta check (index probes): clean"
                )
        return staged

    def _append_frame(self, frame: bytes, what: str) -> None:
        """Append one WAL frame and advance the journal position — the
        only append site, so the poisoning contract lives here: a
        failed append leaves memory ahead of (or, for a decide, out of
        step with) disk, and the store fails stop until reopened."""
        try:
            self._io.append_bytes(self._journal_path(self._dir), frame)
        except Exception as exc:
            self._poisoned = f"{what} append failed: {exc}"
            raise StoreError(
                f"{what} append failed; the store is poisoned (the "
                "in-memory state is out of step with disk) — close and "
                f"reopen to recover the committed prefix: {exc}"
            ) from exc
        self._journal_count += 1

    def _replay(self, replay: Callable[[], None], what: str) -> None:
        """Run a blind in-memory replay — no guard, no journal.  A
        failure poisons the store: memory would diverge from the
        durable state."""
        try:
            replay()
        except Exception as exc:
            self._poisoned = f"{what} failed: {exc}"
            raise StoreError(
                f"{what} failed; the store is poisoned — close and "
                f"reopen to recover the committed prefix: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    # 2PC participant surface (driven by repro.store.sharded)
    # ------------------------------------------------------------------
    def decide(self, txid: str, verdict: str) -> None:
        """Phase two: append the ``#DECIDE`` frame for the prepared
        transaction, then reconcile memory with the verdict (an abort
        rolls back the in-memory apply via the staged undo token)."""
        self._ensure_writable(allow_pending=True)
        if verdict not in ("commit", "abort"):
            raise ValueError(f"invalid 2PC verdict {verdict!r}")
        if self._pending_txid != txid:
            pending = (
                f" (pending: {self._pending_txid})"
                if self._pending_txid is not None
                else ""
            )
            raise StoreError(
                f"shard has no prepared transaction {txid!r} to decide"
                + pending
            )
        self._settle_pending(verdict)

    def resolve_pending(self, verdict: str) -> str:
        """Resolve an in-doubt prepare found at open time with the
        coordinator's verdict; returns the resolved txid.

        Unlike :meth:`decide`, the prepared transaction is *not* in
        memory (recovery withheld it), so a commit verdict blindly
        replays the preserved payload and an abort needs no memory
        work at all — the decide frame alone retires the prepare.
        """
        self._ensure_writable(allow_pending=True)
        if verdict not in ("commit", "abort"):
            raise ValueError(f"invalid 2PC verdict {verdict!r}")
        if self._pending_txid is None:
            raise StoreError("store holds no in-doubt prepared transaction")
        txid = self._pending_txid
        self._settle_pending(verdict)
        return txid

    def _settle_pending(self, verdict: str) -> None:
        """Append the decide frame, clear the pending state, and bring
        memory in line with the verdict.  Disk first, memory second: a
        failure after the append poisons the store, and reopening
        replays the now-decided journal correctly."""
        txid = self._pending_txid
        frame = wal.encode_decide(
            txid, verdict, self._journal_count + 1, self._generation
        )
        self._append_frame(frame, f"decide ({txid})")
        payload, staged = self._pending_payload, self._pending_staged
        self._pending_txid = None
        self._pending_payload = None
        self._pending_staged = None
        if staged is not None:  # prepared by this writer: applied in memory
            if verdict == "abort":
                staged._undo()
            else:
                staged.outcome.token.clear()
        elif verdict == "commit":
            self._verdict.drop()  # applied blind: no guard vouches for it
            self._replay(
                lambda: _recovery.replay_transaction(
                    self.instance, parse_changes(payload)
                ),
                "post-decide reconciliation",
            )

    @property
    def pending_txid(self) -> Optional[str]:
        """The id of the prepared-but-undecided 2PC transaction, or
        ``None`` — while set, ordinary writes refuse."""
        return self._pending_txid

    # ------------------------------------------------------------------
    # the read surface: a plain primary serves its writer's instance
    # ------------------------------------------------------------------
    def plan_search(
        self,
        base=None,
        scope: Union[SearchScope, str] = SearchScope.SUB,
        filter=None,
        size_limit: Optional[int] = None,
    ) -> PlannedSearch:
        """A scoped LDAP search (Section 3) of the current contents,
        planned and not yet run; it answers in document order, as a
        reader's view of this store does."""
        self._ensure_readable()
        return PlannedSearch(self.instance, base, scope, filter, size_limit)

    def check(self) -> LegalityReport:
        """Legality report of the current contents
        (:class:`~repro.updates.incremental.FollowedVerdict`): a full
        pass of the guard's session until one finds the store legal;
        from then on the Δ-check work the guard did since the last
        report, plus the Section 6.1 extras in full."""
        self._ensure_readable()
        return self._verdict.check(self.instance)

    def compact(self) -> None:
        """Fold the journal into a fresh snapshot.

        The new snapshot carries generation *g+1* and is renamed into
        place atomically; the journal (whose records carry *g*) is then
        reset.  A crash between the two steps is safe: recovery sees
        old-generation records under a new-generation snapshot and
        discards them as stale instead of double-applying.  The header
        also records the frontier folded (``folds=<seq>``), so a
        replication shipper can let a follower standing there fold
        locally instead of downloading the snapshot.
        """
        self._ensure_writable()
        new_generation = self._generation + 1
        snapshot_text = wal.encode_snapshot(
            new_generation, serialize_ldif(self.instance),
            folds=self._journal_count,
        )
        try:
            self._io.write_file_atomic(
                self._snapshot_path(self._dir), snapshot_text.encode("utf-8")
            )
            # -- crash window here: journal is stale, snapshot is new --
            self._io.write_file_atomic(self._journal_path(self._dir), b"")
        except Exception as exc:
            # The on-disk generation may now be ahead of self._generation;
            # appending more records would stamp them with the old id and
            # recovery would discard them as stale.  Fail stop.
            self._poisoned = f"compaction failed: {exc}"
            raise StoreError(
                "compaction failed; the store is poisoned — close and "
                f"reopen to recover: {exc}"
            ) from exc
        self._generation = new_generation
        self._journal_count = 0
        self._remove_leftover_files()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def journal_length(self) -> int:
        """The last journal frame sequence number since the last
        compaction.  Ordinary commits contribute one frame each; a
        decided 2PC transaction contributes two (prepare + decide), so
        this tracks the WAL position — the same value readers report as
        their ``position()`` seq — not the transaction count."""
        return self._journal_count

    @property
    def generation(self) -> int:
        """The store generation id (bumped by every compaction)."""
        return self._generation

    def position(self) -> Position:
        """The committed frontier ``(generation, journal_length)`` —
        what a reader caught up with this store reports."""
        return Position.plain(self._generation, self._journal_count)

    @property
    def read_only(self) -> bool:
        """Whether recovery degraded the store to read-only mode."""
        return self._read_only

    def _remove_leftover_files(self) -> None:
        """Delete the files older stores persisted beside the snapshot
        (:data:`~repro.store.recovery.LEFTOVER_FILES`): nothing reads
        them."""
        for name in LEFTOVER_FILES:
            try:
                os.unlink(os.path.join(self._dir, name))
            except OSError:
                pass

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _ensure_readable(self) -> None:
        """Refuse a closed or poisoned store.  A poisoned writer's memory
        may hold a change its journal does not (a failed append or
        fsync): no read may show it, and no write may follow it."""
        if self._closed:
            raise StoreError("store is closed")
        if self._poisoned is not None:
            raise StoreError(
                f"store is poisoned ({self._poisoned}); close and reopen"
            )

    def _ensure_writable(self, allow_pending: bool = False) -> None:
        self._ensure_readable()
        if self._read_only:
            raise StoreReadOnlyError(
                "store is in degraded read-only mode (recovery found "
                "damage); run `recover` on it to quarantine the damage"
            )
        if not allow_pending and self._pending_txid is not None:
            raise StoreError(
                f"store holds an in-doubt 2PC transaction "
                f"{self._pending_txid}; the coordinator log decides it — "
                "open the sharded store (or run `recover` on its "
                "root) to resolve it"
            )

    @staticmethod
    def _snapshot_path(directory: str) -> str:
        return os.path.join(directory, SNAPSHOT_FILE)

    @staticmethod
    def _journal_path(directory: str) -> str:
        return os.path.join(directory, JOURNAL_FILE)

    @staticmethod
    def _acquire_lock(directory: str):
        import fcntl

        path = os.path.join(directory, LOCK_FILE)
        for _ in range(_LOCK_RECLAIM_ATTEMPTS):
            try:
                handle = open(path, "a+")
            except OSError as exc:
                # Unopenable lock file (permissions, directory
                # vanished): surface as the typed lock error rather
                # than a raw OSError so callers need one except clause
                # for "could not lock".
                raise StoreLockedError(
                    f"cannot open lock file {path!r}: {exc}"
                ) from exc
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                holder_pid: Optional[int] = None
                try:
                    handle.seek(0)
                    holder_pid = int(handle.read().strip() or "0") or None
                except (OSError, ValueError):
                    pass
                if holder_pid is not None and not _pid_alive(holder_pid):
                    # The recorded holder crashed without unlocking (its
                    # flock survives on an fd some other process
                    # inherited).  Reclaim: retire this lock *inode* so
                    # the stale flock guards nothing, then retry on a
                    # fresh file.  The unlink is serialized through the
                    # reclaim guard and verified against the inode we
                    # probed — never unlink a lock file some other
                    # contender just created and acquired.
                    DirectoryStore._reclaim_stale_lock(path, handle)
                    handle.close()
                    continue
                handle.close()
                holder = (
                    f"pid {holder_pid}" if holder_pid is not None
                    else "another live store handle"
                )
                raise StoreLockedError(
                    f"{directory!r} is locked by {holder} "
                    "(close it, or wait for the owning process to exit)",
                    holder_pid=holder_pid,
                ) from None
            # The flock we now hold may be on an inode a concurrent
            # reclaimer is about to retire (we opened the path before
            # its unlink).  Verify path identity and record our pid
            # *under the reclaim guard*: reclaimers unlink only under
            # that guard after re-reading the recorded pid, so either
            # our pid lands first (the reclaimer sees a live owner and
            # backs off) or the unlink lands first (we observe the
            # mismatch here and retry on the fresh file).
            if DirectoryStore._confirm_lock_ownership(path, handle):
                return handle
            handle.close()
            continue
        raise StoreLockedError(  # pragma: no cover - reclaim livelock
            f"{directory!r} lock could not be acquired after "
            f"{_LOCK_RECLAIM_ATTEMPTS} reclaim attempts"
        )

    @staticmethod
    def _confirm_lock_ownership(path: str, handle) -> bool:
        """Under the reclaim guard: verify ``path`` still names the
        inode ``handle`` flocked, and record our pid on it.

        Returns ``False`` when a reclaimer retired our inode first —
        the caller must retry on the file now at ``path``.
        """
        import fcntl

        try:
            guard = open(path + _LOCK_GUARD_SUFFIX, "a+")
        except OSError:  # pragma: no cover - unopenable guard
            guard = None  # degrade to the unguarded inode check
        try:
            if guard is not None:
                fcntl.flock(guard.fileno(), fcntl.LOCK_EX)
            try:
                if os.stat(path).st_ino != os.fstat(handle.fileno()).st_ino:
                    return False
            except OSError:
                return False
            # Record our pid for the next contender's error message and
            # the staleness check.  The write must succeed while the
            # guard is held: an empty lock file is indistinguishable
            # from a crashed-before-recording writer, which reclaimers
            # deliberately refuse to retire.
            try:
                handle.seek(0)
                handle.truncate()
                handle.write(str(os.getpid()))
                handle.flush()
            except OSError:  # pragma: no cover - diagnostics only
                pass
            return True
        finally:
            if guard is not None:
                guard.close()

    @staticmethod
    def _reclaim_stale_lock(path: str, probed) -> None:
        """Retire the stale lock inode that ``probed`` has open.

        Unlink-by-path is only safe if ``path`` still names the inode
        whose dead holder pid we read: two contenders that both probed
        the same dead holder would otherwise race unlink/re-create —
        the slower one deletes the lock file the faster one just
        acquired, and both end up holding exclusive flocks on
        *different* inodes (two live writers, WAL corruption).  All
        unlinks are therefore serialized through a separate guard file
        (``lock.guard``) that is *never* unlinked, and happen only
        after re-verifying, under the guard, that (a) ``path`` still
        names the probed inode and (b) the holder recorded on it is
        still dead.  A contender that loses the verification simply
        returns; the retry loop re-probes from scratch.
        """
        import fcntl

        try:
            guard = open(path + _LOCK_GUARD_SUFFIX, "a+")
        except OSError:  # pragma: no cover - unopenable guard
            return  # cannot serialize the unlink; let the retry re-probe
        try:
            # Blocking is fine: the guard is held only across the few
            # syscalls below, and we hold no other lock while waiting.
            fcntl.flock(guard.fileno(), fcntl.LOCK_EX)
            try:
                if os.stat(path).st_ino != os.fstat(probed.fileno()).st_ino:
                    return  # someone already retired this inode
            except OSError:
                return  # path gone mid-reclaim: nothing left to retire
            # Re-probe the holder under the guard: a fresh owner may
            # have flocked this very inode and recorded its (live) pid
            # since we read it.  Only a positively *dead* recorded pid
            # licenses the unlink — an empty or unreadable pid file
            # could be an owner mid-recording, so it is left alone.
            try:
                probed.seek(0)
                holder_pid = int(probed.read().strip() or "0") or None
            except (OSError, ValueError):
                holder_pid = None
            if holder_pid is None or _pid_alive(holder_pid):
                return  # a live (or unconfirmed) owner; respect it
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - vanished underneath
                pass
        finally:
            guard.close()  # closing drops the guard flock

    @staticmethod
    def _release_lock(handle) -> None:
        if handle is None:
            return
        import fcntl

        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        except OSError:  # pragma: no cover - releasing is best-effort
            pass
        finally:
            handle.close()
