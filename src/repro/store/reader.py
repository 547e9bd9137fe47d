"""Lock-free read-only views of a live store: the reader half of the
reader/writer split.

:class:`StoreReader` opens a store directory **without** taking the
writer's advisory lock, so any number of readers can serve queries and
legality checks while one writer keeps committing.  The design leans
entirely on invariants the writer already maintains — no new shared
state, no reader→writer communication:

* the snapshot is only ever replaced by an **atomic rename** carrying a
  **new generation id** in its header, so a reader either sees the old
  complete snapshot or the new complete snapshot, never a mixture;
* the journal is **append-only within a generation** and every frame is
  checksummed, length-prefixed, and sequence-numbered
  (:mod:`repro.store.wal`), so a reader that remembers ``(generation,
  seq, byte offset)`` can consume *just the new bytes* and stop —
  silently, at a frame boundary — the moment it meets a torn or
  uncommitted suffix.  This is exactly recovery's committed-prefix
  rule (:mod:`repro.store.recovery`), applied incrementally;
* the snapshot header is the one place a generation describes itself:
  a reader probes its first line (O(1)) to notice a compaction, and a
  snapshot without one is damage (:class:`~repro.errors.StoreError`).

The resulting guarantee, stress- and crash-tested by ``tests/harness``:
**every state a reader observes is a committed state the writer really
passed through** — possibly stale (the writer may be ahead), never
torn, never a state that recovery would roll back.  ``refresh()``
advances the view; ``lag()`` reports how far behind it is;
``strict=True`` turns silent staleness into
:class:`~repro.errors.StaleReadError`.

Readers expose the read-only half of the store surface: :meth:`search`
(Section 3 hierarchical selection) and :meth:`check` / :meth:`is_legal`.
The first ``check`` is a full :class:`~repro.legality.engine.CheckSession`
pass; once it has found the view legal **the verdict follows the
frames** (Theorem 4.2): every frame replayed from then on goes through
the same incremental guard the writer ran at ``stage``, so the next
``check`` has nothing left to compute.  Readers never write anything:
not the journal, not the snapshot.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, List, Optional, Union

from repro.errors import StaleReadError, StoreError
from repro.ldif.reader import parse_ldif
from repro.legality.engine import CheckSession
from repro.legality.report import LegalityReport
from repro.model.attributes import AttributeRegistry
from repro.model.entry import Entry
from repro.model.instance import DirectoryInstance
from repro.query.search import PlannedSearch, SearchScope
from repro.schema.directory_schema import DirectorySchema
from repro.store import index as _index
from repro.store import wal
from repro.store.journal import _kind_of
from repro.store.position import Position
from repro.store.recovery import JOURNAL_FILE, SNAPSHOT_FILE, parse_record
from repro.store.wal import StoreIO
from repro.updates.incremental import (
    FollowedVerdict,
    IncrementalChecker,
    attach_path_counts,
)
from repro.updates.operations import UpdateTransaction

__all__ = ["StoreReader", "RefreshResult", "ReaderLag"]

#: Bootstrap attempts before giving up on a store the writer keeps
#: compacting out from under us.  Each retry re-reads snapshot+journal
#: from scratch; a writer would have to complete a full compaction
#: inside every single read window to defeat it.
_BOOTSTRAP_RETRIES = 3


@dataclass(frozen=True)
class ReaderLag:
    """How far a reader's view trails the committed state on disk."""

    generations: int  #: compactions the reader has not re-bootstrapped over
    frames: int  #: committed frames on disk past the reader's position

    @property
    def current(self) -> bool:
        """True when the view equals the committed state on disk."""
        return self.generations == 0 and self.frames == 0

    def __str__(self) -> str:
        if self.current:
            return "current"
        return f"{self.generations} generation(s), {self.frames} frame(s) behind"


@dataclass
class RefreshResult:
    """What one :meth:`StoreReader.refresh` call did."""

    advanced: bool  #: the view changed (new frames or a new snapshot)
    frames_replayed: int  #: committed frames applied by this call
    bytes_scanned: int  #: journal bytes read (O(|Δ|), not O(journal))
    rebootstrapped: bool  #: the view was rebuilt from a new snapshot
    generation: int  #: the view's generation after the call
    seq: int  #: last applied frame seq after the call
    stale: bool = False  #: the call could not reach the on-disk state
    note: Optional[str] = None  #: why the call stopped early, if it did


class StoreReader:
    """A read-only, incrementally refreshable view of a store.

    Create via :meth:`open`.  The view
    is pinned at the committed state found at open time; call
    :meth:`refresh` to follow the writer.  Close it (or use it as a
    context manager) when done — readers hold **no lock**, so closing
    has no effect on other processes.
    """

    def __init__(
        self,
        directory: str,
        schema: DirectorySchema,
        registry: Optional[AttributeRegistry],
        io: StoreIO,
        session: CheckSession,
    ) -> None:
        self._dir = directory
        self.schema = schema
        self._registry = registry
        self._io = io
        self._session = session
        self.instance: DirectoryInstance = DirectoryInstance(attributes=registry)
        self._generation = 0
        self._seq = 0
        self._offset = 0  # byte offset just past the last applied frame
        #: Successful snapshot bootstraps since open.  Stays at 1 while
        #: refreshes ride the journal tail in O(|Δ|); every increment
        #: beyond that is a full snapshot re-read (generation change,
        #: journal shrink) — the counter the replication lag bench pins.
        self.bootstraps = 0
        #: The view's verdict.  While it holds, every replayed change
        #: goes through :attr:`_guard`, the incremental guard over the
        #: instance, built by the first check that finds it legal (a
        #: view nobody asks for a verdict compiles no Figure 5 row); a
        #: change the guard rejects, or a rebuilt instance, drops it.
        self._verdict = FollowedVerdict(session)
        self._guard: Optional[IncrementalChecker] = None
        self._closed = False
        self._pending_txid: Optional[str] = None
        self._resolved_txid: Optional[str] = None
        #: Optional hook answering for the coordinator's decision log:
        #: ``txid -> "commit" | "abort" | None``.  Injected by the
        #: sharded store's composite reader, which captures the log's
        #: decision set *once per composite refresh* (a coordinator
        #: cut), so every shard's scan in that refresh agrees on which
        #: spanning transactions are committed.  With a resolver set,
        #: the view shows a spanning transaction iff it is committed at
        #: the cut — an undecided prepare whose transaction the cut
        #: commits is applied early, and a decided pair whose commit
        #: postdates the cut is withheld until the next refresh.
        #: ``None`` answers keep the prepare withheld.
        self.txn_resolver: Optional[Callable[[str], Optional[str]]] = None
        #: Optional hook handed every change this view replays — the
        #: parsed transaction or modify list, right after it was applied
        #: to :attr:`instance`.  Injected by the sharded store's
        #: composite reader, which replays the same change onto the
        #: composite it holds, so a refresh costs O(|Δ|) there exactly
        #: as it does here.  The hook must not raise.
        self.on_replay: Optional[Callable[[object], None]] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        directory: str,
        schema: DirectorySchema,
        registry: Optional[AttributeRegistry] = None,
        *,
        io: Optional[StoreIO] = None,
    ) -> "StoreReader":
        """Open a read-only view of ``directory`` without locking it.

        Bootstraps from the last compacted snapshot plus the committed
        journal prefix.  Never blocks on, and is never blocked by, the
        writer's advisory lock.  A snapshot without its header raises
        :class:`~repro.errors.StoreError`.
        """
        io = io if io is not None else StoreIO()
        if not os.path.isdir(directory):
            raise FileNotFoundError(f"{directory!r} is not a store directory")
        if not os.path.exists(os.path.join(directory, SNAPSHOT_FILE)):
            raise FileNotFoundError(f"{directory!r} has no {SNAPSHOT_FILE}")
        session = CheckSession(schema)
        reader = cls(directory, schema, registry, io, session)
        if not reader._bootstrap():
            raise StaleReadError(
                f"could not bootstrap a consistent view of {directory!r} "
                f"after {_BOOTSTRAP_RETRIES} attempts (a writer is "
                "compacting faster than the reader can read)"
            )
        reader._flush_indexes()
        return reader

    def close(self) -> None:
        """Retire the view (idempotent): a closed view refuses every
        read and refresh."""
        self._closed = True

    def __enter__(self) -> "StoreReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the read surface
    # ------------------------------------------------------------------
    def search(
        self,
        base=None,
        scope: Union[SearchScope, str] = SearchScope.SUB,
        filter=None,
        size_limit: Optional[int] = None,
    ) -> List[Entry]:
        """Scoped LDAP search over the current view (Section 3)."""
        return self.plan_search(base, scope, filter, size_limit).run()

    def plan_search(
        self,
        base=None,
        scope: Union[SearchScope, str] = SearchScope.SUB,
        filter=None,
        size_limit: Optional[int] = None,
    ) -> PlannedSearch:
        """:meth:`search`, planned on the current view and not yet run."""
        self._ensure_open()
        return PlannedSearch(self.instance, base, scope, filter, size_limit)

    def check(self) -> LegalityReport:
        """Legality report of the current view
        (:class:`~repro.updates.incremental.FollowedVerdict`).

        A full session pass, until one finds the view legal.  From then
        on :meth:`_replay` runs every change through the incremental
        guard, so the report carries only the Figure 5 Δ-check work
        already done and the Section 6.1 extras, which run in full.  A
        change the guard rejected, or a rebuilt instance, brings the
        full pass (and its exact violations) back.
        """
        self._ensure_open()
        report = self._verdict.check(self.instance)
        if self._verdict.holds and self._guard is None:
            self._guard = IncrementalChecker(
                self.schema, self.instance, assume_legal=True, session=self._session
            )
        return report

    @property
    def full_checks(self) -> int:
        """``check()`` calls answered by a full session pass."""
        return self._verdict.full_checks

    @property
    def followed_checks(self) -> int:
        """``check()`` calls answered by the verdict that followed the
        frames: a view checked after every commit of a legal history
        shows ``full_checks == 1``."""
        return self._verdict.followed_checks

    def is_legal(self) -> bool:
        """Yes/no legality verdict of the current view."""
        return self.check().is_legal

    @property
    def session(self) -> CheckSession:
        """The reader's legality session (for stats/cache introspection)."""
        return self._session

    # ------------------------------------------------------------------
    # staleness introspection
    # ------------------------------------------------------------------
    def generation(self) -> int:
        """The generation id of the current view."""
        return self._generation

    def seq(self) -> int:
        """Sequence number of the last frame applied to the view (0 ==
        snapshot only)."""
        return self._seq

    def position(self) -> Position:
        """``(generation, seq)`` — a total order over committed states."""
        return Position.plain(self._generation, self._seq)

    def shard_reader(self, name: Optional[str] = None) -> "StoreReader":
        """The view of member ``name``: a plain store is its own one
        member, keyed ``None`` as in :class:`Position`."""
        if name is not None:
            raise KeyError(name)
        return self

    def describe_cut(self) -> List[str]:
        """The routing cut as ``fsck`` prints it: a plain store is the
        one-member cut, with nothing to route."""
        return []

    def offset(self) -> int:
        """Byte offset just past the last journal frame applied to the
        view — the resume point a replication applier persists so a
        restarted follower tails from its durable position."""
        return self._offset

    @property
    def pending_txid(self) -> Optional[str]:
        """The txid of a prepared-but-undecided 2PC transaction the last
        scan stopped in front of (withheld from the view), or ``None``.
        A non-``None`` value means the transaction had no durable
        coordinator decision when the view was refreshed — genuinely
        in doubt, invisible here and on every sibling shard."""
        return self._pending_txid

    @property
    def resolved_txid(self) -> Optional[str]:
        """The txid of a prepared transaction applied *early* via the
        coordinator log (committed at the refresh's cut, decide frame
        still in flight), or ``None``.  While set, the view's content
        is ahead of :meth:`position` by exactly this transaction."""
        return self._resolved_txid

    def settled(self) -> bool:
        """Whether the view is open and its content is exactly its
        :meth:`position`: no 2PC transaction withheld in front of it
        (:attr:`pending_txid`) or applied ahead of it
        (:attr:`resolved_txid`).  Memory only — where the files on disk
        stand is :meth:`refresh`'s business, not a read's."""
        return (
            not self._closed
            and self._pending_txid is None
            and self._resolved_txid is None
        )

    def lag(self) -> ReaderLag:
        """How far the view trails the committed state on disk *right
        now* (a snapshot in time: the writer may advance immediately
        after).  Never mutates the view."""
        self._ensure_open()
        try:
            disk_generation = self._head_generation()
        except OSError:
            return ReaderLag(generations=0, frames=0)
        if disk_generation != self._generation:
            scanned = self._scan_journal_for(disk_generation, offset=0)
            frames = len(scanned.records) if scanned is not None else 0
            return ReaderLag(
                generations=disk_generation - self._generation, frames=frames
            )
        scanned = self._scan_journal_for(self._generation, offset=self._offset)
        if scanned is None:
            return ReaderLag(generations=0, frames=0)
        behind = [r for r in scanned.records if r.seq > self._seq]
        return ReaderLag(generations=0, frames=len(behind))

    # ------------------------------------------------------------------
    # following the writer
    # ------------------------------------------------------------------
    def refresh(self, strict: bool = False) -> RefreshResult:
        """Advance the view to the newest committed state on disk.

        Fast path (no compaction since the last refresh): one O(1)
        snapshot-header probe plus a read of the journal bytes past the
        reader's offset — cost is O(new frames), independent of
        snapshot and journal size.  After a compaction the view is
        re-bootstrapped from the new snapshot.

        A torn or uncommitted journal suffix stops the replay silently
        at the previous committed frame — exactly where recovery would
        truncate — with ``result.note`` explaining why.  Racing a
        compaction retries a bounded number of times; if the writer
        outruns every retry the old (still consistent) view is kept
        and ``result.stale`` is set.  ``strict=True`` raises
        :class:`~repro.errors.StaleReadError` instead of returning a
        stale result.
        """
        self._ensure_open()
        result = self._refresh_once()
        self._flush_indexes()
        if result.stale and strict:
            raise StaleReadError(
                f"reader at generation {self._generation} seq {self._seq} "
                f"could not reach the committed state on disk: {result.note}"
            )
        return result

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _ensure_open(self) -> None:
        if self._closed:
            raise StoreError("reader is closed")

    def _flush_indexes(self) -> None:
        """Fold the index maintenance the replay left pending in now, so
        a search that follows only reads the postings."""
        indexes = self.instance.indexes
        if indexes is not None:
            indexes.delta_checkpoint()

    def _snapshot_path(self) -> str:
        return os.path.join(self._dir, SNAPSHOT_FILE)

    def _journal_path(self) -> str:
        return os.path.join(self._dir, JOURNAL_FILE)

    def _head_generation(self) -> int:
        """The generation the snapshot on disk carries, from its first
        line.  Raises :class:`OSError` when the snapshot is unreadable,
        :class:`StoreError` when it has no header."""
        path = self._snapshot_path()
        return wal.parse_header(self._io.read_head(path), path).generation

    def _scan_journal_for(
        self, generation: int, offset: int
    ) -> Optional[wal.ScanResult]:
        """Scan journal bytes past ``offset`` for ``generation`` frames;
        ``None`` when the file vanished (compaction race)."""
        try:
            data = self._io.read_bytes_from(self._journal_path(), offset)
        except OSError:
            return None
        return wal.scan(data, expect_generation=generation)

    def _probe(self) -> str:
        """Where the files on disk stand against the view, from the
        snapshot header's generation and the journal's size alone —
        O(1), no journal byte read: ``"current"`` (nothing past the
        view's offset), ``"tail"`` (new journal bytes to scan) or
        ``"rebuild"`` (re-bootstrap).  Raises as
        :meth:`_head_generation` does."""
        if self._head_generation() != self._generation:
            return "rebuild"
        try:
            journal_size = os.path.getsize(self._journal_path())
        except OSError:
            # Journal vanished under the same generation: mid-compaction
            # window or external interference — re-read everything.
            return "rebuild"
        if journal_size < self._offset:
            # Shrunk without a generation bump: a recover run truncated
            # a torn tail (which we never applied), or the journal was
            # rewritten.  Re-bootstrap rather than guess.
            return "rebuild"
        return "current" if journal_size == self._offset else "tail"

    def _refresh_once(self) -> RefreshResult:
        try:
            probed = self._probe()
        except OSError as exc:
            return self._result(
                stale=True, note=f"snapshot unreadable: {exc}"
            )
        if probed == "rebuild":
            return self._rebootstrap_result()
        if probed == "current":
            return self._result(advanced=False)

        tail = self._scan_journal_for(self._generation, offset=self._offset)
        if tail is None:
            return self._rebootstrap_result()
        applied, note = self._apply_scanned(tail, base_offset=self._offset)
        if note == "resequenced":
            # The bytes at our offset are not the continuation we wrote
            # down: the journal changed identity under us.
            return self._rebootstrap_result()
        if tail.tail_state == "corrupt" and applied == 0 and not tail.records:
            # Corruption at the very first new byte can also be a
            # compaction racing the header probe (new-generation frames
            # under an old-generation snapshot read): check once more.
            try:
                now = self._head_generation()
            except OSError:
                now = self._generation
            if now != self._generation:
                return self._rebootstrap_result()
        if note is None and tail.tail_state != "clean":
            note = f"{tail.tail_state} journal tail: {tail.tail_reason}"
        return self._result(
            advanced=applied > 0,
            frames_replayed=applied,
            bytes_scanned=tail.total,
            note=note,
        )

    def _resolve_in_doubt(self, txid: str) -> Optional[str]:
        """Ask the injected resolver (if any) for the coordinator's
        durable decision on ``txid``; a failing resolver means in-doubt."""
        if self.txn_resolver is None:
            return None
        try:
            return self.txn_resolver(txid)
        except Exception:
            return None

    def _apply_scanned(
        self, scanned: wal.ScanResult, base_offset: int
    ) -> "tuple[int, Optional[str]]":
        """Replay ``scanned.records`` onto the view, stopping silently
        at the first frame that is damaged, out of order, or fails to
        replay.  Returns ``(frames_applied, note)``; a ``"resequenced"``
        note means the bytes do not continue our journal at all.

        2PC frames: a prepare is **invisible until decided** — the view
        stops *before* an undecided prepare, without advancing seq or
        offset, so the next refresh rescans from the prepare and picks
        up the coordinator's decide frame when it lands.  A decided pair
        advances the position by two frames, replaying the prepare's
        payload only when the verdict is commit."""
        applied = 0
        index = 0
        records = scanned.records
        self._pending_txid = None
        while index < len(records):
            record = records[index]
            if record.generation != self._generation or record.seq != self._seq + 1:
                if applied == 0:
                    return 0, "resequenced"
                return applied, (
                    f"frame seq {record.seq} does not follow seq {self._seq}"
                )
            if record.kind == "prepare":
                if index + 1 >= len(records):
                    # Undecided tail.  scan() has already guaranteed
                    # nothing else can follow an undecided prepare, so
                    # this ends the replay either way; the question is
                    # whether the prepare's payload is visible.
                    if record.txid == self._resolved_txid:
                        # Already applied via the coordinator log on an
                        # earlier pass; keep waiting for the decide
                        # frame to consume the pair positionally.
                        return applied, (
                            f"resolved transaction {record.txid} awaits "
                            "its decide frame"
                        )
                    verdict = self._resolve_in_doubt(record.txid)
                    if verdict == "commit":
                        # The coordinator durably committed this
                        # transaction; its decide frame is a formality
                        # still in flight.  Apply the payload now —
                        # withholding it while a sibling shard already
                        # shows its decided half would tear the
                        # cross-shard view — but leave seq/offset at the
                        # prepare so the pair is consumed normally once
                        # the decide lands.
                        failure = self._replay(record)
                        if failure is not None:
                            return applied, failure
                        self._resolved_txid = record.txid
                        return applied, (
                            f"transaction {record.txid} resolved as "
                            "committed via the coordinator log; its "
                            "decide frame is still in flight"
                        )
                    if verdict == "abort":
                        # Durably aborted: invisible on every shard, no
                        # tear possible — just wait for the decide.
                        return applied, (
                            f"prepared transaction {record.txid} "
                            "resolved as aborted via the coordinator "
                            "log; awaiting its decide frame"
                        )
                    # Genuinely in doubt (no durable decision, or no
                    # resolver): withhold it.
                    self._pending_txid = record.txid
                    return applied, (
                        f"prepared transaction {record.txid} awaits its "
                        "decide frame; stopped at the previous committed "
                        "frame"
                    )
                decide = records[index + 1]
                if record.txid == self._resolved_txid:
                    # Payload already applied when the coordinator log
                    # resolved it; just consume the pair's position.
                    self._resolved_txid = None
                elif decide.verdict == "commit":
                    if (
                        self.txn_resolver is not None
                        and self._resolve_in_doubt(record.txid) != "commit"
                    ):
                        # Decided after the coordinator cut this refresh
                        # is pinned to.  Applying it now could show this
                        # shard's half of a transaction a sibling shard's
                        # earlier scan could not have seen; stop before
                        # the pair — the next refresh's fresh cut picks
                        # it up.
                        return applied, (
                            f"transaction {record.txid} committed beyond "
                            "this refresh's coordinator cut; stopped "
                            "before its prepare frame"
                        )
                    failure = self._replay(record)
                    if failure is not None:
                        return applied, failure
                self._seq = decide.seq
                self._offset = base_offset + decide.end
                applied += 2
                index += 2
                continue
            failure = self._replay(record)
            if failure is not None:
                return applied, failure
            self._seq = record.seq
            self._offset = base_offset + record.end
            applied += 1
            index += 1
        return applied, None

    def _replay(self, record: wal.WalRecord) -> Optional[str]:
        """Replay one committed record onto the view and hand the parsed
        change to :attr:`on_replay`.  Returns ``None``, or — when the
        record does not replay — the note the scan stops with.

        A view nobody asked for a verdict replays blind.  One whose
        verdict holds re-runs the writer's Δ-check on its own instance; a
        change the guard rejects is still committed history, so it is
        applied blind and the verdict dropped — the next :meth:`check`
        is a full one."""
        try:
            change = parse_record(record)
            parts = [change] if isinstance(change, UpdateTransaction) else change
            for part in parts:
                kind = _kind_of(part)
                if self._verdict.holds:
                    if kind.guarded(self._guard, part).applied:
                        continue
                    self._verdict.drop()
                kind.replay(self.instance, part)
        except Exception as exc:
            self._verdict.drop()  # the view may hold part of the change
            return (
                f"frame seq {record.seq} failed to replay ({exc}); "
                "stopped at the previous committed frame"
            )
        if self.on_replay is not None:
            self.on_replay(change)
        return None

    def _bootstrap(self) -> bool:
        """(Re)build the view from snapshot + committed journal prefix.

        Retries around compaction races.  Returns False when no
        consistent read succeeded; the caller decides whether that is
        fatal (open) or merely stale (refresh)."""
        for _ in range(_BOOTSTRAP_RETRIES):
            try:
                text = self._io.read_text(self._snapshot_path())
            except OSError:
                continue
            header, ldif_text = wal.decode_snapshot(text, self._snapshot_path())
            del text  # the decoded LDIF is a copy; hold one text, not two
            generation = header.generation
            try:
                journal_bytes = self._io.read_bytes(self._journal_path())
            except OSError:
                journal_bytes = b""
            scanned = wal.scan(journal_bytes, expect_generation=generation)
            if scanned.tail_state == "corrupt" and not scanned.records:
                # Could be a compaction race (newer-generation frames
                # under the snapshot we just read): check the header
                # again; an unchanged generation means real corruption,
                # which is still a consistent committed prefix (here:
                # the bare snapshot).
                try:
                    if self._head_generation() != generation:
                        continue
                except OSError:
                    continue
            instance = parse_ldif(ldif_text, attributes=self._registry)
            del ldif_text
            self.instance = instance
            self._verdict.drop()  # it vouched for the instance just replaced
            self._guard = None
            self._resolved_txid = None
            self._generation = generation
            self._seq = 0
            self._offset = 0
            # Attach secondary indexes *before* replaying the journal
            # tail, so the replay flows through the observer hooks and
            # the postings stay exact.
            keys, refs = _index.extras_index_attributes(self.schema.extras)
            _index.AttributeIndexes.attach(instance, keys, refs)
            # The path counts too: the replay keeps them exact, and an
            # armed guard answers Figure 5's full deletion rows from them.
            attach_path_counts(instance, self.schema)
            replayable = wal.ScanResult(
                [r for r in scanned.records if r.generation == generation],
                scanned.tail_offset,
                scanned.tail_state,
                scanned.tail_reason,
                total=scanned.total,
            )
            self._apply_scanned(replayable, base_offset=0)
            self.bootstraps += 1
            return True
        return False

    def _rebootstrap_result(self) -> RefreshResult:
        before = self.position()
        if self._bootstrap():
            return self._result(
                advanced=self.position() != before, rebootstrapped=True
            )
        return self._result(
            stale=True,
            note=(
                f"re-bootstrap failed after {_BOOTSTRAP_RETRIES} attempts; "
                "keeping the previous consistent view"
            ),
        )

    def _result(
        self,
        advanced: bool = False,
        frames_replayed: int = 0,
        bytes_scanned: int = 0,
        rebootstrapped: bool = False,
        stale: bool = False,
        note: Optional[str] = None,
    ) -> RefreshResult:
        return RefreshResult(
            advanced=advanced,
            frames_replayed=frames_replayed,
            bytes_scanned=bytes_scanned,
            rebootstrapped=rebootstrapped,
            generation=self._generation,
            seq=self._seq,
            stale=stale,
            note=note,
        )
