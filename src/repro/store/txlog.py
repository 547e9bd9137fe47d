"""The cross-shard two-phase-commit coordinator log.

A sharded store needs one durable place that decides the fate of a
transaction spanning shard WALs.  ``txlog``, at the sharded store's
root, is that place: an append-only sequence of the same checksummed,
generation-stamped frames the per-shard journals use
(:mod:`repro.store.wal`), each carrying a small JSON decision record::

    #WAL seq=1 gen=1 len=64 crc=0x2f91c0aa
    {"participants": ["att", "labs"], "state": "begin", "txid": "tx-1"}
    #END

States, in protocol order:

* ``begin`` — the coordinator is about to send prepares; names the
  participants.
* ``commit`` — **the commit point**: every participant's prepare frame
  is durable and the composite check passed.  Fsynced before any
  participant's decide frame is written.
* ``abort`` — an explicit abort decision (a participant's guard or the
  composite check rejected the transaction).  Recorded best-effort:
  its *absence* also means abort.
* ``complete`` — every participant's decide frame landed; the
  transaction needs no recovery work.

The decision rule is **presumed abort**: a transaction is committed iff
a durable ``commit`` record names it; anything else — a bare ``begin``,
a torn frame, a missing log — is an abort.  That is sound because the
coordinator orders its writes: participants' prepare frames are all
fsynced *before* the commit record, and the commit record is fsynced
*before* any participant's decide frame, so an in-doubt participant
(prepared, undecided) can never belong to a transaction whose commit
decision was lost.

A torn tail is therefore safe to quarantine (the classic crash-mid-
append artifact of a coordinator dying inside :meth:`TxLog.begin` or
:meth:`TxLog.commit` before the fsync made the decision durable: no
participant saw a decide).  A *corrupt* log is different — a decision
may have existed and been damaged — so :meth:`TxLog.open` refuses with
:class:`~repro.errors.StoreError` rather than guessing; resolution of
in-doubt participants must not run until the operator intervenes.

A failed append is a third case: the frame may or may not have landed,
so the handle's memory no longer knows what the disk says.  Like a
store whose journal append failed, the handle then fails stop — every
later append raises until the sharded store is reopened, and the reopen
resolves the transaction from whatever is on disk.

Readers follow the log the way a :class:`~repro.store.reader.StoreReader`
follows a journal: a :class:`TxLogTail` folds only the frames appended
since its last read, and starts over when the file was replaced.  The
log grows by three records per spanning transaction and a serving
primary does not compact it, so a reader that re-read the whole file
would pay O(log) per commit.  There is one fold: :meth:`TxLog.open` and
:func:`inspect_txlog` are a fresh tail's first read.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import StoreError
from repro.store import wal
from repro.store.wal import StoreIO

__all__ = [
    "TXLOG_FILE", "TXLOG_QUARANTINE_FILE", "TxState", "TxLog", "TxLogTail",
]

TXLOG_FILE = "txlog"
TXLOG_QUARANTINE_FILE = "txlog.quarantine"

_STATES = ("begin", "commit", "abort", "complete")


@dataclass
class TxState:
    """Everything the log knows about one transaction."""

    txid: str
    state: str  # latest of "begin" | "commit" | "abort" | "complete"
    participants: Tuple[str, ...] = ()
    history: List[str] = field(default_factory=list)

    @property
    def decided(self) -> bool:
        """Whether a durable decision (or retirement) record exists."""
        return self.state in ("commit", "abort", "complete")

    @property
    def verdict(self) -> str:
        """The participant-facing decision under presumed abort: only a
        durable ``commit`` (or a commit that reached ``complete``)
        commits; everything else aborts."""
        if self.state == "commit":
            return "commit"
        if self.state == "complete":
            return "commit" if "commit" in self.history else "abort"
        return "abort"


class TxLog:
    """The coordinator's write handle on the decision log.

    Opened (and exclusively owned) by the :class:`ShardedStore` writer —
    the per-shard advisory locks already serialize writers on the root,
    so the log itself needs no extra lock.  Readers never write it: a
    composite view (its coordinator cut) and a sharded frame source (its
    decided transactions) each follow it with one :class:`TxLogTail`,
    and :func:`inspect_txlog` is one fresh read for ``fsck``,
    ``recover`` and in-doubt resolution.
    """

    def __init__(
        self,
        root: str,
        io: StoreIO,
        generation: int,
        seq: int,
        states: Dict[str, TxState],
        next_txid: int,
    ) -> None:
        self._root = root
        self._io = io
        self._generation = generation
        self._seq = seq
        self._states = states
        self._next_txid = next_txid
        #: Why an append failed (``None`` while healthy): from then on
        #: the log refuses every write until the store is reopened.
        self._poisoned: Optional[str] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def open(cls, root: str, io: Optional[StoreIO] = None) -> "TxLog":
        """Load (or initialise) the coordinator log at ``root`` for
        writing: a :class:`TxLogTail`'s first read, after which a torn
        tail is quarantined into ``txlog.quarantine`` and truncated —
        presumed abort makes that safe.  Corruption raises
        :class:`~repro.errors.StoreError`: decisions may be damaged, so
        nothing that depends on them may proceed.
        """
        io = io if io is not None else StoreIO()
        tail = TxLogTail(root, io)
        if tail.read() is None:
            return cls(root, io, generation=1, seq=0, states={}, next_txid=1)
        if tail._torn is not None:
            offset, reason = tail._torn
            path = cls._path(root)
            data = io.read_bytes(path)
            header = (
                f"# quarantined {len(data) - offset} bytes from {TXLOG_FILE} "
                f"offset {offset} (torn tail: {reason})\n"
            ).encode("utf-8")
            io.append_bytes(
                os.path.join(root, TXLOG_QUARANTINE_FILE),
                header + data[offset:] + b"\n",
            )
            io.write_file_atomic(path, data[:offset])
        return tail._as_log()

    # ------------------------------------------------------------------
    # the protocol surface
    # ------------------------------------------------------------------
    def begin(self, participants: Sequence[str]) -> str:
        """Record the start of a spanning transaction; returns its txid."""
        txid = f"tx-{self._next_txid}"
        self._next_txid += 1
        self._append(txid, "begin", participants)
        self._states[txid] = TxState(
            txid, "begin", tuple(participants), history=["begin"]
        )
        return txid

    def commit(self, txid: str) -> None:
        """THE commit point: durably decide ``txid`` as committed.
        Returns only after the record is fsynced."""
        self._record(txid, "commit")

    def abort(self, txid: str) -> None:
        """Record an explicit abort (redundant under presumed abort, but
        it lets ``complete`` retire the transaction)."""
        self._record(txid, "abort")

    def complete(self, txid: str) -> None:
        """Record that every participant's decide frame landed; the
        transaction needs no resolution work at the next open."""
        self._record(txid, "complete")

    def _record(self, txid: str, state: str) -> None:
        entry = self._states.get(txid)
        if entry is None:
            raise StoreError(f"coordinator log has no transaction {txid!r}")
        self._append(txid, state, ())
        entry.history.append(state)
        entry.state = state

    # ------------------------------------------------------------------
    # resolution / introspection
    # ------------------------------------------------------------------
    def verdict(self, txid: str) -> str:
        """The presumed-abort decision for ``txid``: ``"commit"`` iff a
        durable commit record names it, else ``"abort"`` — including for
        transactions the log has never heard of (their begin record was
        lost with the crash, which also means no commit was decided)."""
        entry = self._states.get(txid)
        if entry is None:
            return "abort"
        return entry.verdict

    def unfinished(self) -> Dict[str, TxState]:
        """Transactions with no ``complete`` record — the ones whose
        participants may still hold undecided prepares."""
        return {
            txid: entry
            for txid, entry in self._states.items()
            if entry.state != "complete"
        }

    def states(self) -> Dict[str, TxState]:
        """Every transaction the log knows about (read-only snapshot)."""
        return dict(self._states)

    @property
    def generation(self) -> int:
        """The log's generation: 1, and one more per :meth:`compact`."""
        return self._generation

    def compact(self) -> None:
        """Rewrite the log keeping only unfinished transactions, under a
        bumped generation (the same write-new-then-replace idiom as the
        snapshot; a crash mid-compaction leaves the old log intact)."""
        self._ensure_healthy()
        survivors = self.unfinished()
        generation = self._generation + 1
        frames = []
        seq = 0
        for txid in sorted(survivors, key=_txid_sort_key):
            entry = survivors[txid]
            for state in entry.history:
                seq += 1
                frames.append(
                    wal.encode_record(
                        seq, generation,
                        self._encode_payload(
                            txid, state,
                            entry.participants if state == "begin" else (),
                        ),
                    )
                )
        self._io.write_file_atomic(self._path(self._root), b"".join(frames))
        self._generation = generation
        self._seq = seq
        self._states = survivors

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @staticmethod
    def _path(root: str) -> str:
        return os.path.join(root, TXLOG_FILE)

    @staticmethod
    def _encode_payload(
        txid: str, state: str, participants: Sequence[str]
    ) -> str:
        body = {"txid": txid, "state": state}
        if participants:
            body["participants"] = list(participants)
        return json.dumps(body, sort_keys=True)

    @staticmethod
    def _decode_payload(
        payload: str, offset: int, path: str
    ) -> Tuple[str, str, List[str]]:
        try:
            body = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise StoreError(
                f"coordinator log {path!r} frame at byte {offset} is not "
                f"valid JSON: {exc}"
            ) from exc
        txid = body.get("txid")
        state = body.get("state")
        participants = body.get("participants", [])
        if (
            not isinstance(txid, str)
            or state not in _STATES
            or not isinstance(participants, list)
        ):
            raise StoreError(
                f"coordinator log {path!r} frame at byte {offset} is "
                f"malformed: {payload[:80]!r}"
            )
        return txid, state, [str(p) for p in participants]

    @property
    def poisoned(self) -> bool:
        """Whether an append failed, so the disk may hold a record this
        handle does not know about."""
        return self._poisoned is not None

    def _ensure_healthy(self) -> None:
        if self._poisoned is not None:
            raise StoreError(
                f"coordinator log is poisoned ({self._poisoned}); close "
                "and reopen the sharded store"
            )

    def _append(self, txid: str, state: str, participants: Sequence[str]) -> None:
        """Append one decision record — the only append site, so the
        poisoning contract lives here: a failed append may still have
        landed, and reusing its seq would make the log corrupt."""
        self._ensure_healthy()
        frame = wal.encode_record(
            self._seq + 1, self._generation,
            self._encode_payload(txid, state, participants),
        )
        try:
            self._io.append_bytes(self._path(self._root), frame)
        except Exception as exc:
            self._poisoned = f"{state} append for {txid} failed: {exc}"
            raise StoreError(
                f"coordinator log append failed ({state} for {txid}); the "
                "record may have landed, so the log is poisoned — close and "
                f"reopen the sharded store to resolve it from disk: {exc}"
            ) from exc
        self._seq += 1


def _txid_sort_key(txid: str):
    if txid.startswith("tx-"):
        try:
            return (0, int(txid[3:]), txid)
        except ValueError:
            pass
    return (1, 0, txid)


def inspect_txlog(root: str, io: Optional[StoreIO] = None) -> Optional[TxLog]:
    """Load the coordinator log at ``root`` read-only; ``None`` when the
    root has none.  Never rewrites anything: a torn tail is tolerated
    (its frames past the committed prefix are simply not loaded) and
    corruption raises.  One :class:`TxLogTail` read."""
    tail = TxLogTail(root, io)
    if tail.read() is None:
        return None
    return tail._as_log()


class TxLogTail:
    """A read-only follower of the coordinator log: each :meth:`read`
    folds only the frames appended since the last one, so a reader that
    keeps one tail pays O(|Δ|) per spanning commit, not O(log).

    It holds the identity of the file it reads (``fstat`` of the handle
    it reads through), the byte offset its fold reached, the last seq
    and generation, and the folded :class:`TxState` map.  It starts
    over from byte 0 when the file was replaced (a compaction or a
    torn-tail quarantine writes a new inode), shrank, or its new frames
    do not continue the last seq and generation.  A torn tail is a
    writer mid-append and waits for the next read; corruption raises
    :class:`~repro.errors.StoreError` naming its absolute byte offset.
    Bytes already folded are not read again, so damage to them shows at
    the next fresh read — a new tail, :meth:`TxLog.open`, ``fsck`` — as
    damage to a journal prefix a reader already replayed does.
    """

    def __init__(self, root: str, io: Optional[StoreIO] = None) -> None:
        self._root = root
        self._io = io if io is not None else StoreIO()
        self._path = os.path.join(root, TXLOG_FILE)
        self._start_over(None)

    def _start_over(self, identity: Optional[Tuple[int, int]]) -> None:
        self._identity = identity
        self._offset = 0
        self._seq = 0
        self._generation = 1
        self._states: Dict[str, TxState] = {}
        self._max_txid = 0
        #: ``(offset, reason)`` of the torn tail the last read stopped
        #: at, ``None`` when it ended clean.
        self._torn: Optional[Tuple[int, str]] = None

    def read(self) -> Optional[Mapping[str, TxState]]:
        """Fold the frames appended since the last read; returns every
        transaction's state (a read-only view the next read updates),
        or ``None`` when the root has no log."""
        try:
            handle = self._io.open_bytes(self._path, "rb")
        except FileNotFoundError:
            self._start_over(None)
            return None
        with handle:
            probe = os.fstat(handle.fileno())
            identity = (probe.st_dev, probe.st_ino)
            if identity != self._identity or probe.st_size < self._offset:
                self._start_over(identity)
            handle.seek(self._offset)
            scanned = wal.scan(handle.read())
            if self._offset and not self._continues(scanned):
                self._start_over(identity)
                handle.seek(0)
                scanned = wal.scan(handle.read())
        try:
            self._fold(scanned)
        except StoreError:
            self._start_over(None)
            raise
        return MappingProxyType(self._states)

    def may_name_since(self, txid: str) -> bool:
        """Whether the log may hold a record of ``txid`` that the last
        :meth:`read` did not fold: the file was replaced, shrank, came
        or went, or a frame appended since names ``txid``.  Reads only
        those new bytes and folds nothing, so the states the last read
        returned stay what they were."""
        try:
            handle = self._io.open_bytes(self._path, "rb")
        except FileNotFoundError:
            return self._identity is not None
        with handle:
            probe = os.fstat(handle.fileno())
            if (probe.st_dev, probe.st_ino) != self._identity \
                    or probe.st_size < self._offset:
                return True
            handle.seek(self._offset)
            scanned = wal.scan(handle.read())
        if not self._continues(scanned):
            return True
        try:
            named = [
                TxLog._decode_payload(
                    record.payload, self._offset + record.offset, self._path
                )[0]
                for record in scanned.records
            ]
        except StoreError:
            return True
        return txid in named

    def _continues(self, scanned: wal.ScanResult) -> bool:
        """Whether bytes read at the offset extend what was folded: no
        damage, and a first frame that follows the last seq within the
        same generation."""
        if scanned.tail_state == "corrupt":
            return False
        if not scanned.records:
            return True
        first = scanned.records[0]
        return (
            first.seq == self._seq + 1
            and first.generation == self._generation
        )

    def _fold(self, scanned: wal.ScanResult) -> None:
        """THE fold of decision records into transaction states — each
        transaction's latest state, its participants and history, the
        highest txid number — behind :meth:`TxLog.open`,
        :func:`inspect_txlog` and every reader's :meth:`read`."""
        if scanned.tail_state == "corrupt":
            raise StoreError(
                f"coordinator log {self._path!r} is corrupt at byte "
                f"{self._offset + scanned.tail_offset} ({scanned.tail_reason}); "
                "2PC decisions may be damaged — quarantine it manually before "
                "reopening the sharded store"
            )
        for record in scanned.records:
            txid, state, participants = TxLog._decode_payload(
                record.payload, self._offset + record.offset, self._path
            )
            entry = self._states.get(txid)
            if entry is None:
                entry = TxState(txid, state, tuple(participants))
                self._states[txid] = entry
            else:
                entry.state = state
                if participants:
                    entry.participants = tuple(participants)
            entry.history.append(state)
            self._max_txid = max(self._max_txid, _txid_sort_key(txid)[1])
            self._seq, self._generation = record.seq, record.generation
        self._offset += scanned.tail_offset
        self._torn = (
            (self._offset, scanned.tail_reason or "")
            if scanned.tail_state == "torn" else None
        )

    def _as_log(self) -> TxLog:
        """The folded log as a :class:`TxLog` handle, which takes over
        the states map (the tail is not read again)."""
        return TxLog(
            self._root, self._io, self._generation, self._seq, self._states,
            self._max_txid + 1,
        )
