"""WAL-shipping replication: log shipper, replica applier, promotion.

The primary streams its committed journal frames to followers in the
listener/notifier style UCS documents for OpenLDAP domains: a follower
receives the *same bytes* the primary's WAL holds, appends them to its
own local journal (fsynced), and replays them through the ordinary
:class:`~repro.store.reader.StoreReader` machinery — so a replica is a
``StoreReader``-grade follower whose view is, at every instant, a
committed prefix of the primary's history, byte for byte.

Three message kinds travel the stream (JSON objects, carried over the
PR 7 server protocol or fed directly in-process):

``snapshot``
    The primary's snapshot file, verbatim (generation header included).
    Installs a full base state; sent when a follower's position cannot
    be served incrementally (fresh replica, or the primary compacted
    past it).

``schema``
    Announces a generation: its schema fingerprint plus the sequence
    number the stream resumes at.  **Data frames are only legal after a
    schema frame announced their generation** — the schema-before-data
    ordering UCS mandates, and the discipline that keeps blind replay
    sound: Theorem 4.1 modularity licenses replaying a frame without
    re-checking only under the schema context it was checked against,
    so the context must land on the replica first.  A ``folds`` field
    marks a compaction fold: a follower standing exactly at the folded
    frontier compacts locally instead of re-downloading the snapshot.

``frames``
    A raw byte slice of the primary's journal: committed frames and
    *decided* 2PC pairs only.  An in-doubt ``#PREPARE`` never leaves
    the primary — only its coordinator log can decide it, so shipping
    it would manufacture in-doubt state on machines that cannot resolve
    it.  :func:`repro.store.wal.verify_stream` enforces the contract on
    both ends.

Promotion (:func:`promote`) turns a follower's local copy into a
writable primary: refuse if in-doubt 2PC state is visible, acquire the
advisory lock, recover the committed prefix, and compact — a genuine
generation bump that starts a new epoch, so frames from the old
primary's history are recognisably stale ever after.

Sharded stores replicate too (:class:`ShardedFrameSource` /
:class:`ShardedReplicaApplier`): one per-shard ``FrameSource`` each,
multiplexed under a single **coordinator cut**.  Every poll brings
its tail of the coordinator log up to date (O(|Δ|): only the records
appended since the last poll are folded), and each shard's stream
is gated to stop in front of any decided 2PC pair whose transaction is
not yet *complete* (all participants' decides durable) — stricter than
``CompositeReader._capture_txn_cut``, which shows a transaction to local
reads once its commit is durable, because a follower has no coordinator
log to settle a prepare whose decide is still in flight — so a follower
set never holds half a spanning transaction.  Two extra message kinds
carry the topology: ``shardmap`` ships the shard layout once, and
``cut`` closes every batch with the frontier the follower must reach
before its composite view may be served.  Promotion of a cohort
(:func:`promote` over a sharded directory) inspects every shard against
the last replicated cut first and promotes all of them or none.

A source that cannot go on — a corrupt coordinator log, say — ends the
stream with one ``error`` message carrying the reason;
:func:`decode_stream_message` raises it as :class:`ReplicationError`, so
the follower reports it instead of idling at its old frontier.
"""

from __future__ import annotations

import json
import os
import zlib
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ReplicaDivergedError, ReplicationError, StoreError
from repro.ldif.writer import serialize_ldif
from repro.model.attributes import AttributeRegistry
from repro.schema.directory_schema import DirectorySchema
from repro.schema.dsl import serialize_dsl
from repro.store import wal
from repro.store.journal import DirectoryStore
from repro.store.position import Position
from repro.store.reader import StoreReader
from repro.store.recovery import (
    JOURNAL_FILE,
    REPLICA_STATE_FILE,
    SNAPSHOT_FILE,
    recover,
)
from repro.store.shardmap import (
    is_sharded,
    read_shard_map,
    shard_dir,
    shard_map_path,
)
from repro.store.txlog import TxLogTail, TxState
from repro.store.wal import StoreIO

__all__ = [
    "CUT_STATE_FILE",
    "PROMOTE_STATE_FILE",
    "FrameSource",
    "ReplicaApplier",
    "ShardedFrameSource",
    "ShardedReplicaApplier",
    "StreamMessage",
    "decode_stream_message",
    "encode_cut_message",
    "encode_error_message",
    "encode_frames_message",
    "encode_schema_message",
    "encode_shard_map_message",
    "encode_snapshot_message",
    "follow",
    "promote",
    "pump",
    "read_cut_state",
    "read_replica_state",
    "schema_fingerprint",
]

#: Target byte size of one ``frames`` message.  Batches split at frame
#: boundaries (never between a prepare and its decide) and may exceed
#: this by one frame; it keeps every message far under the protocol's
#: ``MAX_FRAME_BYTES``.
STREAM_BATCH_BYTES = 1 << 20

_SNAPSHOT_RETRIES = 3  # compaction-race retries, same as reader bootstrap

#: A sharded follower's record of the last fully-applied coordinator
#: cut: ``{shard: [generation, seq]}``.  The composite view may only be
#: served (and the cohort only promoted) at a recorded cut — anything
#: between cuts could show half a spanning transaction.
CUT_STATE_FILE = "cut.state"

#: A cohort promotion's intent, written once every member passed
#: inspection and before the first is bumped: ``{"cut": …, "states":
#: {shard: crc32 of its state at the cut}}``.  Only this record lets a
#: re-run take a member one generation past the cut for already
#: promoted.
PROMOTE_STATE_FILE = "promote.state"


def schema_fingerprint(schema: DirectorySchema) -> int:
    """CRC32 over the schema's canonical DSL serialization.

    The replication stream carries it on every ``snapshot`` and
    ``schema`` message; a follower refuses frames checked under a
    schema it does not hold — the re-validation discipline that keeps
    a replica's legality verdicts trustworthy after catch-up.
    """
    return zlib.crc32(serialize_dsl(schema).encode("utf-8")) & 0xFFFFFFFF


# ----------------------------------------------------------------------
# stream envelope
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StreamMessage:
    """One decoded replication-stream message."""

    kind: str  # "snapshot" | "schema" | "frames" | "shardmap" | "cut"
    generation: int
    schema_crc: Optional[int] = None
    snapshot: Optional[str] = None  # snapshot: full file text
    base_seq: Optional[int] = None  # schema: seq the stream resumes at
    folds: Optional[int] = None  # schema: folded frontier (compaction)
    start_seq: Optional[int] = None  # frames: first frame's seq
    data: Optional[bytes] = None  # frames: raw journal byte slice
    records: Optional[List[wal.WalRecord]] = None  # frames: verified
    shard: Optional[str] = None  # sharded stream: the member shard
    shard_map: Optional[str] = None  # shardmap: the layout file, verbatim
    frontier: Optional[Position] = None  # cut


def _cohort_layout(directory: str, schema: DirectorySchema):
    """A sharded directory's shard map and the schema every member
    shard is checked under."""
    from repro.legality.scope import analyze_shard_scope, shard_local_schema

    shard_map = read_shard_map(directory)
    return shard_map, shard_local_schema(
        schema, analyze_shard_scope(schema, shard_map)
    )


def _write_state(io: StoreIO, directory: str, name: str, payload: dict) -> None:
    """Atomically (re)write one of a follower's JSON state files."""
    io.write_file_atomic(
        os.path.join(directory, name),
        (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8"),
    )


def _drop_state(directory: str, name: str) -> None:
    """Remove a follower state file a promotion leaves behind."""
    path = os.path.join(directory, name)
    if os.path.exists(path):
        os.unlink(path)


def _batch_crc(generation: int, start_seq: int, data: bytes) -> int:
    return zlib.crc32(f"{generation}:{start_seq}:".encode() + data) & 0xFFFFFFFF


def encode_snapshot_message(
    generation: int, schema_crc: int, snapshot_text: str
) -> dict:
    """A ``snapshot`` message: the primary's snapshot file, verbatim."""
    return {
        "op": "repl",
        "kind": "snapshot",
        "generation": generation,
        "schema_crc": schema_crc,
        "snapshot": snapshot_text,
    }


def encode_schema_message(
    generation: int,
    schema_crc: int,
    base_seq: int,
    folds: Optional[int] = None,
) -> dict:
    """A ``schema`` message announcing ``generation``: stream continues
    with data frames after ``base_seq``; ``folds`` marks a compaction
    fold of the previous generation's frontier."""
    message = {
        "op": "repl",
        "kind": "schema",
        "generation": generation,
        "schema_crc": schema_crc,
        "base_seq": base_seq,
    }
    if folds is not None:
        message["folds"] = folds
    return message


def encode_frames_message(generation: int, start_seq: int, data: bytes) -> dict:
    """A ``frames`` message: a raw committed slice of the journal."""
    return {
        "op": "repl",
        "kind": "frames",
        "generation": generation,
        "start_seq": start_seq,
        "data": data.decode("utf-8"),
        "crc": _batch_crc(generation, start_seq, data),
    }


def encode_shard_map_message(shard_map_text: str) -> dict:
    """A ``shardmap`` message: the sharded primary's layout file,
    verbatim, so a fresh follower can lay out its own shard cohort."""
    return {
        "op": "repl",
        "kind": "shardmap",
        "shard_map": shard_map_text,
        "crc": zlib.crc32(shard_map_text.encode("utf-8")) & 0xFFFFFFFF,
    }


def encode_cut_message(frontier) -> dict:
    """A ``cut`` message closing one sharded batch: the coordinator-cut
    frontier every shard of the batch lands on."""
    return {
        "op": "repl",
        "kind": "cut",
        "frontier": Position.of(frontier).to_wire(),
    }


def encode_error_message(text: str) -> dict:
    """An ``error`` message: the last one a source that cannot go on
    sends, carrying why."""
    return {"op": "repl", "kind": "error", "error": text}


def decode_stream_message(message: dict) -> StreamMessage:
    """Validate and decode a stream message.

    Raises :class:`ReplicationError` on structural damage, checksum
    mismatch, or a ``frames`` payload violating the committed-slice
    contract (:func:`repro.store.wal.verify_stream`) — and, carrying its
    text, on an ``error`` message.
    """
    if not isinstance(message, dict) or message.get("op") != "repl":
        raise ReplicationError(f"not a replication stream message: {message!r}")
    kind = message.get("kind")
    if kind == "error":
        raise ReplicationError(str(message.get("error")))
    shard = message.get("shard")
    if shard is not None and not isinstance(shard, str):
        raise ReplicationError(f"stream message carries bad shard {shard!r}")
    if kind == "shardmap":
        text = message.get("shard_map")
        crc = message.get("crc")
        if not isinstance(text, str) or not isinstance(crc, int) \
                or crc != zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF:
            raise ReplicationError("malformed shardmap message")
        return StreamMessage(kind="shardmap", generation=0, shard_map=text)
    if kind == "cut":
        try:
            frontier = Position.from_fields({"shards": message.get("frontier")})
        except ValueError as exc:
            raise ReplicationError(f"malformed cut message: {exc}") from exc
        return StreamMessage(kind="cut", generation=0, frontier=frontier)
    generation = message.get("generation")
    if not isinstance(generation, int) or generation < 1:
        raise ReplicationError(
            f"stream message carries bad generation {generation!r}"
        )
    if kind == "snapshot":
        text = message.get("snapshot")
        crc = message.get("schema_crc")
        if not isinstance(text, str) or not isinstance(crc, int):
            raise ReplicationError("malformed snapshot message")
        try:
            header, _ = wal.decode_snapshot(text, "the shipped snapshot")
        except StoreError as exc:
            raise ReplicationError(str(exc)) from exc
        if header.generation != generation:
            raise ReplicationError(
                f"snapshot header says generation {header.generation}, "
                f"message says {generation}"
            )
        return StreamMessage(
            kind="snapshot", generation=generation, schema_crc=crc,
            snapshot=text, shard=shard,
        )
    if kind == "schema":
        base_seq = message.get("base_seq")
        crc = message.get("schema_crc")
        folds = message.get("folds")
        if not isinstance(base_seq, int) or base_seq < 0 \
                or not isinstance(crc, int) \
                or (folds is not None and not isinstance(folds, int)):
            raise ReplicationError("malformed schema message")
        return StreamMessage(
            kind="schema", generation=generation, schema_crc=crc,
            base_seq=base_seq, folds=folds, shard=shard,
        )
    if kind == "frames":
        start_seq = message.get("start_seq")
        text = message.get("data")
        crc = message.get("crc")
        if not isinstance(start_seq, int) or start_seq < 1 \
                or not isinstance(text, str) or not isinstance(crc, int):
            raise ReplicationError("malformed frames message")
        data = text.encode("utf-8")
        if crc != _batch_crc(generation, start_seq, data):
            raise ReplicationError("frames message checksum mismatch")
        try:
            records = wal.verify_stream(data, generation, start_seq)
        except ValueError as exc:
            raise ReplicationError(str(exc)) from exc
        return StreamMessage(
            kind="frames", generation=generation, start_seq=start_seq,
            data=data, records=records, shard=shard,
        )
    raise ReplicationError(f"unknown stream message kind {kind!r}")


# ----------------------------------------------------------------------
# primary side: the log shipper
# ----------------------------------------------------------------------
class FrameSource:
    """Stateful per-follower journal follower on the primary.

    Lock-free like :class:`StoreReader`: it reads the snapshot header
    (O(1)) and the journal tail past its own offset (O(|Δ|)) while the
    writer appends.  ``poll()`` returns the next stream messages — an
    empty list means the follower is caught up right now.

    It only ever ships the *committed* prefix: the cut stops in front
    of an undecided prepare exactly where a reader's view would, and a
    decided pair ships as one indivisible prepare+decide byte slice.
    """

    def __init__(
        self,
        directory: str,
        schema: DirectorySchema,
        *,
        io: Optional[StoreIO] = None,
        batch_bytes: int = STREAM_BATCH_BYTES,
        pair_gate: Optional[Callable[[str], bool]] = None,
    ) -> None:
        self._dir = directory
        self._schema_crc = schema_fingerprint(schema)
        self._io = io if io is not None else StoreIO()
        self._batch_bytes = batch_bytes
        #: When set, a decided 2PC pair only ships once the gate passes
        #: its txid — the sharded multiplexer's coordinator-cut hook.
        self._pair_gate = pair_gate
        self._generation: Optional[int] = None  # None → ship a snapshot
        self._seq = 0
        self._offset = 0
        self._pending_announce = False

    # -- public surface ------------------------------------------------
    @property
    def position(self) -> Position:
        """``(generation, seq)`` of the last shipped frame (0, 0) while
        unattached."""
        return Position.plain(self._generation or 0, self._seq)

    def attach(self, generation: int, seq: int) -> bool:
        """Position the stream at a follower's durable position.

        Returns ``True`` when the stream can continue incrementally (a
        ``schema`` resume announcement will precede data); ``False``
        when the follower needs a snapshot, which the next ``poll()``
        ships.  ``(0, 0)`` — a fresh follower — always snapshots.
        """
        self._generation = None
        self._pending_announce = False
        if generation < 1 or seq < 0:
            return False
        head = self._head()
        if head is None or head.generation != generation:
            # A follower standing exactly at a frontier the primary has
            # since folded (the survivor of a promotion) re-attaches
            # through the fold: the next poll announces it and the
            # follower compacts locally — no snapshot re-download.
            if head is not None and (head.generation, head.folds) == (
                generation + 1, seq
            ):
                self._generation, self._seq, self._offset = generation, seq, 0
                return True
            return False
        try:
            data = self._io.read_bytes(self._journal_path())
        except OSError:
            data = b""
        scanned = wal.scan(data, expect_generation=generation)
        records = scanned.records
        if seq == 0:
            offset = 0
        else:
            if not records or records[0].seq != 1:
                return False
            match = next((r for r in records if r.seq == seq), None)
            if match is None or match.kind == "prepare":
                return False
            offset = match.end
        # Close the compaction race: the journal we just scanned must
        # still belong to the generation we are attaching to.
        head = self._head()
        if head is None or head.generation != generation:
            return False
        self._generation, self._seq, self._offset = generation, seq, offset
        self._pending_announce = True
        return True

    def poll(self) -> List[dict]:
        """The next stream messages (empty list = caught up)."""
        if self._generation is None:
            return self._snapshot_messages()
        head = self._head()
        if head is None:
            return []  # snapshot mid-publish; retry next poll
        if head.generation != self._generation:
            return self._resolve_generation_change(head)
        messages = []
        if self._pending_announce:
            messages.append(
                encode_schema_message(
                    self._generation, self._schema_crc, self._seq
                )
            )
            self._pending_announce = False
        try:
            data = self._io.read_bytes_from(self._journal_path(), self._offset)
        except OSError:
            return messages  # journal mid-swap; retry next poll
        if not data:
            return messages
        scanned = wal.scan(data, expect_generation=self._generation)
        cut_bytes, cut_seq = self._committed_cut(scanned)
        if cut_bytes < 0:
            # The bytes at our offset no longer continue our position:
            # the journal was swapped underneath us.  A compaction shows
            # up in the header; anything else forces a snapshot resync.
            head = self._head()
            if head is not None and head.generation != self._generation:
                return messages + self._resolve_generation_change(head)
            self._generation = None
            return messages + self._snapshot_messages()
        if cut_bytes == 0:
            return messages
        messages.extend(self._frame_messages(data[:cut_bytes], self._seq + 1))
        self._seq = cut_seq
        self._offset += cut_bytes
        return messages

    # -- internals -----------------------------------------------------
    def _snapshot_path(self) -> str:
        return os.path.join(self._dir, SNAPSHOT_FILE)

    def _journal_path(self) -> str:
        return os.path.join(self._dir, JOURNAL_FILE)

    def _head(self) -> Optional[wal.SnapshotHeader]:
        """The snapshot's header, from its first line; ``None`` when the
        snapshot is unreadable, :class:`StoreError` when it has none."""
        path = self._snapshot_path()
        try:
            line = self._io.read_head(path)
        except OSError:
            return None
        return wal.parse_header(line, path)

    def _snapshot_messages(self) -> List[dict]:
        for _ in range(_SNAPSHOT_RETRIES):
            try:
                text = self._io.read_text(self._snapshot_path())
            except OSError:
                continue
            header, _ = wal.decode_snapshot(text, self._snapshot_path())
            generation = header.generation
            self._generation, self._seq, self._offset = generation, 0, 0
            self._pending_announce = False
            return [
                encode_snapshot_message(generation, self._schema_crc, text),
                encode_schema_message(generation, self._schema_crc, 0),
            ]
        return []

    def _committed_cut(self, scanned: wal.ScanResult) -> Tuple[int, int]:
        """Bytes/seq of the shippable prefix of a tail scan.

        Returns ``(-1, 0)`` when the tail does not continue this
        source's position (journal swapped), ``(0, seq)`` when nothing
        new is committed yet, else the byte length up to — and the seq
        of — the last frame whose 2PC fate is decided.
        """
        records = scanned.records
        if not records:
            # A torn tail is the writer mid-append: wait.  A corrupt
            # first byte means we are reading a different file.
            if scanned.tail_state == "corrupt":
                return -1, 0
            return 0, self._seq
        if records[0].seq != self._seq + 1 \
                or records[0].generation != self._generation:
            return -1, 0
        if self._pair_gate is not None:
            # Stop in front of the first 2PC pair the gate withholds —
            # a decided pair whose spanning transaction is not complete
            # on every sibling shard yet ships with a later cut.
            for record in records:
                if record.kind == "prepare" \
                        and not self._pair_gate(record.txid):
                    if record is records[0]:
                        return 0, self._seq
                    return record.offset, record.seq - 1
        _, pending = wal.resolve_decided(records)
        if pending is not None:
            if pending is records[0]:
                return 0, self._seq
            return pending.offset, pending.seq - 1
        return records[-1].end, records[-1].seq

    def _frame_messages(self, raw: bytes, start_seq: int) -> List[dict]:
        """Split a committed slice into batches at decided boundaries."""
        assert self._generation is not None
        scanned = wal.scan(raw, expect_generation=self._generation)
        messages = []
        begin, first_seq = 0, start_seq
        pending = False
        for record in scanned.records:
            if record.kind == "prepare":
                pending = True
            elif record.kind == "decide":
                pending = False
            if pending:
                continue  # never cut between a prepare and its decide
            if record.end - begin >= self._batch_bytes:
                messages.append(
                    encode_frames_message(
                        self._generation, first_seq, raw[begin:record.end]
                    )
                )
                begin, first_seq = record.end, record.seq + 1
        if begin < len(raw):
            messages.append(
                encode_frames_message(self._generation, first_seq, raw[begin:])
            )
        return messages

    def _resolve_generation_change(self, head: wal.SnapshotHeader) -> List[dict]:
        """The primary compacted.  Fold if provable, else resync.

        A fold is provable when the new snapshot's header records the
        folded frontier and it equals everything we shipped, or when the
        old journal still sits on disk (the crash window between
        snapshot publish and journal reset) and scans as a complete
        decided history we can finish shipping.
        """
        self._pending_announce = False
        if head.generation == self._generation + 1:
            if head.folds == self._seq:
                self._generation, self._seq, self._offset = head.generation, 0, 0
                return [
                    encode_schema_message(
                        head.generation, self._schema_crc, 0, folds=head.folds
                    )
                ]
            messages = self._finish_old_generation(head.generation)
            if messages is not None:
                return messages
        self._generation = None
        return self._snapshot_messages()

    def _finish_old_generation(self, head: int) -> Optional[List[dict]]:
        try:
            data = self._io.read_bytes(self._journal_path())
        except OSError:
            return None
        if not data or self._offset > len(data):
            return None
        scanned = wal.scan(data, expect_generation=self._generation)
        records = scanned.records
        if (
            scanned.tail_state != "clean"
            or not records
            or records[0].seq != 1
            or any(r.generation != self._generation for r in records)
        ):
            return None
        _, pending = wal.resolve_decided(records)
        if pending is not None or records[-1].seq < self._seq:
            return None
        boundary = 0 if self._seq == 0 else next(
            (r.end for r in records if r.seq == self._seq), None
        )
        if boundary != self._offset:
            return None
        remainder = data[self._offset:]
        messages = []
        if remainder:
            messages.extend(self._frame_messages(remainder, self._seq + 1))
        fold_seq = records[-1].seq
        messages.append(
            encode_schema_message(head, self._schema_crc, 0, folds=fold_seq)
        )
        self._generation, self._seq, self._offset = head, 0, 0
        return messages


# ----------------------------------------------------------------------
# primary side, sharded: per-shard sources under one coordinator cut
# ----------------------------------------------------------------------
class ShardedFrameSource:
    """Multiplex per-shard :class:`FrameSource` streams under one
    coordinator cut.

    Every ``poll()`` first brings its coordinator-log tail
    (:class:`~repro.store.txlog.TxLogTail`) up to date — folding only
    the records appended since the last poll — and so captures the
    transaction states: each shard's stream is then gated to stop in
    front of any decided 2PC pair whose transaction the captured cut
    does not show *complete* — all participants' decides durable.
    Because every decide is durable before the coordinator's
    ``complete`` record, a transaction the cut completes is shippable
    from **every** shard in the same batch, so the batch — closed by a
    ``cut`` message carrying the landing frontier — is atomic across
    the follower set: no follower ever holds half a spanning
    transaction.
    """

    def __init__(
        self,
        directory: str,
        schema: DirectorySchema,
        *,
        io: Optional[StoreIO] = None,
        batch_bytes: int = STREAM_BATCH_BYTES,
    ) -> None:
        self._io = io if io is not None else StoreIO()
        shard_map, local_schema = _cohort_layout(directory, schema)
        self._sources: Dict[str, FrameSource] = {
            spec.name: FrameSource(
                shard_dir(directory, spec.name),
                local_schema,
                io=self._io,
                batch_bytes=batch_bytes,
                pair_gate=self._gate,
            )
            for spec in shard_map
        }
        self._shard_map_text = self._io.read_text(shard_map_path(directory))
        self._sent_shard_map = False
        self._txlog = TxLogTail(directory, self._io)
        self._txn_states: Mapping[str, TxState] = {}
        #: This poll's verdict on each txid absent from its capture, so
        #: every shard ships or withholds the same transactions.
        self._absent: Dict[str, bool] = {}

    @property
    def position(self) -> Position:
        """``{shard: (generation, seq)}`` of the last shipped frames."""
        return Position(
            {name: source.position.raw
             for name, source in self._sources.items()}
        )

    def attach(self, positions) -> bool:
        """Position every shard stream at the follower's durable cut (a
        :class:`Position` or a ``{shard: (generation, seq)}`` map); a
        shard the follower does not name, or that cannot resume
        incrementally, snapshots on the next poll.  Returns ``True``
        iff every shard resumes incrementally."""
        positions = positions or {}
        resumed = True
        for name, source in self._sources.items():
            resumed = source.attach(*positions.get(name, (0, 0))) and resumed
        return resumed

    def poll(self) -> List[dict]:
        """The next batch: shard-tagged stream messages closed by one
        ``cut`` message (empty list = every shard caught up).  A corrupt
        coordinator log raises :class:`StoreError`: no decision past the
        damage can be trusted, and a torn tail never raises."""
        self._txn_states = self._txlog.read() or {}
        self._absent = {}
        body: List[dict] = []
        for name, source in self._sources.items():
            for message in source.poll():
                tagged = dict(message)
                tagged["shard"] = name
                body.append(tagged)
        if not body:
            return []
        messages: List[dict] = []
        if not self._sent_shard_map:
            messages.append(encode_shard_map_message(self._shard_map_text))
            self._sent_shard_map = True
        messages.extend(body)
        messages.append(encode_cut_message(self.position))
        return messages

    def _gate(self, txid: Optional[str]) -> bool:
        """Ship a decided pair iff its transaction is *complete* at the
        captured cut.  A txid the capture does not hold was either
        retired by a compaction (``complete`` precedes retirement, so
        every participant's decide is durable) or begun after the
        capture, with this shard's decide durable and a sibling's
        perhaps not yet.  It ships only when the log cannot have begun
        it since: no frame appended after the capture names it, and
        the file was not replaced.  Its begin was durable before its
        prepare, which this shard's poll just read."""
        if txid is None:
            return True
        state = self._txn_states.get(txid)
        if state is not None:
            return state.state == "complete"
        shippable = self._absent.get(txid)
        if shippable is None:
            shippable = self._absent[txid] = not self._txlog.may_name_since(txid)
        return shippable


# ----------------------------------------------------------------------
# replica side: the applier
# ----------------------------------------------------------------------
class _Follower:
    """What a plain applier and a sharded cohort set up, persist and
    answer identically; each opens its own journals in ``_open()``."""

    #: Last known primary frontier — set by whoever drives the stream
    #: (:func:`follow`); lag introspection only.
    frontier: Optional[Position] = None

    def __init__(
        self,
        directory: str,
        schema: DirectorySchema,
        registry: Optional[AttributeRegistry] = None,
        *,
        io: Optional[StoreIO] = None,
        upstream: Optional[str] = None,
    ) -> None:
        self.directory = directory
        self._schema = schema
        self._registry = registry
        self._io = io if io is not None else StoreIO()
        self.schema_crc = schema_fingerprint(schema)
        self._closed = False
        os.makedirs(directory, exist_ok=True)
        state = read_replica_state(directory)
        if upstream is None and state is not None:
            upstream = state.get("upstream")
        self.upstream = upstream
        #: What ``replica.state`` holds now (``None`` when absent).
        self._recorded_state = state
        self._open()

    def lag_frames(self) -> Optional[int]:
        """Frames behind the last known primary frontier, summed over
        the members (``None`` until a frontier was observed, or while a
        member stands in another generation than the frontier's)."""
        if self.frontier is None:
            return None
        return self.position().lag_frames(self.frontier)

    def status(self) -> dict:
        """Introspection snapshot for CLI/fsck reporting: the durable
        position (:meth:`Position.to_fields`), plus the counters."""
        return {
            "directory": self.directory,
            "upstream": self.upstream,
            **self.position().to_fields(),
            "frontier": self.frontier,
            "lag_frames": self.lag_frames(),
            "consistent": self.consistent(),
            "frames_applied": self.frames_applied,
            "bytes_applied": self.bytes_applied,
            "snapshots_installed": self.snapshots_installed,
        }

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @staticmethod
    def _decoded(message) -> StreamMessage:
        if isinstance(message, StreamMessage):
            return message
        return decode_stream_message(message)

    def _ensure_open(self) -> None:
        if self._closed:
            raise StoreError(f"replica applier for {self.directory} is closed")

    def apply_message(self, message) -> StreamMessage:
        """Apply one stream message durably — :meth:`stage`, then
        :meth:`land`, then :meth:`record`; returns the decoded form.

        Raises :class:`ReplicationError` on contract violations —
        notably data frames whose generation no schema frame announced
        (the schema-before-data ordering is *enforced*, not assumed) —
        and :class:`ReplicaDivergedError` when the local position
        cannot align with the stream (resync from a snapshot).
        """
        decoded = self.stage(message)
        self.land()
        self.record()
        return decoded

    def unrecorded(self) -> bool:
        """Whether :meth:`record` has a state file to write."""
        return self._state() != self._recorded_state

    def record(self) -> None:
        """The disk half that follows a land: record the advisory
        ``replica.state`` — who is followed, under which schema — when
        that differs from what it holds: the first applied message
        (attach, snapshot install), the first after a reattach.  The
        synced position is not in it: that is the journal's (a cohort's
        ``cut.state``), so an applied message costs no state write."""
        payload = self._state()
        if payload != self._recorded_state:
            self._io.fault_point("repl:state")
            _write_state(self._io, self.directory, REPLICA_STATE_FILE, payload)
            self._recorded_state = payload

    def _state(self) -> dict:
        return {"upstream": self.upstream, "schema_crc": self.schema_crc}


class ReplicaApplier(_Follower):
    """A follower's local copy: its own WAL, fed by the stream.

    Owns the store directory (advisory lock held while open — two
    appliers scribbling one journal would corrupt it), appends shipped
    frames to the local journal with fsync, and replays them through an
    embedded :class:`StoreReader` — the identical bootstrap/replay path
    every reader uses, so the replica's copy *is* a reader's view.  A
    restarted applier recovers its durable position (torn tail
    truncated exactly like any crashed store) and resumes from there.

    :attr:`reader` is the replica's one served copy: a replica server's
    connections all read it, and only the applier advances it.  Each
    message applies in two halves: :meth:`stage`, the disk half — the
    journal append and its fsync, the snapshot files of an install or a
    fold, the bootstrap of the reader they are read back into — which
    never touches the served copy, so it may wait on the disk on another
    thread; and :meth:`land`, the memory half — the replay of the
    appended frames, or the swap of the freshly opened reader — which
    runs where the copy is read.  So no read overlaps a replay, and no
    read waits on the disk.  :meth:`record` then writes what state file
    the landed message changed.
    """

    def _open(self) -> None:
        self.reader: Optional[StoreReader] = None
        #: A reader opened on freshly installed files (a snapshot, a
        #: fold), swapped in for :attr:`reader` by the next :meth:`land`.
        self._incoming: Optional[StoreReader] = None
        #: Where the disk stands once staged messages are landed
        #: (``None`` when nothing is staged: the reader's position).
        self._staged: Optional[Position] = None
        self._announced: Optional[int] = None
        self.frames_applied = 0
        self.bytes_applied = 0
        self.snapshots_installed = 0
        self._advisory = DirectoryStore._acquire_lock(self.directory)
        try:
            if os.path.exists(os.path.join(self.directory, SNAPSHOT_FILE)):
                # Truncate a torn tail from a crashed append before
                # tailing again: appending past torn bytes would turn a
                # benign crash into a corrupt journal.
                recover(self.directory, io=self._io, repair=True)
                self.reader = self._open_reader()
        except BaseException:
            DirectoryStore._release_lock(self._advisory)
            raise

    # -- read surface --------------------------------------------------
    @property
    def instance(self):
        """The replica's current directory instance (read surface)."""
        return self.served().instance

    def served(self) -> StoreReader:
        """The served copy — :attr:`reader`; :class:`StoreError` while
        nothing was replicated into the directory yet, or once the
        applier is closed."""
        self._ensure_open()
        if self.reader is None:
            raise StoreError(
                f"replica {self.directory} holds no state yet; it needs "
                "a snapshot from its primary"
            )
        return self.reader

    def position(self) -> Position:
        """``(generation, seq)`` durably applied — ``(0, 0)`` before
        the first snapshot lands."""
        if self.reader is None:
            return Position.plain(0, 0)
        return self.reader.position()

    def consistent(self) -> bool:
        """Always: a plain replica's journal is a committed prefix
        after every applied message (a cohort's is only on a cut)."""
        return True

    # -- stream application --------------------------------------------
    def stage(self, message) -> StreamMessage:
        """The disk half of a message — what a cohort calls for each of
        its members' messages before it lands them all at once (their
        record is the cohort's).  The served copy is not touched, so
        this may run on a thread while the copy is read.  Returns the
        decoded message; :meth:`land` makes it visible."""
        self._ensure_open()
        decoded = self._decoded(message)
        if decoded.kind == "snapshot":
            self._install_snapshot(decoded)
        elif decoded.kind == "schema":
            self._handle_schema(decoded)
        elif decoded.kind == "frames":
            self._append_frames(decoded)
        else:
            raise ReplicationError(
                f"{self.directory} replicates a plain store, but the "
                f"upstream ships a sharded one ({decoded.kind!r} message)"
            )
        return decoded

    def land(self) -> None:
        """The memory half, on the thread that reads the served copy:
        swap in the reader opened on newly installed files, and replay
        the frames staged since.  A no-op when nothing is staged."""
        self._ensure_open()
        if self._incoming is not None:
            retired, self.reader, self._incoming = self.reader, self._incoming, None
            if retired is not None:  # a cohort's copy follows its members
                self.reader.on_replay = retired.on_replay
                retired.close()
        if self._staged is not None:
            result = self.reader.refresh()
            if self.reader.position() != self._staged:
                raise ReplicationError(
                    f"staged the journal through {self._staged} but the "
                    f"view stands at {self.reader.position()} "
                    f"({result.note or 'no note'})"
                )
            self._staged = None

    def _staged_position(self) -> Position:
        """Where the local journal stands: past :meth:`position` by what
        is staged and not landed yet."""
        return self._staged if self._staged is not None else self.position()

    def close(self) -> None:
        """Release the reader and the advisory lock (idempotent); every
        later read is refused."""
        if self._closed:
            return
        self._closed = True
        for reader in (self.reader, self._incoming):
            if reader is not None:
                reader.close()
        self.reader = self._incoming = None
        DirectoryStore._release_lock(self._advisory)

    # -- internals -----------------------------------------------------
    def _check_schema(self, decoded: StreamMessage) -> None:
        if decoded.schema_crc != self.schema_crc:
            raise ReplicationError(
                f"schema fingerprint mismatch: primary streams under "
                f"0x{decoded.schema_crc:08x}, replica holds "
                f"0x{self.schema_crc:08x}; frames checked under a "
                "different schema cannot be blindly replayed"
            )

    def _install_snapshot(self, decoded: StreamMessage) -> None:
        self._check_schema(decoded)
        assert decoded.snapshot is not None
        self._io.fault_point("repl:snapshot-install")
        self._io.write_file_atomic(
            os.path.join(self.directory, SNAPSHOT_FILE),
            decoded.snapshot.encode("utf-8"),
        )
        self._io.fault_point("repl:journal-reset")
        self._io.write_file_atomic(
            os.path.join(self.directory, JOURNAL_FILE), b""
        )
        # A snapshot installs state but does not license data frames:
        # the stream must still announce the generation (schema first).
        self._announced = None
        self._open_incoming(decoded.generation)
        self.snapshots_installed += 1

    def _handle_schema(self, decoded: StreamMessage) -> None:
        self._check_schema(decoded)
        assert decoded.base_seq is not None
        pos = self._staged_position()
        if pos == (decoded.generation, decoded.base_seq):
            self._announced = decoded.generation
            return
        if (
            decoded.folds is not None
            and decoded.base_seq == 0
            and pos == (decoded.generation - 1, decoded.folds)
        ):
            self._fold(decoded.generation, decoded.folds)
            self._announced = decoded.generation
            return
        raise ReplicaDivergedError(
            f"replica at {pos} cannot align with announced generation "
            f"{decoded.generation} (base seq {decoded.base_seq}, folds "
            f"{decoded.folds}); resync from a snapshot"
        )

    def _fold(self, generation: int, folded_seq: int) -> None:
        """Compact locally: our state at the folded frontier *is* the
        new generation's snapshot, so write it from our own journal
        instead of re-downloading — same serialization and header,
        fold proof included, as the primary's ``compact()``, hence
        byte-identical.  The state is read back from the disk into a
        private reader: the served copy may trail the journal (a cohort
        lands its batch at once), and only its own thread reads it."""
        with StoreReader.open(
            self.directory, self._schema, self._registry, io=self._io
        ) as folded:
            if folded.position() != (generation - 1, folded_seq):
                raise ReplicationError(
                    f"cannot fold at seq {folded_seq}: the local journal "
                    f"reads back at {folded.position()}"
                )
            text = wal.encode_snapshot(
                generation, serialize_ldif(folded.instance), folds=folded_seq
            )
        self._io.fault_point("repl:fold-snapshot")
        self._io.write_file_atomic(
            os.path.join(self.directory, SNAPSHOT_FILE), text.encode("utf-8")
        )
        self._io.fault_point("repl:fold-journal")
        self._io.write_file_atomic(
            os.path.join(self.directory, JOURNAL_FILE), b""
        )
        self._open_incoming(generation)

    def _open_incoming(self, generation: int) -> None:
        """Bootstrap a reader from the snapshot just installed — an
        object nothing else holds yet — for :meth:`land` to swap in."""
        if self._incoming is not None:
            self._incoming.close()
            self._incoming = None
        incoming = self._open_reader()
        if incoming.position() != (generation, 0):
            incoming.close()
            raise ReplicationError(
                f"installed a snapshot of generation {generation} but the "
                f"local view bootstrapped at {incoming.position()}"
            )
        self._incoming = incoming
        self._staged = incoming.position()

    def _open_reader(self) -> StoreReader:
        """A reader of the local files, numbered: it becomes the served
        copy, and the thread that opens it is the one with time to
        number it."""
        reader = StoreReader.open(
            self.directory, self._schema, self._registry, io=self._io
        )
        reader.instance.ensure_numbered()
        return reader

    def _append_frames(self, decoded: StreamMessage) -> None:
        """Append shipped frames to the local journal (fsynced); their
        replay onto the served copy is :meth:`land`'s."""
        assert decoded.records is not None and decoded.data is not None
        if self._announced != decoded.generation:
            raise ReplicationError(
                f"data frames for generation {decoded.generation} arrived "
                f"before a schema frame announced it (announced: "
                f"{self._announced}); schema frames must precede data"
            )
        assert self.reader is not None or self._incoming is not None
        generation, seq = self._staged_position()
        if generation != decoded.generation:
            raise ReplicaDivergedError(
                f"replica at generation {generation} received frames for "
                f"generation {decoded.generation}"
            )
        last_seq = decoded.records[-1].seq
        if last_seq <= seq:
            return  # duplicate delivery (reconnect overlap): idempotent
        if decoded.start_seq != seq + 1:
            raise ReplicaDivergedError(
                f"replica at seq {seq} received frames starting at "
                f"{decoded.start_seq}; the stream has a gap"
            )
        self._io.fault_point("repl:frames-append")
        self._io.append_bytes(
            os.path.join(self.directory, JOURNAL_FILE), decoded.data
        )
        self._staged = Position.plain(generation, last_seq)
        self.frames_applied += len(decoded.records)
        self.bytes_applied += len(decoded.data)


def read_replica_state(directory: str) -> Optional[dict]:
    """The advisory ``replica.state`` file, or ``None`` when absent or
    damaged (it never gates anything; the WAL is the truth)."""
    path = os.path.join(directory, REPLICA_STATE_FILE)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


# ----------------------------------------------------------------------
# replica side, sharded: the cohort applier
# ----------------------------------------------------------------------
class _MemberReaders(Mapping):
    """A cohort's member readers by shard, looked up through the member
    appliers on every access — a member that swapped a freshly opened
    reader in (a snapshot install, a fold) is read through at once."""

    def __init__(self, appliers: Dict[str, ReplicaApplier]) -> None:
        self._appliers = appliers

    def __getitem__(self, name: str) -> StoreReader:
        return self._appliers[name].reader

    def __iter__(self):
        return iter(self._appliers)

    def __len__(self) -> int:
        return len(self._appliers)


class ShardedReplicaApplier(_Follower):
    """A follower *set*: one :class:`ReplicaApplier` per shard, batches
    applied atomically at ``cut`` boundaries.

    Shard-tagged messages buffer until the batch's ``cut`` message
    arrives.  Its disk half (:meth:`stage`) then runs every member's
    journal appends and fsyncs, snapshot installs and folds, and checks
    that the members stand on the cut.  Its memory half (:meth:`land`)
    replays the batch into the served copy (:attr:`reader`, a composite
    over the member appliers' own readers) and serves it from the new
    cut, on the thread that reads the copy — so no reader ever observes
    one shard past a spanning transaction and a sibling short of it,
    and none waits on the disk.  Then :meth:`record` writes the cut
    durably to ``cut.state`` (the cohort's ``replica.state`` names only
    the upstream; the members keep none of their own).  A restarted
    cohort is :meth:`consistent` only when every shard recovers to
    exactly the recorded cut, and must not serve (or be promoted) until
    a new cut lands otherwise.
    """

    def _open(self) -> None:
        self._appliers: Dict[str, ReplicaApplier] = {}
        self._pending: List[StreamMessage] = []
        self._cut: Optional[Position] = None
        #: A cut staged (its members appended) and not landed yet, and
        #: one landed and not yet recorded in ``cut.state``.
        self._landing: Optional[Position] = None
        self._recording: Optional[Position] = None
        #: The served copy, built once every member holds a reader
        #: (:meth:`_build_served`).
        self.reader = None
        try:
            if os.path.exists(shard_map_path(self.directory)):
                self._open_shards()
            if self._appliers:
                self._cut = read_cut_state(self.directory)
                self._build_served()
        except BaseException:
            self.close()
            raise

    # -- introspection -------------------------------------------------
    @property
    def frames_applied(self) -> int:
        """Total frames applied across the cohort's shard appliers."""
        return sum(a.frames_applied for a in self._appliers.values())

    @property
    def bytes_applied(self) -> int:
        """Total frame bytes applied across the cohort."""
        return sum(a.bytes_applied for a in self._appliers.values())

    @property
    def snapshots_installed(self) -> int:
        """Total bootstrap snapshots installed across the cohort."""
        return sum(a.snapshots_installed for a in self._appliers.values())

    @property
    def instance(self):
        """The served composite's state as a fresh stitch of its member
        readers' instances (read surface; no bootstrap, no disk) —
        byte for byte the composite's definition, which the followed
        composite matches only order-free.  On or off the recorded
        cut."""
        self._ensure_open()
        if self.reader is None:
            raise StoreError(
                f"sharded replica {self.directory} holds no state yet; "
                "it needs a shard map and snapshots from its primary"
            )
        return self.reader.stitch()

    def served(self):
        """The served copy — a composite over the member appliers'
        readers.  Raises :class:`StoreError` off the recorded cut
        (between a crash and the next landed cut, the members may stand
        past it) and once the applier is closed."""
        self._ensure_open()
        composite = self.reader if self.consistent() else None
        if composite is None:
            raise StoreError(
                f"replica {self.directory} has not reached a "
                "consistent replicated cut yet; retry after the "
                "next sync batch"
            )
        return composite

    def _build_served(self) -> None:
        """Build :attr:`reader` over the member readers once each member
        holds one — at open, or when a cut lands."""
        from repro.store.sharded import CompositeReader

        if self.reader is None and self._appliers and all(
            applier.reader is not None for applier in self._appliers.values()
        ):
            self.reader = CompositeReader.of_cohort(
                self.directory, self._schema, self._registry,
                self._shard_map, _MemberReaders(self._appliers),
            )

    def position(self) -> Position:
        """``{shard: (generation, seq)}`` durably applied — ``{}``
        before the shard map lands."""
        return Position(
            {name: a.position().raw for name, a in self._appliers.items()}
        )

    def consistent(self) -> bool:
        """Whether every shard stands exactly at the last replicated
        cut — the only states in which the composite view is whole."""
        return self._cut is not None and self.position() == self._cut

    # -- stream application --------------------------------------------
    def stage(self, message) -> StreamMessage:
        """The disk half: install a shard map, buffer a shard-tagged
        message, or, at a ``cut``, stage the buffered batch into the
        members (:meth:`_stage_cut`).  The served copy is not touched,
        so this may run on a thread while the copy is read; :meth:`land`
        makes a staged cut visible."""
        self._ensure_open()
        decoded = self._decoded(message)
        if decoded.kind == "shardmap":
            self._install_shard_map(decoded)
        elif decoded.kind == "cut":
            self._stage_cut(decoded)
        elif decoded.shard is None:
            raise ReplicationError(
                f"sharded stream message of kind {decoded.kind!r} "
                "carries no shard tag"
            )
        elif decoded.shard not in self._appliers:
            raise ReplicationError(
                f"stream message for unknown shard {decoded.shard!r} "
                "(shard map not installed, or layouts diverge)"
            )
        else:
            self._pending.append(decoded)
        return decoded

    def land(self) -> None:
        """The memory half, on the thread that reads the served copy:
        land every member's staged messages at once, and serve the copy
        from the staged cut.  Members staged without a cut (a batch
        whose stage failed half way) land too, off the recorded cut, so
        the copy is refused until the next cut lands."""
        self._ensure_open()
        for applier in self._appliers.values():
            applier.land()
        if self._landing is not None:
            self._cut = self._recording = self._landing
            self._landing = None
            self._build_served()

    def unrecorded(self) -> bool:
        return self._recording is not None or super().unrecorded()

    def record(self) -> None:
        """The disk half that follows a land: record the cut it landed
        on in ``cut.state``, then the cohort's ``replica.state`` when
        its upstream changed.  A crash before ``cut.state`` leaves the
        cohort off its recorded cut (:meth:`consistent` is false until
        the next cut lands)."""
        if self._recording is not None:
            self._io.fault_point("repl:cut-state")
            _write_state(
                self._io, self.directory, CUT_STATE_FILE,
                self._recording.to_wire(),
            )
            self._recording = None
        super().record()

    def close(self) -> None:
        """Close the served copy and every shard applier (idempotent);
        every later read is refused."""
        if self._closed:
            return
        self._closed = True
        if self.reader is not None:
            self.reader.close()
        for applier in self._appliers.values():
            applier.close()

    # -- internals -----------------------------------------------------
    def _open_shards(self) -> None:
        shard_map, local_schema = _cohort_layout(self.directory, self._schema)
        appliers = {}
        try:
            for spec in shard_map:
                appliers[spec.name] = ReplicaApplier(
                    shard_dir(self.directory, spec.name),
                    local_schema,
                    self._registry,
                    io=self._io,
                )
        except BaseException:
            for applier in appliers.values():
                applier.close()
            raise
        # One assignment: a read of the cohort never sees half the members.
        self._shard_map, self._appliers = shard_map, appliers

    def _install_shard_map(self, decoded: StreamMessage) -> None:
        assert decoded.shard_map is not None
        path = shard_map_path(self.directory)
        if self._appliers:
            try:
                current = self._io.read_text(path)
            except OSError:
                current = None
            if current != decoded.shard_map:
                raise ReplicationError(
                    "primary ships a different shard layout than this "
                    "follower holds; a re-sharded primary needs a fresh "
                    "follower directory"
                )
            return
        self._io.write_file_atomic(
            path, decoded.shard_map.encode("utf-8")
        )
        self._open_shards()

    def _stage_cut(self, decoded: StreamMessage) -> None:
        """Stage the buffered batch: every member's disk half (appends
        and fsyncs, snapshot installs, folds); then check the members
        stand on the cut, for :meth:`land` to serve it."""
        assert decoded.frontier is not None
        pending, self._pending = self._pending, []
        for message in pending:
            self._appliers[message.shard].stage(message)
        staged = Position({
            name: applier._staged_position().raw
            for name, applier in self._appliers.items()
        })
        if staged != decoded.frontier:
            raise ReplicationError(
                f"batch landed the cohort at {staged}, but the cut "
                f"says {decoded.frontier}; the stream and the "
                "follower set diverge"
            )
        self._landing = decoded.frontier


def read_cut_state(directory: str) -> Optional[Position]:
    """The follower set's last recorded cut, or ``None`` when absent or
    damaged (the per-shard WALs are the truth; the cut only gates
    serving and promotion)."""
    path = os.path.join(directory, CUT_STATE_FILE)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return Position.from_fields({"shards": json.load(handle)})
    except (OSError, ValueError):
        return None


def follow(applier, head: Position):
    """Point ``applier`` at the frontier ``head`` its upstream just
    acknowledged; returns the applier to feed the stream to.

    This is where a fresh replica directory learns its kind: opened
    before any contact it is provisionally plain, and when the
    acknowledgement says the upstream is sharded (or the reverse) it is
    reopened as the upstream's kind — the first applied message then
    puts that on disk for every later start.  A directory that already
    holds the other kind is a layout mismatch, not a guess to correct.
    """
    if applier.position().is_plain != head.is_plain:
        if is_sharded(applier.directory) is not None:
            held = "sharded" if head.is_plain else "plain"
            raise ReplicationError(
                f"shard layout mismatch: {applier.directory} holds a "
                f"{held} store, but the upstream acknowledged "
                f"{head.to_wire()}; replicate into a fresh directory"
            )
        applier.close()
        kind = ReplicaApplier if head.is_plain else ShardedReplicaApplier
        applier = kind(
            applier.directory, applier._schema, applier._registry,
            io=applier._io, upstream=applier.upstream,
        )
    applier.frontier = head
    return applier


def pump(source: FrameSource, applier: ReplicaApplier, limit: int = 1000) -> int:
    """Drain ``source`` into ``applier`` until a poll comes back empty.

    The in-process transport: the crash matrix and the lag bench drive
    replication through the identical message objects the server ships
    over its sockets.  Returns the number of messages applied.
    """
    applied = 0
    for _ in range(limit):
        batch = source.poll()
        if not batch:
            return applied
        for message in batch:
            applier.apply_message(message)
            applied += 1
    raise ReplicationError(
        f"pump did not converge within {limit} polls; the source keeps "
        "producing messages"
    )


# ----------------------------------------------------------------------
# promotion
# ----------------------------------------------------------------------
def promote(
    directory: str,
    schema: DirectorySchema,
    registry: Optional[AttributeRegistry] = None,
    *,
    io: Optional[StoreIO] = None,
):
    """Promote a follower's local copy to a writable primary — a plain
    replica, or a replicated sharded cohort as a unit
    (:func:`_promote_cohort`), whichever ``directory`` holds; a
    directory nothing was replicated into yet is refused
    (:class:`StoreError`, like every other refusal).

    Steps, each behind a named fault point so the failover crash
    matrix can kill between any two:

    1. ``promote:inspect`` — a read-only recovery pass; refuse with a
       clear error if an in-doubt 2PC prepare is visible (only the old
       primary's coordinator log can decide it) or the copy is
       corrupt beyond its committed prefix.
    2. ``promote:open`` — open as a writer: acquires the advisory
       lock, recovers the committed prefix, truncates a torn tail.
    3. ``promote:compact`` — compact: a genuine generation bump that
       starts a new epoch, so any frame the old primary might still
       ship is recognisably stale.
    4. ``promote:state`` — drop the advisory ``replica.state`` marker.

    Returns the open, writable store; the caller owns closing it.
    A crash at any point leaves a copy that recovers to the same
    committed prefix and can be promoted again.
    """
    io = io if io is not None else StoreIO()
    sharded = is_sharded(directory)
    if sharded is None:
        raise StoreError(
            f"refusing to promote {directory}: nothing has been replicated "
            "into it yet — it holds neither a snapshot nor a replicated cut"
        )
    if sharded:
        return _promote_cohort(directory, schema, registry, io)
    io.fault_point("promote:inspect")
    _promotable(directory, schema, registry, io, directory)
    io.fault_point("promote:open")
    store = DirectoryStore.open(directory, schema, registry, io=io)
    try:
        io.fault_point("promote:compact")
        store.compact()
        io.fault_point("promote:state")
        _drop_state(directory, REPLICA_STATE_FILE)
    except BaseException:
        store.close()
        raise
    return store


def _promotable(journal_dir: str, schema, registry, io: StoreIO, subject: str):
    """Promotion's read-only recovery pass over one journal; returns
    the recovered instance and the report, or refuses (having touched
    nothing) on an in-doubt 2PC prepare or on damage beyond the
    committed prefix."""
    instance, report = recover(journal_dir, schema, registry, io=io, repair=False)
    if report.in_doubt_txid is not None:
        raise StoreError(
            f"refusing to promote {subject}: in-doubt 2PC transaction "
            f"{report.in_doubt_txid} is visible at the replication "
            "frontier; only the old primary's coordinator log can decide "
            "it — resolve it there (`recover`) or discard the "
            "prepare explicitly before promoting"
        )
    if report.read_only:
        raise StoreError(
            f"refusing to promote {subject}: recovery found damage "
            f"beyond the committed prefix ({report.summary()}); run "
            "`recover --force` and inspect the quarantine first"
        )
    return instance, report


def _promote_cohort(directory: str, schema, registry, io: StoreIO):
    """Promote a sharded follower set to a writable sharded primary —
    the whole cohort, or none of it.

    The inspection pass runs over **every** shard before anything is
    promoted: each must recover cleanly (no in-doubt 2PC prepare, no
    damage beyond the committed prefix) *and* stand exactly at the last
    replicated cut — a shard ahead of or behind the cut means the
    follower set holds a torn composite (a crash mid-batch), which
    promotion must never freeze into a primary.  Only then is the
    intent recorded (:data:`PROMOTE_STATE_FILE`), each shard promoted
    (generation bump per member), the cut marker and the intent
    dropped, and the cohort reopened as a
    :class:`~repro.store.sharded.ShardedStore`.
    """
    from repro.store.sharded import ShardedStore

    cut = read_cut_state(directory)
    if cut is None:
        raise StoreError(
            f"refusing to promote {directory}: no replicated cut is "
            "recorded — the follower set never reached a coordinator-cut "
            "boundary it could be served (or promoted) at"
        )
    try:
        with open(os.path.join(directory, PROMOTE_STATE_FILE), "rb") as handle:
            intent = json.load(handle)
    except (OSError, ValueError):
        intent = None
    recorded = (
        intent.get("states", {})
        if isinstance(intent, dict) and intent.get("cut") == cut.to_wire()
        else {}
    )
    shard_map, local_schema = _cohort_layout(directory, schema)
    io.fault_point("promote-shards:inspect")
    states, already_promoted = {}, set()
    for spec in shard_map:
        instance, report = _promotable(
            shard_dir(directory, spec.name), local_schema, registry, io,
            f"{directory} (shard {spec.name!r})",
        )
        states[spec.name] = zlib.crc32(serialize_ldif(instance).encode("utf-8"))
        position = (report.generation, report.last_seq)
        held = cut.get(spec.name, None)
        if position == held:
            continue
        # A member a crashed run of this promotion already bumped sits
        # one generation past its cut entry with an empty journal,
        # holding the state that run recorded for it before its first
        # bump; re-running must finish the cohort, not refuse it.  A
        # follower killed inside a fold or a resync leaves the same
        # position, but no recorded intent — and possibly a state past
        # the cut.
        if (
            held is not None
            and position == (held[0] + 1, 0)
            and recorded.get(spec.name) == states[spec.name]
        ):
            already_promoted.add(spec.name)
            continue
        raise StoreError(
            f"refusing to promote {directory}: shard {spec.name!r} "
            f"stands at {position} but the last replicated cut "
            f"records {held}; the cohort promotes "
            "atomically or not at all"
        )
    _write_state(
        io, directory, PROMOTE_STATE_FILE,
        {"cut": cut.to_wire(), "states": states},
    )
    for spec in shard_map:
        if spec.name in already_promoted:
            continue
        io.fault_point("promote-shards:member")
        promote(
            shard_dir(directory, spec.name), local_schema, registry, io=io
        ).close()
    io.fault_point("promote-shards:cut-state")
    _drop_state(directory, CUT_STATE_FILE)
    _drop_state(directory, REPLICA_STATE_FILE)
    _drop_state(directory, PROMOTE_STATE_FILE)
    return ShardedStore.open(directory, schema, registry)
