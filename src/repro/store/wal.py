"""Write-ahead-log record format and the pluggable I/O layer.

The journal (``journal.ldif``) is a sequence of *framed* records.  Each
frame keeps the LDIF changes text human-readable while making torn and
corrupted writes detectable::

    #WAL seq=3 gen=2 len=124 crc=0x7a1b03f9
    dn: uid=nina,ou=theory,o=att
    changetype: add
    ...
    #END

* ``len`` is the exact byte length of the payload (length-prefixing: the
  scanner never guesses at record boundaries);
* ``crc`` is CRC32 over ``"{seq}:{gen}:"`` plus the payload bytes, so a
  flipped sequence or generation field is caught too;
* ``seq`` numbers records 1.. within a generation and must be contiguous
  (a gap means a lost or reordered record);
* ``gen`` is the store **generation id**, stamped into both the snapshot
  header and every record.  :meth:`~repro.store.journal.DirectoryStore.compact`
  bumps the generation when it folds the journal into a new snapshot, so
  a crash between the snapshot rename and the journal reset leaves
  old-generation records that recovery recognises as *stale* (already in
  the snapshot) instead of double-applying them.

:func:`scan` classifies the journal tail as

* ``"clean"`` — the file ends exactly at a frame boundary;
* ``"torn"`` — the trailing bytes are a *prefix* of a frame (the normal
  artifact of a crash mid-append; recovery quarantines and truncates it
  and the store stays writable);
* ``"corrupt"`` — a structurally complete frame fails its checksum or
  sequence check, or the tail is not something our own appends could
  have produced (bit rot / foreign writes; recovery degrades the store
  to read-only until an explicit ``recover`` run).

Two-phase commit adds two frame kinds to the same journal.  A
``#PREPARE`` frame carries a transaction's changes durably but keeps
them *invisible*: neither recovery nor a reader applies the payload
until a matching ``#DECIDE`` frame records the coordinator's verdict::

    #PREPARE txid=tx-7 seq=4 gen=2 len=87 crc=0x1fe2a990
    dn: ou=ml,ou=attLabs
    changetype: add
    ...
    #END
    #DECIDE txid=tx-7 verdict=commit seq=5 gen=2 len=0 crc=0x9b2c0441
    #END

Every frame kind consumes the next sequence number, so the contiguity
check spans all three.  The appender never starts a new frame while a
prepare is undecided, so :func:`scan` treats a ``#PREPARE`` followed by
anything but its own ``#DECIDE`` as corruption; at most one undecided
prepare can exist, and only as the very last frame (the *in-doubt*
state that :mod:`repro.store.recovery` resolves from the coordinator
log).  :func:`resolve_decided` folds decided pairs into the replayable
record list all consumers share.

:class:`StoreIO` is the indirection point the fault-injection harness
(:mod:`repro.store.faults`) hooks into: every filesystem touch the store
makes goes through one of its methods — including :meth:`~StoreIO.fault_point`,
a no-op marker the 2PC coordinator drops at every protocol step so the
crash harness can kill it there by name.
"""

from __future__ import annotations

import os
import re
import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import StoreError

__all__ = [
    "WalRecord",
    "ScanResult",
    "StoreIO",
    "encode_record",
    "encode_prepare",
    "encode_decide",
    "scan",
    "resolve_decided",
    "SnapshotHeader",
    "encode_snapshot",
    "decode_snapshot",
    "parse_header",
]

_HEADER_RE = re.compile(
    rb"^#WAL seq=(\d+) gen=(\d+) len=(\d+) crc=0x([0-9a-f]{1,8})$"
)
_PREPARE_RE = re.compile(
    rb"^#PREPARE txid=([0-9A-Za-z._-]+) seq=(\d+) gen=(\d+) len=(\d+) "
    rb"crc=0x([0-9a-f]{1,8})$"
)
_DECIDE_RE = re.compile(
    rb"^#DECIDE txid=([0-9A-Za-z._-]+) verdict=(commit|abort) seq=(\d+) "
    rb"gen=(\d+) len=(\d+) crc=0x([0-9a-f]{1,8})$"
)
_TRAILER = b"#END\n"
_SNAPSHOT_HEADER_RE = re.compile(
    r"^# repro-store snapshot gen=(\d+) format=1(?: folds=(\d+))?\s*$"
)


def _crc(seq: int, generation: int, payload: bytes) -> int:
    return zlib.crc32(f"{seq}:{generation}:".encode("ascii") + payload) & 0xFFFFFFFF


def _crc_2pc(
    kind: str, txid: str, verdict: str, seq: int, generation: int,
    payload: bytes,
) -> int:
    """Checksum for the 2PC frame kinds: covers the protocol fields too,
    so a flipped txid or verdict is caught like a flipped seq."""
    prefix = f"{seq}:{generation}:{kind}:{txid}:{verdict}:"
    return zlib.crc32(prefix.encode("ascii") + payload) & 0xFFFFFFFF


@dataclass(frozen=True)
class WalRecord:
    """One decoded journal frame."""

    seq: int
    generation: int
    payload: str
    offset: int  # byte offset of the frame's header line
    frame_length: int  # total frame size in bytes
    kind: str = "commit"  # "commit" | "prepare" | "decide"
    txid: Optional[str] = None  # 2PC transaction id (prepare/decide)
    verdict: Optional[str] = None  # "commit" | "abort" (decide only)

    @property
    def end(self) -> int:
        """Byte offset just past this frame."""
        return self.offset + self.frame_length


@dataclass
class ScanResult:
    """Outcome of scanning a journal byte string."""

    records: List[WalRecord]
    tail_offset: int  # where the committed prefix ends
    tail_state: str  # "clean" | "torn" | "corrupt"
    tail_reason: Optional[str] = None
    total: int = 0

    @property
    def tail_bytes(self) -> int:
        """Bytes past the committed prefix (torn or damaged)."""
        return self.total - self.tail_offset


def encode_record(seq: int, generation: int, payload: str) -> bytes:
    """Frame one committed transaction's LDIF changes text."""
    body = payload.encode("utf-8")
    if not body.endswith(b"\n"):
        body += b"\n"
    header = (
        f"#WAL seq={seq} gen={generation} len={len(body)} "
        f"crc=0x{_crc(seq, generation, body):08x}\n"
    ).encode("ascii")
    return header + body + _TRAILER


def encode_prepare(txid: str, seq: int, generation: int, payload: str) -> bytes:
    """Frame one prepared (durable, not yet visible) transaction."""
    body = payload.encode("utf-8")
    if not body.endswith(b"\n"):
        body += b"\n"
    crc = _crc_2pc("prepare", txid, "", seq, generation, body)
    header = (
        f"#PREPARE txid={txid} seq={seq} gen={generation} len={len(body)} "
        f"crc=0x{crc:08x}\n"
    ).encode("ascii")
    return header + body + _TRAILER


def encode_decide(txid: str, verdict: str, seq: int, generation: int) -> bytes:
    """Frame the coordinator's verdict for a prepared transaction."""
    if verdict not in ("commit", "abort"):
        raise ValueError(f"invalid 2PC verdict {verdict!r}")
    crc = _crc_2pc("decide", txid, verdict, seq, generation, b"")
    header = (
        f"#DECIDE txid={txid} verdict={verdict} seq={seq} gen={generation} "
        f"len=0 crc=0x{crc:08x}\n"
    ).encode("ascii")
    return header + _TRAILER


def scan(data: bytes, expect_generation: Optional[int] = None) -> ScanResult:
    """Decode frames from ``data`` until the end, a torn tail, or damage.

    ``expect_generation`` does **not** reject other generations — stale
    (older-generation) records are a legitimate crash artifact that
    :mod:`repro.store.recovery` handles — but a *newer* generation than
    the snapshot's is flagged as corruption.
    """
    records: List[WalRecord] = []
    pos = 0
    expected_seq: Optional[int] = None
    current_gen: Optional[int] = None
    pending_txid: Optional[str] = None

    def result(state: str, reason: Optional[str] = None) -> ScanResult:
        return ScanResult(records, pos, state, reason, total=len(data))

    while pos < len(data):
        newline = data.find(b"\n", pos)
        if newline == -1:
            # No complete header line: can only be a torn header write.
            return result("torn", "incomplete frame header at end of journal")
        header = data[pos:newline]
        kind = "commit"
        txid: Optional[str] = None
        verdict: Optional[str] = None
        match = _HEADER_RE.match(header)
        if match is not None:
            seq = int(match.group(1))
            generation = int(match.group(2))
            length = int(match.group(3))
            crc = int(match.group(4), 16)
        elif (match := _PREPARE_RE.match(header)) is not None:
            kind = "prepare"
            txid = match.group(1).decode("ascii")
            seq = int(match.group(2))
            generation = int(match.group(3))
            length = int(match.group(4))
            crc = int(match.group(5), 16)
        elif (match := _DECIDE_RE.match(header)) is not None:
            kind = "decide"
            txid = match.group(1).decode("ascii")
            verdict = match.group(2).decode("ascii")
            seq = int(match.group(3))
            generation = int(match.group(4))
            length = int(match.group(5))
            crc = int(match.group(6), 16)
        else:
            # A newline-terminated line our appender never writes: if it
            # is the very last line it may still be a torn foreign
            # append, but either way it is not a frame prefix of ours.
            return result(
                "corrupt",
                f"unrecognised journal header at byte {pos}: "
                f"{header[:60]!r}",
            )
        body_start = newline + 1
        body_end = body_start + length
        if body_end + len(_TRAILER) > len(data):
            return result("torn", "frame extends past end of journal")
        body = data[body_start:body_end]
        if data[body_end:body_end + len(_TRAILER)] != _TRAILER:
            return result(
                "corrupt", f"frame at byte {pos} has no #END trailer"
            )
        if kind == "commit":
            expected_crc = _crc(seq, generation, body)
        else:
            expected_crc = _crc_2pc(
                kind, txid or "", verdict or "", seq, generation, body
            )
        if expected_crc != crc:
            return result(
                "corrupt", f"checksum mismatch in frame at byte {pos}"
            )
        if current_gen is not None and generation != current_gen:
            return result(
                "corrupt",
                f"generation changes mid-journal at byte {pos} "
                f"({current_gen} -> {generation})",
            )
        if expect_generation is not None and generation > expect_generation:
            return result(
                "corrupt",
                f"frame at byte {pos} has generation {generation} newer "
                f"than the snapshot's {expect_generation}",
            )
        if expected_seq is not None and seq != expected_seq:
            return result(
                "corrupt",
                f"sequence gap at byte {pos}: expected seq={expected_seq}, "
                f"found seq={seq}",
            )
        # 2PC discipline: the appender never starts a new frame while a
        # prepare is undecided, so an undecided prepare can only be the
        # very last frame; a decide must answer the pending prepare.
        if kind == "decide":
            if pending_txid is None:
                return result(
                    "corrupt",
                    f"decide frame at byte {pos} has no pending prepare",
                )
            if txid != pending_txid:
                return result(
                    "corrupt",
                    f"decide frame at byte {pos} answers txid={txid}, but "
                    f"the pending prepare is txid={pending_txid}",
                )
            pending_txid = None
        else:
            if pending_txid is not None:
                return result(
                    "corrupt",
                    f"frame at byte {pos} follows an undecided prepare "
                    f"(txid={pending_txid})",
                )
            if kind == "prepare":
                pending_txid = txid
        current_gen = generation
        expected_seq = seq + 1
        frame_length = (body_end + len(_TRAILER)) - pos
        records.append(
            WalRecord(
                seq, generation, body.decode("utf-8"), pos, frame_length,
                kind, txid, verdict,
            )
        )
        pos = body_end + len(_TRAILER)
    return result("clean")


def resolve_decided(
    records: List[WalRecord],
) -> Tuple[List[WalRecord], Optional[WalRecord]]:
    """Fold 2PC pairs out of a scanned record list.

    Returns ``(visible, pending)``: ``visible`` is the list of records
    whose payloads a consumer should replay, in order — ordinary commit
    frames plus every prepare whose decide frame says ``commit`` —
    and ``pending`` is the trailing undecided prepare (``None`` when
    every frame is decided).  An aborted prepare and both halves' decide
    frames simply vanish from ``visible``.  :func:`scan` has already
    enforced that prepares and decides pair up, so this never guesses.
    """
    visible: List[WalRecord] = []
    pending: Optional[WalRecord] = None
    for record in records:
        if record.kind == "prepare":
            pending = record
        elif record.kind == "decide":
            if record.verdict == "commit" and pending is not None:
                visible.append(pending)
            pending = None
        else:
            visible.append(record)
    return visible, pending


def verify_stream(data: bytes, generation: int, start_seq: int) -> List[WalRecord]:
    """Validate raw frame bytes against the replication-stream contract.

    A frames batch shipped to a replica must be an exact byte slice of
    the primary's journal: a clean scan (no torn or corrupt tail, no
    trailing bytes), every frame stamped ``generation``, sequence
    numbers contiguous from ``start_seq``, and no undecided prepare —
    in-doubt 2PC state never leaves the primary, so a decided pair
    arrives as adjacent ``#PREPARE``/``#DECIDE`` frames or not at all.
    Returns the scanned records; raises :class:`ValueError` with the
    violated rule otherwise.
    """
    scanned = scan(data, expect_generation=generation)
    if scanned.tail_state != "clean":
        raise ValueError(
            f"stream batch is not a clean frame slice: {scanned.tail_state}"
            f" ({scanned.tail_reason})"
        )
    if not scanned.records:
        raise ValueError("stream batch carries no frames")
    first = scanned.records[0]
    if first.seq != start_seq:
        raise ValueError(
            f"stream batch starts at seq {first.seq}, expected {start_seq}"
        )
    for record in scanned.records:
        if record.generation != generation:
            raise ValueError(
                f"stream batch frame seq {record.seq} is generation"
                f" {record.generation}, expected {generation}"
            )
    _, pending = resolve_decided(scanned.records)
    if pending is not None:
        raise ValueError(
            f"stream batch ends in undecided prepare {pending.txid!r};"
            " in-doubt 2PC frames must stay on the primary"
        )
    return scanned.records


# ----------------------------------------------------------------------
# snapshot header
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SnapshotHeader:
    """What a snapshot's first line says about the state it holds."""

    generation: int
    #: The journal frontier (frame seq of generation ``generation - 1``)
    #: this snapshot folds, when a compaction — the primary's or a
    #: follower's local fold — wrote it; ``None`` otherwise (``create``,
    #: a follower's installed copy of a snapshot without one).  It lets
    #: a replication shipper prove that a follower standing at
    #: ``(generation - 1, folds)`` already holds exactly this state.
    folds: Optional[int] = None


def encode_snapshot(
    generation: int, ldif_text: str, folds: Optional[int] = None
) -> str:
    """Prefix LDIF content with the header comment (the LDIF parser
    skips ``#`` lines, so the snapshot stays a valid LDIF file)."""
    proof = "" if folds is None else f" folds={folds}"
    return f"# repro-store snapshot gen={generation} format=1{proof}\n{ldif_text}"


def parse_header(first_line: str, path: str) -> SnapshotHeader:
    """The header a snapshot's first line carries — the O(1) probe a
    reader uses to notice a compaction without decoding the snapshot.
    A first line that is no header is damage: :class:`StoreError`
    naming ``path``."""
    match = _SNAPSHOT_HEADER_RE.match(first_line)
    if match is None:
        raise StoreError(
            f"{path} does not begin with a snapshot header (first line "
            f"{first_line[:60]!r}); it is damaged or was not written by "
            "this store"
        )
    folds = match.group(2)
    return SnapshotHeader(int(match.group(1)), None if folds is None else int(folds))


def decode_snapshot(text: str, path: str) -> Tuple[SnapshotHeader, str]:
    """Split a snapshot file into its header and its LDIF text."""
    first, _, rest = text.partition("\n")
    return parse_header(first, path), rest


# ----------------------------------------------------------------------
# the I/O layer (fault-injection seam)
# ----------------------------------------------------------------------
class StoreIO:
    """Every filesystem operation the store performs, as overridable
    methods.  :class:`repro.store.faults.FaultyIO` substitutes versions
    that crash, tear writes, or fail at planned points."""

    def open_bytes(self, path: str, mode: str):
        """Open ``path`` in binary ``mode``."""
        return open(path, mode)

    def open_text(self, path: str, mode: str):
        """Open ``path`` in text ``mode`` as UTF-8."""
        return open(path, mode, encoding="utf-8")

    def fsync(self, handle) -> None:
        """Flush and fsync an open file handle."""
        handle.flush()
        os.fsync(handle.fileno())

    def replace(self, src: str, dst: str) -> None:
        """Atomically replace ``dst`` with ``src``."""
        os.replace(src, dst)

    def rename(self, src: str, dst: str) -> None:
        """Rename ``src`` to ``dst`` (``dst`` must not exist)."""
        os.rename(src, dst)

    def fault_point(self, name: str) -> None:
        """A named protocol step (e.g. ``2pc:decision``): a no-op here,
        but :class:`repro.store.faults.FaultyIO` counts it as one
        operation and can crash exactly there, so the crash harness can
        kill the 2PC coordinator at every step *by name* instead of
        hunting for the right raw-I/O index."""

    def fsync_dir(self, path: str) -> None:
        """Fsync a directory so renames within it are durable."""
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-dependent
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    # -- convenience wrappers used by the store ------------------------
    def write_file_atomic(self, path: str, data: bytes) -> None:
        """Write ``data`` to ``path`` via a same-directory temp file and
        an atomic rename, fsyncing both file and directory."""
        temp = path + ".tmp"
        with self.open_bytes(temp, "wb") as handle:
            handle.write(data)
            self.fsync(handle)
        self.replace(temp, path)
        self.fsync_dir(os.path.dirname(path) or ".")

    def append_bytes(self, path: str, data: bytes) -> None:
        """Append ``data`` to ``path`` and fsync before returning."""
        with self.open_bytes(path, "ab") as handle:
            handle.write(data)
            self.fsync(handle)

    def read_bytes(self, path: str) -> bytes:
        """Read ``path`` fully as bytes."""
        with self.open_bytes(path, "rb") as handle:
            return handle.read()

    def read_bytes_from(self, path: str, offset: int) -> bytes:
        """Read ``path`` from byte ``offset`` to the end — the journal
        tail a reader follows, so refresh I/O is O(new bytes), not
        O(journal)."""
        with self.open_bytes(path, "rb") as handle:
            handle.seek(offset)
            return handle.read()

    def read_head(self, path: str) -> str:
        """The first line of ``path`` without its newline (the cheap
        snapshot-generation probe)."""
        with self.open_text(path, "r") as handle:
            return handle.readline().rstrip("\n")

    def read_text(self, path: str) -> str:
        """Read ``path`` fully as UTF-8 text."""
        with self.open_text(path, "r") as handle:
            return handle.read()
