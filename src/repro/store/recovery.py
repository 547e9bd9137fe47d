"""Crash recovery: scan the WAL, quarantine damage, verify legality.

Recovery is the reader half of the durability contract.  Its job after
an unclean shutdown:

1. **Decode the snapshot** and its generation id.
2. **Scan the journal** (:func:`repro.store.wal.scan`): decode the
   committed prefix, classify the tail as clean / torn / corrupt.
3. **Discard stale generations**: records whose generation predates the
   snapshot's were already folded in by a compaction that crashed before
   resetting the journal — replaying them would double-apply every
   transaction (the seed store's bug).  They are dropped, not replayed.
4. **Replay blindly**: committed records re-apply without re-running the
   legality guard.  Theorem 4.1's modularity justifies this — each
   journaled transaction was checked subtree-by-subtree against the
   state it committed on, and replay reproduces exactly those states in
   exactly that order (see ``docs/paper_mapping.md``).
5. **Quarantine, never silently drop**: torn or corrupt tail bytes are
   appended to ``journal.quarantine`` and the journal is atomically
   truncated to the committed prefix, so a post-mortem can always see
   what was lost.
6. **Verify**: the recovered instance is checked against the schema; a
   violation (which blind replay should make impossible — its presence
   means on-disk damage the checksums did not catch) degrades the store
   to read-only rather than refusing to open.

A *torn* tail is the expected artifact of crash-during-append and is
repaired automatically; the store stays writable.  *Corruption* (a
checksum or sequence failure, foreign bytes mid-journal, a record that
fails to replay) degrades the store to read-only and leaves the journal
untouched until an explicit :func:`recover` run with ``force=True``
(CLI: ``recover``) quarantines the damage.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import (
    CorruptJournalError,
    DuplicateEntryError,
    LdifError,
    StaleJournalError,
    StoreError,
)
from repro.ldif.changes import parse_changes
from repro.ldif.reader import parse_ldif
from repro.legality.engine import CheckSession
from repro.model.attributes import AttributeRegistry
from repro.model.instance import DirectoryInstance
from repro.schema.directory_schema import DirectorySchema
from repro.store import wal
from repro.store.wal import StoreIO
from repro.updates.operations import UpdateTransaction

__all__ = [
    "RecoveryReport",
    "scan_store",
    "recover",
    "parse_record",
    "replay_change",
    "replay_transaction",
]

SNAPSHOT_FILE = "snapshot.ldif"
JOURNAL_FILE = "journal.ldif"
QUARANTINE_FILE = "journal.quarantine"
LOCK_FILE = "lock"
#: Where older stores persisted the postings of :mod:`repro.store.index`,
#: the legality session's verdicts, and an advisory copy of the snapshot
#: header's fields.  Nothing reads them: every open derives postings and
#: verdicts from its instance, the header describes its generation, and
#: the next compaction deletes a leftover file.
LEFTOVER_FILES = ("indexes.cache", "verdicts.cache", "manifest")
#: Replication-follower state (:mod:`repro.store.replicate`): the
#: upstream address and the schema fingerprint it streams under.
#: Advisory — the snapshot/journal stay the single source of truth, the
#: state file only tells ``fsck`` and a restarted applier where the copy
#: came from.  ``promote`` removes it.
REPLICA_STATE_FILE = "replica.state"


@dataclass
class RecoveryReport:
    """Structured result of a recovery (or ``fsck`` dry-run) pass."""

    directory: str
    generation: int = 0
    committed: int = 0  # decodable current-generation records
    replayed: int = 0  # records actually re-applied onto the snapshot
    stale_discarded: int = 0  # old-generation records dropped (compaction crash)
    tail_state: str = "clean"  # "clean" | "torn" | "corrupt"
    tail_bytes: int = 0  # damaged bytes past the safe prefix
    quarantined_bytes: int = 0  # total bytes sitting in journal.quarantine
    repaired: bool = False  # files were rewritten (quarantine + truncate)
    read_only: bool = False  # damage requires operator attention
    legal: Optional[bool] = None  # None = not verified (no schema given)
    #: Sequence number of the last frame kept in the journal (0 when
    #: empty).  With 2PC pairs this is *frames*, not transactions:
    #: a decided prepare/decide pair advances it by two.
    last_seq: int = 0
    #: A prepared-but-undecided 2PC transaction at the journal tail —
    #: the in-doubt state only the coordinator log can resolve.
    in_doubt_txid: Optional[str] = None
    #: The in-doubt prepare's payload (LDIF changes), kept so resolution
    #: can replay it if the coordinator's decision was commit.
    in_doubt_payload: Optional[str] = None
    notes: List[str] = field(default_factory=list)

    @property
    def healthy(self) -> bool:
        """No damage found (torn/corrupt tail, stale records, illegality,
        in-doubt 2PC state)."""
        return (
            self.tail_state == "clean"
            and self.stale_discarded == 0
            and not self.read_only
            and self.legal is not False
            and self.in_doubt_txid is None
        )

    def summary(self) -> str:
        """Human-readable multi-line report (the ``fsck`` output)."""
        lines = [
            f"store: {self.directory}",
            "format: wal v1",
            f"generation: {self.generation}",
            f"committed records: {self.committed}",
            f"stale records discarded: {self.stale_discarded}",
            f"tail: {self.tail_state}"
            + (f" ({self.tail_bytes} bytes)" if self.tail_bytes else ""),
            f"quarantined bytes: {self.quarantined_bytes}",
        ]
        if self.legal is not None:
            lines.append(f"legality: {'legal' if self.legal else 'ILLEGAL'}")
        lines.append(
            f"mode: {'read-only (degraded)' if self.read_only else 'read-write'}"
        )
        if self.in_doubt_txid is not None:
            lines.append(f"in-doubt 2PC transaction: {self.in_doubt_txid}")
        lines.extend(f"note: {note}" for note in self.notes)
        return "\n".join(lines)


def _paths(directory: str) -> Tuple[str, str, str]:
    return (
        os.path.join(directory, SNAPSHOT_FILE),
        os.path.join(directory, JOURNAL_FILE),
        os.path.join(directory, QUARANTINE_FILE),
    )


#: A journal payload is either an LDIF *changes* document (add/delete
#: frames) or an RFC 2849 *modify* document; the changetype line — which
#: the payload serializers always emit unfolded — tells them apart.
_MODIFY_PAYLOAD = re.compile(r"^changetype:\s*modify\s*$", re.MULTILINE)


def replay_transaction(instance: DirectoryInstance, transaction) -> None:
    """Blindly re-apply an insert/delete transaction onto ``instance``,
    decomposed into subtree updates per Theorem 4.1."""
    from repro.updates.transactions import apply_subtree_update, decompose

    for step in decompose(transaction, instance):
        apply_subtree_update(instance, step)


def replay_change(instance: DirectoryInstance, change) -> None:
    """Blindly re-apply a parsed change — an
    :class:`~repro.updates.operations.UpdateTransaction` or a list of
    :class:`~repro.ldif.modify.ModifyRecord`, the two forms
    :func:`parse_record` returns — onto ``instance``."""
    if isinstance(change, UpdateTransaction):
        replay_transaction(instance, change)
        return
    from repro.ldif.modify import apply_modify_blind

    for modify in change:
        apply_modify_blind(instance, modify)


def parse_record(record: wal.WalRecord):
    """The change one committed journal record carries, in the form
    :func:`replay_change` takes.  Two payload forms exist: insert/delete
    transactions (the paper's update model) and in-place ``modify``
    records (this library's journaled extension).  Shared by crash
    recovery and the WAL-following reader (:mod:`repro.store.reader`),
    so both stop at the same frame on the same damage."""
    if _MODIFY_PAYLOAD.search(record.payload):
        from repro.ldif.modify import parse_modifications

        return parse_modifications(record.payload)
    return parse_changes(record.payload)


def scan_store(
    directory: str, io: Optional[StoreIO] = None
) -> Tuple[int, str, wal.ScanResult, bytes]:
    """Read and decode the store's files without replaying anything.

    Returns ``(generation, snapshot_ldif, scan_result, journal_bytes)``;
    a snapshot without its header raises :class:`StoreError`.
    """
    io = io if io is not None else StoreIO()
    snapshot_path, journal_path, _ = _paths(directory)
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"{directory!r} is not a store directory")
    if not os.path.exists(snapshot_path):
        raise FileNotFoundError(f"{directory!r} has no {SNAPSHOT_FILE}")
    header, ldif_text = wal.decode_snapshot(
        io.read_text(snapshot_path), snapshot_path
    )
    generation = header.generation
    if not os.path.exists(journal_path):
        empty = wal.ScanResult([], 0, "clean", total=0)
        return generation, ldif_text, empty, b""
    data = io.read_bytes(journal_path)
    return generation, ldif_text, wal.scan(data, expect_generation=generation), data


def _quarantine_and_truncate(
    directory: str,
    io: StoreIO,
    journal_bytes: bytes,
    keep_upto: int,
    reason: str,
    report: RecoveryReport,
) -> None:
    """Move the bytes past the safe prefix into ``journal.quarantine``
    and atomically truncate the journal to that prefix."""
    _, journal_path, quarantine_path = _paths(directory)
    tail = journal_bytes[keep_upto:]
    if tail:
        header = (
            f"# quarantined {len(tail)} bytes from {JOURNAL_FILE} "
            f"offset {keep_upto} ({reason})\n"
        ).encode("utf-8")
        io.append_bytes(quarantine_path, header + tail + b"\n")
    io.write_file_atomic(journal_path, journal_bytes[:keep_upto])
    report.repaired = True
    report.notes.append(f"quarantined {len(tail)} byte(s): {reason}")


def recover(
    directory: str,
    schema: Optional[DirectorySchema] = None,
    registry: Optional[AttributeRegistry] = None,
    *,
    io: Optional[StoreIO] = None,
    repair: bool = True,
    force: bool = False,
    strict: bool = False,
) -> Tuple[DirectoryInstance, RecoveryReport]:
    """Recover a store directory to its last committed state.

    Parameters
    ----------
    repair:
        Rewrite the files (quarantine torn tails, reset stale
        journals).  ``repair=False`` is the ``fsck`` dry-run: report
        what recovery *would* do, touch nothing.
    force:
        Also repair *corrupt* (not merely torn) journals, keeping the
        replayable prefix.  Without it, corruption leaves the journal
        untouched as evidence and the report flags read-only mode.
    strict:
        Raise :class:`~repro.errors.CorruptJournalError` /
        :class:`~repro.errors.StaleJournalError` on damage instead of
        degrading.

    Returns the recovered instance and the :class:`RecoveryReport`.
    """
    io = io if io is not None else StoreIO()
    report = RecoveryReport(directory)
    generation, ldif_text, scanned, journal_bytes = scan_store(directory, io)
    report.generation = generation
    report.tail_state = scanned.tail_state
    report.tail_bytes = scanned.tail_bytes

    # Partition records into replayable (current generation) and stale.
    replayable = [r for r in scanned.records if r.generation == generation]
    stale = [r for r in scanned.records if r.generation != generation]
    if stale and replayable:  # scan() forbids this; be defensive anyway
        report.tail_state = "corrupt"
        report.notes.append("journal mixes generations; replaying none of it")
        replayable = []
    # Fold 2PC pairs: only decided-commit prepares (and ordinary frames)
    # are visible; an undecided prepare at the tail is *in doubt* — its
    # bytes stay on disk and its payload is withheld until the
    # coordinator log resolves it.
    visible, pending = wal.resolve_decided(replayable)
    report.committed = len(visible)
    report.stale_discarded = len(stale)
    if stale:
        if strict:
            raise StaleJournalError(
                f"journal generation {stale[0].generation} predates snapshot "
                f"generation {generation}: a compaction crashed before "
                f"resetting the journal ({len(stale)} already-applied "
                "record(s) must be discarded, not replayed)"
            )
        report.notes.append(
            f"discarded {len(stale)} stale record(s) of generation "
            f"{stale[0].generation} (snapshot is at {generation}); they were "
            "already folded into the snapshot by a compaction that crashed "
            "before resetting the journal"
        )

    if scanned.tail_state == "corrupt" and strict:
        raise CorruptJournalError(
            f"journal damaged at byte {scanned.tail_offset}: "
            f"{scanned.tail_reason}",
            record_index=len(scanned.records),
            offset=scanned.tail_offset,
        )

    # Parse the snapshot.  A snapshot written before DN resolution
    # became case-insensitive can hold two DNs that differ only in
    # case — previously distinct entries that now collide.  Surface
    # that as an explicit migration error naming both spellings (the
    # DuplicateEntryError message carries them) instead of a generic
    # parse failure.
    try:
        instance = parse_ldif(ldif_text, attributes=registry)
    except LdifError as exc:
        if isinstance(exc.__cause__, DuplicateEntryError):
            raise StoreError(
                f"snapshot of {directory!r} holds entries whose DNs "
                f"collide under case-insensitive matching: "
                f"{exc.__cause__}.  This store predates case-folded DN "
                "resolution; migrate it by renaming one of the "
                f"colliding entries in {SNAPSHOT_FILE} before reopening."
            ) from exc
        raise

    # Blind replay of the committed prefix (Theorem 4.1 modularity).
    replay_failed_at: Optional[int] = None
    for index, record in enumerate(visible):
        try:
            replay_change(instance, parse_record(record))
        except Exception as exc:
            if strict:
                raise CorruptJournalError(
                    f"journal record {index} failed to replay: {exc}",
                    record_index=index,
                    offset=record.offset,
                ) from exc
            replay_failed_at = index
            report.notes.append(
                f"record {index} failed to replay ({exc}); treating it and "
                "everything after it as corrupt"
            )
            if isinstance(exc, DuplicateEntryError):
                report.notes.append(
                    "the collision is between DN spellings that differ "
                    "only in case: this journal predates case-folded DN "
                    "resolution — rename one of the spellings named "
                    "above to migrate"
                )
            break
    if replay_failed_at is not None:
        report.tail_state = "corrupt"
        report.committed = replay_failed_at
        failed = visible[replay_failed_at]
        report.tail_bytes = scanned.total - failed.offset
        replayable = [r for r in replayable if r.end <= failed.offset]
        visible = visible[:replay_failed_at]
        pending = None  # anything undecided sits past the damage
    report.replayed = len(visible)

    # The journal prefix that is safe to keep on disk: every byte up to
    # the end of the last decodable frame — including an in-doubt
    # prepare, whose bytes must survive for the coordinator's decision
    # to land against (stale journals keep nothing — their content is
    # already in the snapshot).
    keep_upto = replayable[-1].end if replayable else 0
    report.last_seq = replayable[-1].seq if replayable else 0
    if pending is not None:
        report.in_doubt_txid = pending.txid
        report.in_doubt_payload = pending.payload
        report.notes.append(
            f"in-doubt 2PC transaction {pending.txid}: prepared but "
            "undecided; the coordinator log decides it (open the sharded "
            "store, or run `recover` on its root)"
        )
    corrupt = report.tail_state == "corrupt"

    if repair:
        if stale and not corrupt:
            io.write_file_atomic(_paths(directory)[1], b"")
            report.repaired = True
            report.notes.append("journal reset (stale generation discarded)")
        elif report.tail_state == "torn":
            _quarantine_and_truncate(
                directory, io, journal_bytes, keep_upto,
                f"torn tail: {scanned.tail_reason}", report,
            )
        elif corrupt and force:
            _quarantine_and_truncate(
                directory, io, journal_bytes, keep_upto,
                f"corrupt tail: {scanned.tail_reason or 'replay failure'}",
                report,
            )
            report.notes.append(
                "corrupt tail quarantined by explicit recover; the store is "
                "writable again on next open"
            )
            corrupt = False

    report.read_only = corrupt

    # Verify the recovered instance when a schema is available.
    if schema is not None:
        verdict = CheckSession(schema).check(instance)
        report.legal = verdict.is_legal
        if not verdict.is_legal:
            report.read_only = True
            report.notes.append(
                f"recovered instance violates the schema "
                f"({len(verdict)} violation(s)); blind replay should make "
                "this impossible — suspect snapshot damage"
            )
            for violation in list(verdict)[:3]:
                report.notes.append(f"  {violation}")

    quarantine_path = _paths(directory)[2]
    if os.path.exists(quarantine_path):
        report.quarantined_bytes = os.path.getsize(quarantine_path)

    if os.path.exists(os.path.join(directory, REPLICA_STATE_FILE)):
        report.notes.append(
            "replica state present: this store is a replication follower "
            "(promote it before writing, or resume `replicate` to keep "
            "following)"
        )

    return instance, report
