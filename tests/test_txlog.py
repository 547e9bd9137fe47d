"""Unit tests for the 2PC coordinator log: the presumed-abort decision
rule, torn-tail quarantine, corruption refusal, compaction, and the
incremental reader every follower of the log keeps (:class:`TxLogTail`),
held to a full re-read after every step."""

from __future__ import annotations

import os

import pytest

from repro.errors import StoreError
from repro.query.filter_parser import parse_filter
from repro.store.txlog import (
    TXLOG_FILE,
    TXLOG_QUARANTINE_FILE,
    TxLog,
    TxLogTail,
    inspect_txlog,
)


def log_path(tmp_path) -> str:
    return os.path.join(str(tmp_path), TXLOG_FILE)


class TestProtocol:
    def test_begin_commit_complete_roundtrip(self, tmp_path):
        log = TxLog.open(str(tmp_path))
        txid = log.begin(["att", "labs"])
        assert txid == "tx-1"
        assert log.verdict(txid) == "abort"  # no commit record yet
        log.commit(txid)
        assert log.verdict(txid) == "commit"
        log.complete(txid)
        assert log.verdict(txid) == "commit"
        assert not log.unfinished()
        # the decisions are durable: a fresh open agrees
        reopened = TxLog.open(str(tmp_path))
        assert reopened.verdict(txid) == "commit"
        assert not reopened.unfinished()
        assert reopened.states()[txid].participants == ("att", "labs")

    def test_abort_roundtrip(self, tmp_path):
        log = TxLog.open(str(tmp_path))
        txid = log.begin(["att", "labs"])
        log.abort(txid)
        log.complete(txid)
        assert TxLog.open(str(tmp_path)).verdict(txid) == "abort"

    def test_presumed_abort_for_unknown_and_undecided(self, tmp_path):
        log = TxLog.open(str(tmp_path))
        # a txid the log never heard of (its begin died with the crash)
        assert log.verdict("tx-404") == "abort"
        # a begin with no durable decision
        txid = log.begin(["att"])
        assert TxLog.open(str(tmp_path)).verdict(txid) == "abort"
        assert txid in TxLog.open(str(tmp_path)).unfinished()

    def test_txids_are_monotonic_across_reopens(self, tmp_path):
        log = TxLog.open(str(tmp_path))
        assert log.begin(["att"]) == "tx-1"
        assert log.begin(["labs"]) == "tx-2"
        assert TxLog.open(str(tmp_path)).begin(["att"]) == "tx-3"

    def test_recording_unknown_txid_raises(self, tmp_path):
        log = TxLog.open(str(tmp_path))
        with pytest.raises(StoreError, match="no transaction"):
            log.commit("tx-99")


class TestDamage:
    def test_torn_tail_quarantined_and_truncated(self, tmp_path):
        log = TxLog.open(str(tmp_path))
        txid = log.begin(["att", "labs"])
        log.commit(txid)
        log.complete(txid)
        with open(log_path(tmp_path), "ab") as fh:
            fh.write(b"#WAL seq=4 gen=1 le")  # torn mid-header
        reopened = TxLog.open(str(tmp_path))
        assert reopened.verdict(txid) == "commit"
        quarantine = os.path.join(str(tmp_path), TXLOG_QUARANTINE_FILE)
        assert os.path.exists(quarantine)
        with open(quarantine, "rb") as fh:
            assert b"torn tail" in fh.read()
        # the truncation is durable: the next open sees a clean log
        assert TxLog.open(str(tmp_path)).verdict(txid) == "commit"

    def test_corrupt_log_refuses_to_open(self, tmp_path):
        log = TxLog.open(str(tmp_path))
        log.begin(["att"])
        with open(log_path(tmp_path), "r+b") as fh:
            data = fh.read()
            fh.seek(data.find(b"crc=") + 6)
            fh.write(b"00")
        with pytest.raises(StoreError, match="corrupt"):
            TxLog.open(str(tmp_path))
        with pytest.raises(StoreError, match="corrupt"):
            inspect_txlog(str(tmp_path))

    def test_non_json_payload_is_typed_error(self, tmp_path):
        from repro.store import wal

        with open(log_path(tmp_path), "wb") as fh:
            fh.write(wal.encode_record(1, 1, "not json"))
        with pytest.raises(StoreError, match="not\\s+valid JSON"):
            TxLog.open(str(tmp_path))


class TestInspectAndCompact:
    def test_inspect_missing_log_is_none(self, tmp_path):
        assert inspect_txlog(str(tmp_path)) is None

    def test_inspect_tolerates_torn_tail_without_rewriting(self, tmp_path):
        log = TxLog.open(str(tmp_path))
        txid = log.begin(["att"])
        log.commit(txid)
        with open(log_path(tmp_path), "ab") as fh:
            fh.write(b"#WAL seq=9 gen=1 le")
        before = open(log_path(tmp_path), "rb").read()
        loaded = inspect_txlog(str(tmp_path))
        assert loaded is not None and loaded.verdict(txid) == "commit"
        assert open(log_path(tmp_path), "rb").read() == before
        assert not os.path.exists(
            os.path.join(str(tmp_path), TXLOG_QUARANTINE_FILE)
        )

    def test_compact_drops_finished_keeps_unfinished(self, tmp_path):
        log = TxLog.open(str(tmp_path))
        done = log.begin(["att", "labs"])
        log.commit(done)
        log.complete(done)
        pending = log.begin(["att"])
        log.compact()
        survivors = TxLog.open(str(tmp_path)).states()
        assert done not in survivors
        assert pending in survivors
        assert survivors[pending].state == "begin"
        assert survivors[pending].verdict == "abort"


# ----------------------------------------------------------------------
# the incremental reader
# ----------------------------------------------------------------------
def reread_txlog(root):
    """The reference the tail is held to: what reading the whole log
    again yields — one full scan, every payload decoded — as ``(
    generation, seq, next txid, {txid: (state, participants,
    history)})``, or ``None`` with no log.  A corrupt log raises
    ``StoreError`` naming the scan's byte offset."""
    import json

    from repro.store import wal

    path = os.path.join(root, TXLOG_FILE)
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        scanned = wal.scan(fh.read())
    if scanned.tail_state == "corrupt":
        raise StoreError(f"corrupt at byte {scanned.tail_offset}")
    generation, states, top = 1, {}, 0
    for record in scanned.records:
        body = json.loads(record.payload)
        txid, state = body["txid"], body["state"]
        participants = tuple(body.get("participants", ()))
        old = states.get(txid)
        if old is None:
            states[txid] = (state, participants, (state,))
        else:
            states[txid] = (state, participants or old[1], old[2] + (state,))
        generation = record.generation
        top = max(top, int(txid[3:]))
    seq = scanned.records[-1].seq if scanned.records else 0
    return generation, seq, top + 1, states


def tail_state(tail):
    """The same form, read off a :class:`TxLogTail` after a read."""
    states = tail.read()
    if states is None:
        return None
    return tail._generation, tail._seq, tail._max_txid + 1, {
        txid: (entry.state, entry.participants, tuple(entry.history))
        for txid, entry in states.items()
    }


class TestTail:
    """:class:`TxLogTail` folds only what was appended since its last
    read and always equals a full re-read."""

    def test_equals_a_full_reread_after_every_step(self, tmp_path):
        """A seeded random life of the log — begin / commit / abort /
        complete, compaction, a torn tail completed later, a torn tail
        that ``TxLog.open`` quarantines (a new file) — checked after
        every step against :func:`reread_txlog`."""
        import random

        from repro.store import wal

        root = str(tmp_path)
        rng = random.Random(29)
        log, tail = TxLog.open(root), TxLogTail(root)
        torn = None  # the frame whose first half sits on disk
        steps = []
        for _ in range(400):
            open_txids = sorted(log.unfinished())
            step = rng.choice(
                ["begin"] * 4 + ["commit", "abort", "complete"] * 3
                + ["compact", "torn", "quarantine"]
            )
            if torn is not None:
                # a torn tail is completed by the next write (the writer
                # was mid-append), or quarantined by a reopen
                step = rng.choice(["complete-torn", "quarantine"])
            if step == "begin":
                log.begin(rng.sample(["att", "labs", "ou"], rng.randint(1, 3)))
            elif step in ("commit", "abort", "complete") and open_txids:
                getattr(log, step)(rng.choice(open_txids))
            elif step == "compact":
                log.compact()
            elif step == "torn":
                txid = f"tx-{log._next_txid}"
                log._next_txid += 1
                torn = wal.encode_record(
                    log._seq + 1, log.generation,
                    TxLog._encode_payload(txid, "begin", ["att"]),
                )
                with open(log_path(tmp_path), "ab") as fh:
                    fh.write(torn[: len(torn) // 2])
            elif step == "complete-torn":
                with open(log_path(tmp_path), "ab") as fh:
                    fh.write(torn[len(torn) // 2:])
                torn = None
                log = TxLog.open(root)
            elif step == "quarantine":
                if torn is None:
                    with open(log_path(tmp_path), "ab") as fh:
                        fh.write(b"#WAL seq=")
                torn = None
                log = TxLog.open(root)
            steps.append(step)
            assert tail_state(tail) == reread_txlog(root), steps[-5:]
        for kind in ("compact", "complete-torn", "quarantine", "begin"):
            assert kind in steps

    def test_a_read_folds_only_the_new_records(self, tmp_path, monkeypatch):
        root = str(tmp_path)
        log, tail = TxLog.open(root), TxLogTail(root)
        for _ in range(50):
            txid = log.begin(["att", "labs"])
            log.commit(txid)
            log.complete(txid)
        decodes = _count_decodes(monkeypatch)
        tail.read()
        assert decodes() == 150
        txid = log.begin(["att", "labs"])
        log.commit(txid)
        tail.read()
        assert decodes() == 152
        tail.read()
        assert decodes() == 152

    def test_torn_tail_waits_for_the_next_read(self, tmp_path):
        from repro.store import wal

        root = str(tmp_path)
        log, tail = TxLog.open(root), TxLogTail(root)
        txid = log.begin(["att"])
        frame = wal.encode_record(
            2, 1, TxLog._encode_payload(txid, "commit", ())
        )
        with open(log_path(tmp_path), "ab") as fh:
            fh.write(frame[:10])
        assert tail.read()[txid].state == "begin"
        with open(log_path(tmp_path), "ab") as fh:
            fh.write(frame[10:])
        assert tail.read()[txid].state == "commit"

    def test_corruption_names_the_absolute_offset(self, tmp_path):
        """A damaged frame past the part already read raises with its
        offset in the file, not in the bytes this read fetched — the
        same offset a full re-read names."""
        root = str(tmp_path)
        log, tail = TxLog.open(root), TxLogTail(root)
        for _ in range(3):
            log.begin(["att"])
        tail.read()
        with open(log_path(tmp_path), "rb") as fh:
            damaged_at = len(fh.read())
        log.begin(["labs"])
        with open(log_path(tmp_path), "r+b") as fh:
            fh.seek(damaged_at + 40)  # inside the new frame's payload
            byte = fh.read(1)
            fh.seek(damaged_at + 40)
            fh.write(bytes([byte[0] ^ 0x01]))
        with pytest.raises(StoreError, match=f"corrupt at byte {damaged_at}"):
            reread_txlog(root)
        with pytest.raises(StoreError, match=f"corrupt at byte {damaged_at} "):
            tail.read()
        # and again on the next read: nothing was folded past the damage
        with pytest.raises(StoreError, match=f"corrupt at byte {damaged_at} "):
            tail.read()
        with pytest.raises(StoreError, match=f"corrupt at byte {damaged_at} "):
            inspect_txlog(root)

    def test_folded_bytes_are_not_reread(self, tmp_path):
        """The tail's contract, like a journal reader's: damage to bytes
        it already folded is seen by the next fresh read, not by it."""
        root = str(tmp_path)
        log, tail = TxLog.open(root), TxLogTail(root)
        first = log.begin(["att"])
        tail.read()
        with open(log_path(tmp_path), "r+b") as fh:
            fh.seek(40)
            byte = fh.read(1)
            fh.seek(40)
            fh.write(bytes([byte[0] ^ 0x01]))
        second = log.begin(["labs"])
        assert set(tail.read()) == {first, second}
        with pytest.raises(StoreError, match="corrupt at byte 0 "):
            TxLogTail(root).read()


def _count_decodes(monkeypatch):
    """Count :meth:`TxLog._decode_payload` calls from now on; returns a
    function reading the count."""
    calls = []
    decode = TxLog._decode_payload

    def counting(*args):
        calls.append(1)
        return decode(*args)

    monkeypatch.setattr(TxLog, "_decode_payload", staticmethod(counting))
    return lambda: len(calls)


@pytest.mark.parametrize("spanning", [10, 100, 1000])
def test_one_commit_costs_one_poll_of_three_decodes(tmp_path, monkeypatch, spanning):
    """After K spanning commits, the next one costs a follower's frame
    source one poll of at most three payload decodes (its begin, commit
    and complete records), and a primary's composite view one refresh of
    as many — at every K.  The K earlier transactions are written
    straight into the log: only its length matters here."""
    from repro.store import wal
    from repro.store.replicate import ShardedFrameSource, ShardedReplicaApplier, pump
    from repro.store.sharded import CompositeReader, ShardedStore
    from repro.updates.operations import UpdateTransaction
    from repro.workloads import figure1_instance, whitepages_registry, whitepages_schema

    schema, registry = whitepages_schema(), whitepages_registry()
    root = str(tmp_path / "primary")
    bases = {"att": "o=att", "labs": "ou=attLabs,o=att"}
    ShardedStore.create(root, schema, bases, figure1_instance(), registry).close()
    frames = []
    for index in range(1, spanning + 1):
        for state in ("begin", "commit", "complete"):
            frames.append(wal.encode_record(
                len(frames) + 1, 1, TxLog._encode_payload(
                    f"tx-{index}", state,
                    ["att", "labs"] if state == "begin" else (),
                ),
            ))
    with open(os.path.join(root, TXLOG_FILE), "wb") as fh:
        fh.write(b"".join(frames))
    with ShardedStore.open(root, schema, registry) as store, \
            CompositeReader.open(root, schema, registry) as view, \
            ShardedReplicaApplier(str(tmp_path / "cohort"), schema, registry) as cohort:
        source = ShardedFrameSource(root, schema)
        pump(source, cohort)
        view.refresh()
        tx = UpdateTransaction()
        tx.insert("uid=r1,o=att", ["person", "top"], {"uid": ["r1"], "name": ["r 1"]})
        tx.insert("uid=l1,ou=attLabs,o=att", ["person", "top"],
                  {"uid": ["l1"], "name": ["l 1"]})
        assert store.apply(tx).applied
        decodes = _count_decodes(monkeypatch)
        batch = source.poll()
        assert decodes() <= 3
        for message in batch:
            cohort.apply_message(message)
        assert cohort.consistent() and cohort.position() == store.position()
        before = decodes()
        view.refresh()
        assert decodes() - before <= 3
        assert view.position() == store.position()
        assert len(view.search(filter=parse_filter("(uid=l1)"))) == 1
