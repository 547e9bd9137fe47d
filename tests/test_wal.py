"""Unit tests for the WAL frame format, the snapshot header, and the
typed recovery errors."""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    CorruptJournalError,
    ReplicationError,
    StaleJournalError,
    StoreError,
)
from repro.store import DirectoryStore
from repro.store.recovery import recover
from repro.store.replicate import (
    decode_stream_message,
    encode_frames_message,
    encode_schema_message,
    encode_snapshot_message,
)
from repro.store.wal import (
    SnapshotHeader,
    decode_snapshot,
    encode_decide,
    encode_prepare,
    encode_record,
    encode_snapshot,
    resolve_decided,
    scan,
    verify_stream,
)
from repro.updates.operations import UpdateTransaction
from repro.workloads import figure1_instance, whitepages_registry, whitepages_schema

PAYLOAD = "dn: ou=x,o=att\nchangetype: add\nobjectClass: orgUnit\nou: x\n"


class TestFrameFormat:
    def test_roundtrip_single_record(self):
        frame = encode_record(1, 7, PAYLOAD)
        result = scan(frame)
        assert result.tail_state == "clean"
        assert len(result.records) == 1
        record = result.records[0]
        assert (record.seq, record.generation) == (1, 7)
        assert record.payload == PAYLOAD
        assert record.end == len(frame)

    def test_roundtrip_many_records(self):
        data = b"".join(
            encode_record(i + 1, 3, PAYLOAD + f"# tx {i}\n") for i in range(5)
        )
        result = scan(data)
        assert result.tail_state == "clean"
        assert [r.seq for r in result.records] == [1, 2, 3, 4, 5]
        assert result.tail_offset == len(data)

    def test_payload_gets_trailing_newline(self):
        frame = encode_record(1, 1, "dn: ou=x,o=att")
        assert scan(frame).records[0].payload == "dn: ou=x,o=att\n"

    def test_length_prefix_protects_marker_lookalikes(self):
        """Payload lines that look like frame delimiters are data: the
        scanner reads exact byte counts, it never pattern-matches."""
        tricky = "dn: ou=x,o=att\ndescription: #END\ndescription: #WAL seq=1\n"
        data = encode_record(1, 1, tricky) + encode_record(2, 1, PAYLOAD)
        result = scan(data)
        assert result.tail_state == "clean"
        assert len(result.records) == 2
        assert result.records[0].payload == tricky

    def test_checksum_failure_is_corrupt(self):
        frame = bytearray(encode_record(1, 1, PAYLOAD))
        frame[frame.find(b"\n") + 3] ^= 0x01
        result = scan(bytes(frame))
        assert result.tail_state == "corrupt"
        assert "checksum" in result.tail_reason
        assert result.records == []

    def test_sequence_gap_is_corrupt(self):
        data = encode_record(1, 1, PAYLOAD) + encode_record(3, 1, PAYLOAD)
        result = scan(data)
        assert result.tail_state == "corrupt"
        assert "sequence gap" in result.tail_reason
        assert len(result.records) == 1  # the good prefix survives

    def test_generation_change_mid_journal_is_corrupt(self):
        data = encode_record(1, 1, PAYLOAD) + encode_record(2, 2, PAYLOAD)
        assert scan(data).tail_state == "corrupt"

    def test_newer_generation_than_snapshot_is_corrupt(self):
        data = encode_record(1, 9, PAYLOAD)
        assert scan(data, expect_generation=2).tail_state == "corrupt"
        assert scan(data, expect_generation=9).tail_state == "clean"

    def test_truncation_is_torn_not_corrupt(self):
        frame = encode_record(1, 1, PAYLOAD)
        for cut in range(1, len(frame)):
            result = scan(frame[:cut])
            assert result.tail_state == "torn", f"cut at {cut}"
            assert result.records == []
            assert result.tail_bytes == cut

    def test_foreign_complete_lines_are_corrupt(self):
        data = encode_record(1, 1, PAYLOAD) + b"dn: ou=evil,o=att\n"
        result = scan(data)
        assert result.tail_state == "corrupt"
        assert len(result.records) == 1


class Test2PCFrames:
    """The ``#PREPARE``/``#DECIDE`` frame pair and the scan discipline
    that keeps in-doubt state out of every reader."""

    def test_prepare_decide_roundtrip(self):
        data = (
            encode_prepare("tx-1", 1, 3, PAYLOAD)
            + encode_decide("tx-1", "commit", 2, 3)
        )
        result = scan(data)
        assert result.tail_state == "clean"
        prepare, decide = result.records
        assert (prepare.kind, prepare.txid, prepare.seq) == ("prepare", "tx-1", 1)
        assert prepare.payload == PAYLOAD
        assert (decide.kind, decide.txid, decide.verdict) == (
            "decide", "tx-1", "commit",
        )

    def test_undecided_prepare_is_clean_only_as_last_frame(self):
        data = encode_record(1, 1, PAYLOAD) + encode_prepare("tx-9", 2, 1, PAYLOAD)
        result = scan(data)
        assert result.tail_state == "clean"
        assert result.records[-1].kind == "prepare"
        # ... but any frame AFTER an undecided prepare is corruption:
        # the appender never starts a new frame while one is pending.
        overrun = data + encode_record(3, 1, PAYLOAD)
        result = scan(overrun)
        assert result.tail_state == "corrupt"
        assert "undecided prepare" in result.tail_reason

    def test_decide_without_pending_prepare_is_corrupt(self):
        data = encode_record(1, 1, PAYLOAD) + encode_decide("tx-1", "commit", 2, 1)
        result = scan(data)
        assert result.tail_state == "corrupt"
        assert "no pending prepare" in result.tail_reason

    def test_decide_for_wrong_txid_is_corrupt(self):
        data = (
            encode_prepare("tx-1", 1, 1, PAYLOAD)
            + encode_decide("tx-2", "commit", 2, 1)
        )
        result = scan(data)
        assert result.tail_state == "corrupt"
        assert "tx-2" in result.tail_reason and "tx-1" in result.tail_reason

    def test_torn_prepare_is_torn_not_corrupt(self):
        frame = encode_prepare("tx-1", 1, 1, PAYLOAD)
        for cut in range(1, len(frame)):
            result = scan(frame[:cut])
            assert result.tail_state == "torn", f"cut at {cut}"
            assert result.records == []

    def test_prepare_checksum_covers_txid(self):
        frame = bytearray(encode_prepare("tx-1", 1, 1, PAYLOAD))
        frame[frame.find(b"tx-1") + 3] = ord("7")  # tx-1 -> tx-7
        assert scan(bytes(frame)).tail_state == "corrupt"

    def test_resolve_decided_folds_pairs(self):
        data = (
            encode_record(1, 1, PAYLOAD)
            + encode_prepare("tx-1", 2, 1, PAYLOAD + "# committed tx\n")
            + encode_decide("tx-1", "commit", 3, 1)
            + encode_prepare("tx-2", 4, 1, PAYLOAD + "# aborted tx\n")
            + encode_decide("tx-2", "abort", 5, 1)
            + encode_prepare("tx-3", 6, 1, PAYLOAD + "# in doubt\n")
        )
        result = scan(data)
        assert result.tail_state == "clean"
        visible, pending = resolve_decided(result.records)
        # ordinary frame + the committed prepare; the aborted pair and
        # both decide frames vanish; the trailing prepare is in doubt.
        assert [r.seq for r in visible] == [1, 2]
        assert pending is not None and pending.txid == "tx-3"

    def test_invalid_verdict_rejected_at_encode_time(self):
        with pytest.raises(ValueError, match="verdict"):
            encode_decide("tx-1", "maybe", 1, 1)


class TestSnapshotHeader:
    def test_roundtrip(self):
        header, text = decode_snapshot(encode_snapshot(42, "dn: o=att\n"), "s")
        assert header == SnapshotHeader(42, folds=None)
        assert text == "dn: o=att\n"

    def test_fold_proof_roundtrip(self):
        text = encode_snapshot(3, "dn: o=att\n", folds=17)
        assert text.startswith("# repro-store snapshot gen=3 format=1 folds=17\n")
        assert decode_snapshot(text, "s") == (SnapshotHeader(3, 17), "dn: o=att\n")

    def test_missing_header_is_refused(self):
        with pytest.raises(StoreError, match="snapshot header") as excinfo:
            decode_snapshot("dn: o=att\nobjectClass: org\n", "/x/snapshot.ldif")
        assert "/x/snapshot.ldif" in str(excinfo.value)

    def test_header_is_an_ldif_comment(self):
        from repro.ldif.reader import parse_ldif_records

        text = encode_snapshot(3, "dn: o=att\nobjectClass: organization\n", folds=2)
        records = parse_ldif_records(text)
        assert len(records) == 1  # the header line parses as a comment


def _unit_tx(i=1):
    return UpdateTransaction().insert(
        f"ou=unit{i},o=att", ["orgUnit", "orgGroup", "top"],
        {"ou": [f"unit{i}"]},
    ).insert(
        f"uid=m{i},ou=unit{i},o=att", ["person", "top"],
        {"uid": [f"m{i}"], "name": [f"m {i}"]},
    )


class TestStrictErrors:
    def test_stale_journal_raises_in_strict_mode(self, tmp_path):
        path = str(tmp_path / "store")
        store = DirectoryStore.create(
            path, whitepages_schema(), figure1_instance()
        )
        assert store.apply(_unit_tx(1)).applied
        old_journal = open(os.path.join(path, "journal.ldif"), "rb").read()
        store.compact()
        open(os.path.join(path, "journal.ldif"), "wb").write(old_journal)
        store.close()
        with pytest.raises(StaleJournalError):
            recover(path, whitepages_schema(), whitepages_registry(),
                    strict=True)

    def test_replay_error_raises_typed_error_with_index(self, tmp_path):
        """Replay errors surface as CorruptJournalError with the
        offending record index, not an unhandled parse exception."""
        path = str(tmp_path / "store")
        with DirectoryStore.create(
            path, whitepages_schema(), figure1_instance()
        ) as store:
            assert store.apply(_unit_tx(1)).applied
        bad = "dn: ou=nope,o=att\nchangetype: frobnicate\n"
        with open(os.path.join(path, "journal.ldif"), "ab") as fh:
            fh.write(encode_record(2, 1, bad))
        with pytest.raises(CorruptJournalError) as excinfo:
            recover(path, whitepages_schema(), whitepages_registry(),
                    strict=True)
        assert excinfo.value.record_index == 1
        # lenient mode degrades instead, keeping the good prefix
        instance, report = recover(
            path, whitepages_schema(), whitepages_registry()
        )
        assert report.read_only
        assert report.replayed == 1
        assert instance.find("ou=unit1,o=att") is not None

    def test_corrupt_tail_raises_in_strict_mode(self, tmp_path):
        path = str(tmp_path / "store")
        DirectoryStore.create(
            path, whitepages_schema(), figure1_instance()
        ).close()
        with open(os.path.join(path, "journal.ldif"), "ab") as fh:
            fh.write(b"garbage line\n")
        with pytest.raises(CorruptJournalError) as excinfo:
            recover(path, whitepages_schema(), whitepages_registry(),
                    strict=True)
        assert excinfo.value.offset == 0
        assert excinfo.value.record_index == 0

    def test_missing_snapshot_raises(self, tmp_path):
        path = tmp_path / "store"
        path.mkdir()
        with pytest.raises(FileNotFoundError, match="snapshot"):
            recover(str(path), whitepages_schema())


# ----------------------------------------------------------------------
# Hypothesis round-trip properties: frames and the replication envelope
# ----------------------------------------------------------------------
_payloads = st.text(max_size=120)
_generations = st.integers(min_value=1, max_value=999)
_verdicts = st.sampled_from(["commit", "abort"])

#: One journal step: a plain commit frame, or an adjacent decided
#: ``#PREPARE``/``#DECIDE`` pair (the only shapes a committed journal
#: prefix — and therefore a replication frames batch — may contain).
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("commit"), _payloads),
        st.tuples(st.just("pair"), _payloads, _verdicts),
    ),
    min_size=1,
    max_size=8,
)


def _build_journal(generation, steps):
    """Deterministic journal bytes from a step list; returns the raw
    bytes, the last seq, and the payloads replay must surface."""
    data, seq, visible = b"", 0, []
    for index, step in enumerate(steps):
        expected = step[1] if step[1].endswith("\n") else step[1] + "\n"
        if step[0] == "commit":
            seq += 1
            data += encode_record(seq, generation, step[1])
            visible.append(expected)
        else:
            txid = f"tx-{index}"
            seq += 1
            data += encode_prepare(txid, seq, generation, step[1])
            seq += 1
            data += encode_decide(txid, step[2], seq, generation)
            if step[2] == "commit":
                visible.append(expected)
    return data, seq, visible


class TestFrameRoundTripProperties:
    @settings(max_examples=60, deadline=None)
    @given(generation=_generations, steps=_steps)
    def test_scan_round_trips_any_committed_journal(self, generation, steps):
        """encode → scan is lossless for every mix of commit frames and
        decided 2PC pairs: clean tail, contiguous seqs, exact payloads,
        and ``resolve_decided`` surfaces precisely the committed ones."""
        data, last_seq, visible = _build_journal(generation, steps)
        result = scan(data, expect_generation=generation)
        assert result.tail_state == "clean"
        assert [r.seq for r in result.records] == list(range(1, last_seq + 1))
        assert all(r.generation == generation for r in result.records)
        replay, pending = resolve_decided(result.records)
        assert pending is None
        assert [r.payload for r in replay] == visible

    @settings(max_examples=60, deadline=None)
    @given(generation=_generations, steps=_steps)
    def test_frames_envelope_round_trips_through_json(self, generation, steps):
        """The ``frames`` stream message survives the wire's JSON hop
        byte-for-byte, and its payload passes ``verify_stream`` — the
        exact validation a replica applies before appending."""
        data, last_seq, _ = _build_journal(generation, steps)
        message = json.loads(
            json.dumps(encode_frames_message(generation, 1, data))
        )
        decoded = decode_stream_message(message)
        assert decoded.kind == "frames"
        assert decoded.data == data
        assert [r.seq for r in decoded.records] == list(range(1, last_seq + 1))
        assert [r.seq for r in verify_stream(data, generation, 1)] == \
            [r.seq for r in decoded.records]

    @settings(max_examples=60, deadline=None)
    @given(generation=_generations, steps=_steps, payload=_payloads)
    def test_in_doubt_prepare_never_decodes(self, generation, steps, payload):
        """A batch ending in an undecided ``#PREPARE`` violates the
        stream contract on *both* ends: ``verify_stream`` and the
        envelope decoder refuse it — in-doubt 2PC state cannot reach a
        replica even through a buggy or malicious shipper."""
        data, last_seq, _ = _build_journal(generation, steps)
        data += encode_prepare("tx-hung", last_seq + 1, generation, payload)
        with pytest.raises(ValueError, match="in-doubt"):
            verify_stream(data, generation, 1)
        with pytest.raises(ReplicationError):
            decode_stream_message(encode_frames_message(generation, 1, data))

    @settings(max_examples=60, deadline=None)
    @given(generation=_generations, steps=_steps)
    def test_tampered_frames_message_is_refused(self, generation, steps):
        """Any single-character corruption of the ``data`` field trips
        the envelope checksum."""
        data, _, _ = _build_journal(generation, steps)
        message = encode_frames_message(generation, 1, data)
        text = message["data"]
        flipped = ("#" if text[0] != "#" else "%") + text[1:]
        with pytest.raises(ReplicationError):
            decode_stream_message({**message, "data": flipped})

    @settings(max_examples=60, deadline=None)
    @given(
        generation=_generations,
        crc=st.integers(min_value=0, max_value=2**32 - 1),
        base_seq=st.integers(min_value=0, max_value=10**6),
        folds=st.one_of(st.none(), st.integers(min_value=0, max_value=10**6)),
    )
    def test_schema_envelope_round_trips(self, generation, crc, base_seq, folds):
        message = json.loads(
            json.dumps(encode_schema_message(generation, crc, base_seq, folds))
        )
        decoded = decode_stream_message(message)
        assert decoded.kind == "schema"
        assert (decoded.generation, decoded.schema_crc) == (generation, crc)
        assert (decoded.base_seq, decoded.folds) == (base_seq, folds)

    @settings(max_examples=60, deadline=None)
    @given(
        generation=_generations,
        crc=st.integers(min_value=0, max_value=2**32 - 1),
        ldif=st.text(max_size=200),
    )
    def test_snapshot_envelope_round_trips(self, generation, crc, ldif):
        text = encode_snapshot(generation, ldif)
        message = json.loads(
            json.dumps(encode_snapshot_message(generation, crc, text))
        )
        decoded = decode_stream_message(message)
        assert decoded.kind == "snapshot"
        assert decoded.snapshot == text
        assert decode_snapshot(decoded.snapshot, "s") == (
            SnapshotHeader(generation), ldif
        )
