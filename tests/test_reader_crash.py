"""Crash-consistency matrix for the lock-free reader, its torn-frame
byte sweep, and its never-write guarantee.

The matrix kills the writer at every I/O boundary of the store
scenario in ``tests/harness/crash.py`` — the one the writer's
half runs on in ``tests/test_store_faults.py::TestCrashMatrix`` — and
asserts, per wreckage: the reader sees a committed prefix, agrees with
the recovery dry-run, writes nothing, and follows the writer's repair.

The byte sweep truncates, then corrupts, the newest WAL frame at every
byte position under a *live* reader, which must silently hold the
previous committed frame — the incremental mirror of the recovery
sweep in ``test_store_faults.py``.
"""

import os

from harness.crash import (
    run_matrix,
    snapshot_files,
    store_scenario,
    unit_tx,
    verify_reader,
)
from repro.ldif import serialize_ldif
from repro.store import DirectoryStore
from repro.store.recovery import JOURNAL_FILE
from repro.store.reader import StoreReader
from repro.store.wal import scan
from repro.workloads import figure1_instance, whitepages_registry, whitepages_schema


class TestReaderCrashMatrix:
    def test_reader_agrees_with_recovery_at_every_crash_point(self, tmp_path):
        run_matrix(tmp_path, store_scenario, verify_reader, least_ops=14)


class TestTornFrameByteSweep:
    """Satellite: every truncation and corruption point of the newest
    frame leaves a live reader silently pinned at the previous commit."""

    def _store_with_two_commits(self, tmp_path):
        path = str(tmp_path / "store")
        store = DirectoryStore.create(
            path, whitepages_schema(), figure1_instance(), whitepages_registry()
        )
        assert store.apply(unit_tx(1)).applied
        assert store.apply(unit_tx(2)).applied
        store.close()
        return path

    def test_truncation_sweep(self, tmp_path):
        path = self._store_with_two_commits(tmp_path)
        journal = os.path.join(path, JOURNAL_FILE)
        full = open(journal, "rb").read()
        records = scan(full).records
        assert len(records) == 2
        frame2 = records[1]

        with StoreReader.open(
            path, whitepages_schema(), whitepages_registry()
        ) as reader:
            assert reader.position() == (1, 2)
            full_state = serialize_ldif(reader.instance)

            # Pin a second reader at frame 1 and sweep every truncation
            # length of frame 2 under it.
            open(journal, "wb").write(full[: frame2.offset])
            with StoreReader.open(
                path, whitepages_schema(), whitepages_registry()
            ) as live:
                assert live.position() == (1, 1)
                pinned = serialize_ldif(live.instance)
                for cut in range(frame2.offset, len(full)):
                    open(journal, "wb").write(full[:cut])
                    result = live.refresh()
                    assert live.position() == (1, 1), f"cut at byte {cut}"
                    assert not result.advanced
                    assert not result.stale, f"cut at {cut}: {result.note}"
                    assert serialize_ldif(live.instance) == pinned
                # restoring the full frame resumes the follow exactly
                open(journal, "wb").write(full)
                result = live.refresh()
                assert result.frames_replayed == 1
                assert live.position() == (1, 2)
                assert serialize_ldif(live.instance) == full_state

    def test_corruption_sweep(self, tmp_path):
        path = self._store_with_two_commits(tmp_path)
        journal = os.path.join(path, JOURNAL_FILE)
        full = open(journal, "rb").read()
        records = scan(full).records
        frame2 = records[1]

        open(journal, "wb").write(full[: frame2.offset])
        with StoreReader.open(
            path, whitepages_schema(), whitepages_registry()
        ) as live:
            assert live.position() == (1, 1)
            pinned = serialize_ldif(live.instance)
            for pos in range(frame2.offset, len(full)):
                damaged = bytearray(full)
                damaged[pos] ^= 0xFF
                open(journal, "wb").write(bytes(damaged))
                result = live.refresh()
                # A flipped byte anywhere in the newest frame must never
                # advance the reader onto damaged content...
                assert live.position() == (1, 1), f"flip at byte {pos}"
                assert serialize_ldif(live.instance) == pinned
                assert not result.advanced, f"flip at byte {pos}"
                # ...and the journal must not be "repaired" by a reader.
                assert open(journal, "rb").read() == bytes(damaged)
                # reset for the next position
                open(journal, "wb").write(full[: frame2.offset])
                live.refresh()
            open(journal, "wb").write(full)
            live.refresh()
            assert live.position() == (1, 2)


class TestReaderNeverWrites:
    def test_reader_session_touches_no_file(self, tmp_path):
        path = str(tmp_path / "store")
        store = DirectoryStore.create(
            path, whitepages_schema(), figure1_instance(), whitepages_registry()
        )
        assert store.apply(unit_tx(1)).applied
        store.compact()  # a second generation too
        assert store.apply(unit_tx(2)).applied
        store.close()
        before = snapshot_files(path)
        with StoreReader.open(
            path, whitepages_schema(), whitepages_registry()
        ) as reader:
            reader.refresh()
            reader.check()
            reader.search()
            reader.lag()
        assert snapshot_files(path) == before
