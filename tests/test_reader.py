"""Unit tests for the lock-free store reader (single process).

Multi-process stress lives in ``test_reader_stress.py``, the crash
matrix in ``test_reader_crash.py``, randomized interleavings in
``test_reader_fuzz.py``; this file covers the reader's contract one
behavior at a time: bootstrap, incremental refresh, compaction
follow-through, staleness introspection and ``strict`` semantics, the
snapshot header as the one self-description, the read surface (search/check), the sidecar
read-only discipline, and the advisory-lock fix (typed error with
holder pid; readers never lock).
"""

import os
import tracemalloc

import pytest

from repro.errors import StaleReadError, StoreError, StoreLockedError
from repro.ldif import serialize_ldif
from repro.store import DirectoryStore, StoreReader
from repro.store.recovery import JOURNAL_FILE, SNAPSHOT_FILE
from repro.updates.operations import UpdateTransaction
from repro.workloads import (
    figure1_instance,
    generate_whitepages,
    random_transaction,
    whitepages_registry,
    whitepages_schema,
)

from growth import fit_growth
from tests.test_store import _leftover_verdicts


def unit_tx(i):
    return (
        UpdateTransaction()
        .insert(
            f"ou=unit{i},o=att",
            ["orgUnit", "orgGroup", "top"],
            {"ou": [f"unit{i}"]},
        )
        .insert(
            f"uid=member{i},ou=unit{i},o=att",
            ["person", "top"],
            {"uid": [f"member{i}"], "name": [f"member {i}"]},
        )
    )


@pytest.fixture
def store(tmp_path):
    store = DirectoryStore.create(
        str(tmp_path / "store"),
        whitepages_schema(),
        figure1_instance(),
        whitepages_registry(),
    )
    yield store
    store.close()


def open_reader(store_dir):
    return StoreReader.open(
        store_dir, whitepages_schema(), whitepages_registry()
    )


class TestBootstrapAndRefresh:
    def test_bootstrap_equals_writer(self, store):
        with open_reader(store._dir) as reader:
            assert serialize_ldif(reader.instance) == serialize_ldif(store.instance)
            assert reader.position() == (1, 0)
            assert reader.lag().current

    def test_bootstrap_includes_committed_journal(self, store):
        for i in (1, 2, 3):
            assert store.apply(unit_tx(i)).applied
        with open_reader(store._dir) as reader:
            assert reader.position() == (1, 3)
            assert serialize_ldif(reader.instance) == serialize_ldif(store.instance)

    def test_refresh_follows_appends_incrementally(self, store):
        with open_reader(store._dir) as reader:
            for i in (1, 2):
                assert store.apply(unit_tx(i)).applied
            result = reader.refresh()
            assert result.advanced
            assert result.frames_replayed == 2
            assert not result.rebootstrapped
            assert reader.position() == (1, 2)
            assert serialize_ldif(reader.instance) == serialize_ldif(store.instance)

    def test_refresh_noop_when_current(self, store):
        with open_reader(store._dir) as reader:
            result = reader.refresh()
            assert not result.advanced
            assert result.frames_replayed == 0
            assert result.bytes_scanned == 0

    def test_refresh_cost_is_tail_only(self, store):
        """The second refresh reads only the bytes appended since the
        first — not the whole journal (the O(|Δ|) contract)."""
        with open_reader(store._dir) as reader:
            for i in (1, 2, 3):
                assert store.apply(unit_tx(i)).applied
            first = reader.refresh()
            assert store.apply(unit_tx(4)).applied
            second = reader.refresh()
            assert second.frames_replayed == 1
            assert 0 < second.bytes_scanned < first.bytes_scanned

    def test_refresh_work_tracks_the_tail_not_the_snapshot(self, tmp_path):
        """Against a ~2k-entry store a refresh replays exactly the ``t``
        frames appended since the last one and scans only that journal
        suffix — a sliver of the snapshot, growing ~linearly in ``t``."""
        path = str(tmp_path / "big")
        instance = generate_whitepages(
            orgs=6, units_per_level=5, depth=2, persons_per_unit=10, seed=42
        )
        with DirectoryStore.create(
            path, whitepages_schema(), instance, whitepages_registry()
        ) as big, open_reader(path) as reader:
            snapshot_bytes = os.path.getsize(os.path.join(path, SNAPSHOT_FILE))
            tails, scanned = [1, 2, 4, 8, 16], []
            for t in tails:
                for _ in range(t):
                    assert big.apply(random_transaction(
                        big.instance, inserts=1, seed=big.journal_length
                    )).applied
                result = reader.refresh(strict=True)
                assert result.advanced and not result.rebootstrapped
                assert result.frames_replayed == t
                assert result.bytes_scanned * 20 < snapshot_bytes
                scanned.append(result.bytes_scanned)
            assert 0.5 < fit_growth(tails, scanned) < 1.5, scanned

    def test_refresh_follows_compaction(self, store):
        with open_reader(store._dir) as reader:
            assert store.apply(unit_tx(1)).applied
            store.compact()
            result = reader.refresh()
            assert result.rebootstrapped
            assert reader.position() == (2, 0)
            assert serialize_ldif(reader.instance) == serialize_ldif(store.instance)

    def test_refresh_across_compaction_and_more_appends(self, store):
        with open_reader(store._dir) as reader:
            assert store.apply(unit_tx(1)).applied
            store.compact()
            assert store.apply(unit_tx(2)).applied
            reader.refresh()
            assert reader.position() == (2, 1)
            assert serialize_ldif(reader.instance) == serialize_ldif(store.instance)

    def test_lag_reports_frames_and_generations(self, store):
        with open_reader(store._dir) as reader:
            assert reader.lag().current
            assert store.apply(unit_tx(1)).applied
            assert store.apply(unit_tx(2)).applied
            lag = reader.lag()
            assert (lag.generations, lag.frames) == (0, 2)
            store.compact()
            lag = reader.lag()
            assert lag.generations == 1
            reader.refresh()
            assert reader.lag().current

    def test_open_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            StoreReader.open(str(tmp_path / "nope"), whitepages_schema())

    def test_open_directory_without_store(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(FileNotFoundError):
            StoreReader.open(str(empty), whitepages_schema())

    def test_closed_reader_refuses(self, store):
        reader = open_reader(store._dir)
        reader.close()
        reader.close()  # idempotent
        with pytest.raises(StoreError, match="closed"):
            reader.refresh()
        with pytest.raises(StoreError, match="closed"):
            reader.search()


class TestStaleness:
    def test_vanished_snapshot_keeps_view_and_flags_stale(self, store):
        assert store.apply(unit_tx(1)).applied
        reader = open_reader(store._dir)
        before = serialize_ldif(reader.instance)
        os.unlink(os.path.join(store._dir, SNAPSHOT_FILE))
        result = reader.refresh()
        assert result.stale
        assert result.note
        # the old view stays fully serviceable
        assert serialize_ldif(reader.instance) == before
        assert reader.search(filter="(uid=member1)")
        reader.close()

    def test_strict_refresh_raises(self, store):
        reader = open_reader(store._dir)
        os.unlink(os.path.join(store._dir, SNAPSHOT_FILE))
        with pytest.raises(StaleReadError):
            reader.refresh(strict=True)
        reader.close()

    def test_torn_tail_is_not_stale(self, store):
        """A torn in-flight frame silently stops the reader at the last
        committed frame — graceful degradation, not an error."""
        assert store.apply(unit_tx(1)).applied
        journal = os.path.join(store._dir, JOURNAL_FILE)
        committed = open(journal, "rb").read()
        with open_reader(store._dir) as reader:
            assert store.apply(unit_tx(2)).applied
            full = open(journal, "rb").read()
            open(journal, "wb").write(full[: len(committed) + 30])  # tear tx2
            result = reader.refresh()
            assert not result.stale
            assert result.note and "torn" in result.note
            assert reader.position() == (1, 1)
            # restoring the tail resumes exactly where the reader stopped
            open(journal, "wb").write(full)
            result = reader.refresh()
            assert result.frames_replayed == 1
            assert reader.position() == (1, 2)
            assert serialize_ldif(reader.instance) == serialize_ldif(store.instance)


class TestManifest:
    """Older stores kept an advisory ``manifest`` file beside the
    snapshot; the snapshot header now says everything it said."""

    def test_corrupt_manifest_is_advisory(self, store):
        """A manifest an older store left — here a garbled one — never
        blocks a reader, and the next compaction deletes it."""
        assert store.apply(unit_tx(1)).applied
        path = os.path.join(store._dir, "manifest")
        with open(path, "wb") as fh:
            fh.write(b'{"garbage": tru')
        with open_reader(store._dir) as reader:
            assert reader.position() == (1, 1)
            assert serialize_ldif(reader.instance) == serialize_ldif(store.instance)
        store.compact()
        assert not os.path.exists(path)
        with open_reader(store._dir) as reader:
            assert reader.position() == (2, 0)

    def test_headerless_snapshot_refuses_to_open(self, store):
        """A snapshot whose first line is no header is damage: the
        reader names the file instead of guessing at its format."""
        path = os.path.join(store._dir, SNAPSHOT_FILE)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize_ldif(store.instance))
        with pytest.raises(StoreError, match="snapshot header") as excinfo:
            open_reader(store._dir)
        assert path in str(excinfo.value)


class TestReadSurface:
    def test_search_delegates(self, store):
        assert store.apply(unit_tx(1)).applied
        with open_reader(store._dir) as reader:
            reader.refresh()
            hits = reader.search(filter="(uid=member1)")
            assert [entry.values("uid") for entry in hits] == [("member1",)]
            scoped = reader.search(base="ou=unit1,o=att", scope="sub")
            assert len(scoped) == 2

    def test_check_is_memoized_across_refresh(self, store):
        """Once a check found the view legal the verdict follows the
        frames: the refresh Δ-checks what it replays (|Δ| = 2 entries
        content-checked), and the check after it does no session work."""
        with open_reader(store._dir) as reader:
            report = reader.check()
            assert report.is_legal
            assert reader.is_legal()
            assert store.apply(unit_tx(1)).applied
            baseline = reader.session.stats.copy()
            reader.refresh()
            replayed = reader.session.stats.since(baseline)
            assert replayed.entries_checked == 2
            assert replayed.queries_evaluated > 0
            baseline = reader.session.stats.copy()
            report = reader.check()
            assert report.is_legal
            # the report carries the Δ-check's work; making it cost none
            assert report.stats.entries_checked == 2
            assert report.stats.queries_evaluated == replayed.queries_evaluated
            idle = reader.session.stats.since(baseline)
            assert (idle.entries_checked, idle.cache_hits, idle.cache_misses) == (0, 0, 0)
            assert (idle.queries_evaluated, idle.structure_checks) == (0, 0)
            assert (reader.full_checks, reader.followed_checks) == (1, 2)


class TestSidecarDiscipline:
    """Satellite: the ``verdicts.cache`` older stores wrote beside the
    snapshot, under the split — a reader neither reads nor writes it."""

    def test_reader_never_writes_sidecar(self, store):
        path = _leftover_verdicts(
            store._dir, store.schema, store.instance
        )
        before = open(path, "rb").read()
        with open_reader(store._dir) as reader:
            assert reader.check().is_legal  # the bogus verdicts are unread
            reader.refresh()
        assert open(path, "rb").read() == before

    def test_reader_missing_sidecar_stays_missing(self, store):
        path = os.path.join(store._dir, "verdicts.cache")
        assert not os.path.exists(path)
        with open_reader(store._dir) as reader:
            assert reader.check().is_legal
        assert not os.path.exists(path)

    def test_corrupt_sidecar_cold_start_never_wrong(self, store):
        _leftover_verdicts(store._dir, store.schema, store.instance, "garble")
        with open_reader(store._dir) as reader:
            report = reader.check()
            assert report.is_legal
            assert report.stats.entries_checked == len(reader.instance)

    def test_compact_under_live_reader_keeps_memo_correct(self, store):
        """The writer compacting while a reader holds the old view must
        not corrupt the reader's followed verdict: its answers stay
        correct before and after it follows the compaction."""
        with open_reader(store._dir) as reader:
            assert reader.check().is_legal  # the one full pass
            assert store.apply(unit_tx(1)).applied
            store.compact()  # rewrites the snapshot under the reader
            assert reader.check().is_legal  # old view: still right
            reader.refresh()
            assert serialize_ldif(reader.instance) == serialize_ldif(store.instance)
            assert reader.check().is_legal


class TestACheckedCopyCostsNoVerdictState:
    """A ratio gate, not a byte count (those differ across Python
    versions): a view's first full check leaves nothing behind per
    entry.  Its verdict is kept by following the frames afterwards, so
    the pass itself has nothing to remember.  The copy is numbered
    first, as every served copy is before it answers a read: the
    interval labels belong to the copy, not to the check."""

    def test_first_check_retains_under_20_bytes_per_entry(self, tmp_path):
        path = str(tmp_path / "store")
        DirectoryStore.create(
            path, whitepages_schema(),
            generate_whitepages(orgs=4, units_per_level=5, depth=3,
                                persons_per_unit=12, seed=7,
                                registry=whitepages_registry()),
            whitepages_registry(),
        ).close()
        with open_reader(path) as reader:
            entries = len(reader.instance)
            reader.instance.ensure_numbered()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                report = reader.check()
                retained = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert report.is_legal
            assert reader.full_checks == 1
        assert entries >= 8000
        assert retained < 20 * entries, (retained, retained / entries)


class TestAnOpenLeavesTheDnMemoAlone:
    """A snapshot names each DN once, so a bootstrap parses its records'
    DNs unmemoised: ``parse_dn``'s memo is for the write and lookup
    traffic that names the same DNs again, not for a copy's open.  Nor
    do the RDN memos fill per entry: an entry's own RDN is parsed and
    keyed unmemoised, and only its parents' RDNs — the directory's
    vocabulary — go through the memos."""

    @staticmethod
    def _store(tmp_path):
        path = str(tmp_path / "store")
        DirectoryStore.create(
            path, whitepages_schema(),
            generate_whitepages(orgs=2, units_per_level=3, depth=2,
                                persons_per_unit=10, seed=3,
                                registry=whitepages_registry()),
            whitepages_registry(),
        ).close()
        return path

    def test_an_open_adds_far_fewer_memo_entries_than_it_reads(self, tmp_path):
        from repro.model.dn import parse_dn

        path = self._store(tmp_path)
        parse_dn.cache_clear()
        with open_reader(path) as reader:
            entries = len(reader.instance)
        added = parse_dn.cache_info().currsize
        assert entries >= 250
        assert added < entries // 10, (added, entries)

    def test_an_open_adds_one_rdn_memo_entry_per_parent_not_per_entry(
        self, tmp_path
    ):
        from repro.model.dn import DN, RDN, _escape_value, parse_rdn

        memos = {
            "parse_rdn": parse_rdn, "_escape_value": _escape_value,
            "RDN.normalized": RDN.normalized, "DN.normalized": DN.normalized,
        }
        path = self._store(tmp_path)
        for memo in memos.values():
            memo.cache_clear()
        with open_reader(path) as reader:
            entries = len(reader.instance)
            parents = len({
                reader.instance.parent_of(entry).eid for entry in reader.instance
                if reader.instance.parent_of(entry) is not None
            })
        added = {name: memo.cache_info().currsize for name, memo in memos.items()}
        assert entries >= 250 and parents < entries // 5
        assert all(size <= parents for size in added.values()), (added, parents, entries)


class TestAdvisoryLock:
    """Satellite: typed lock errors with holder pid; readers don't lock."""

    def test_contended_writer_gets_typed_error_with_pid(self, store):
        with pytest.raises(StoreLockedError) as excinfo:
            DirectoryStore.open(
                store._dir, whitepages_schema(), registry=whitepages_registry()
            )
        assert excinfo.value.holder_pid == os.getpid()
        assert f"pid {os.getpid()}" in str(excinfo.value)

    def test_legacy_lock_file_without_pid(self, store):
        # Old stores have an empty lock file: the error still types
        # correctly, with holder_pid=None.
        lock_path = os.path.join(store._dir, "lock")
        handle = store._lock_handle
        handle.seek(0)
        handle.truncate()
        handle.flush()
        assert open(lock_path).read() == ""
        with pytest.raises(StoreLockedError) as excinfo:
            DirectoryStore.open(
                store._dir, whitepages_schema(), registry=whitepages_registry()
            )
        assert excinfo.value.holder_pid is None

    def test_readers_do_not_take_the_lock(self, store):
        """Any number of readers coexist with the live writer, and a
        writer can open while readers are attached."""
        readers = [open_reader(store._dir) for _ in range(3)]
        try:
            assert store.apply(unit_tx(1)).applied  # writer still writes
            for reader in readers:
                reader.refresh()
                assert reader.position() == (1, 1)
        finally:
            for reader in readers:
                reader.close()

    def test_writer_opens_while_reader_attached(self, tmp_path):
        path = str(tmp_path / "s")
        DirectoryStore.create(
            path, whitepages_schema(), figure1_instance()
        ).close()
        with open_reader(path):
            # the reader holds no lock, so the writer's open succeeds
            store = DirectoryStore.open(
                path, whitepages_schema(), registry=whitepages_registry()
            )
            store.close()

    def test_unopenable_lock_file_is_typed(self, tmp_path):
        path = str(tmp_path / "s")
        DirectoryStore.create(
            path, whitepages_schema(), figure1_instance()
        ).close()
        lock_path = os.path.join(path, "lock")
        os.chmod(lock_path, 0o000)
        if os.access(lock_path, os.W_OK):  # pragma: no cover
            pytest.skip("running as a user that ignores file modes, cannot test")
        try:
            with pytest.raises(StoreLockedError):
                DirectoryStore.open(
                    path, whitepages_schema(), registry=whitepages_registry()
                )
        finally:
            os.chmod(lock_path, 0o644)
