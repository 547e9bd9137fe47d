"""Fault-injection matrix for the WAL storage engine.

The central property: for **every** I/O boundary — each write (torn at
three fractions), fsync, and rename across ``create``, ``apply`` and
``compact`` — crashing there and recovering yields a schema-legal
instance equal to the state after the last fully committed transaction
(or the in-flight one, when its frame hit the disk before the crash),
and an interrupted ``compact`` never double-applies a journaled
transaction.  The matrix runs the store scenario of
``tests/harness/crash.py``; the lock-free reader's half of the contract
runs on the same scenario in ``tests/test_reader_crash.py``.
"""

import os

import pytest

from harness.crash import dry_run, run_matrix, store_scenario, unit_tx, verify_store
from invariants import state_digest
from repro.errors import StoreError, UpdateError
from repro.ldif import serialize_ldif
from repro.store import DirectoryStore
from repro.store.faults import (
    FaultPlan,
    FaultyIO,
    InjectedCrash,
    InjectedIOError,
)
from repro.store.recovery import recover
from repro.store.wal import encode_snapshot, scan
from repro.workloads import figure1_instance, whitepages_registry, whitepages_schema


def reopen_clean(path):
    return DirectoryStore.open(
        path, whitepages_schema(), registry=whitepages_registry()
    )


class TestCrashMatrix:
    def test_crash_at_every_io_boundary(self, tmp_path):
        """Every op × (0, 0.5, 1): the writer reopens onto a committed
        prefix, legal and writable."""
        run_matrix(tmp_path, store_scenario, verify_store, least_ops=14)

    def test_interrupted_compact_never_double_applies(self, tmp_path):
        """Regression for the seed store's crash window: a crash between
        the snapshot rename and the journal truncation replayed every
        journaled transaction on top of the already-compacted snapshot."""
        path = str(tmp_path / "store")
        store = DirectoryStore.create(
            path, whitepages_schema(), figure1_instance()
        )
        for i in (1, 2, 3):
            assert store.apply(unit_tx(i)).applied
        state = serialize_ldif(store.instance)
        # reproduce the exact crash ordering: snapshot replaced, journal
        # not yet reset
        with open(os.path.join(path, "journal.ldif"), "rb") as fh:
            old_journal = fh.read()
        store.compact()
        with open(os.path.join(path, "journal.ldif"), "wb") as fh:
            fh.write(old_journal)
        store.close()

        with reopen_clean(path) as recovered:
            assert serialize_ldif(recovered.instance) == state, (
                "journal replayed against the already-compacted snapshot"
            )
            assert recovered.recovery_report.stale_discarded == 3
            assert not recovered.read_only
            assert recovered.journal_length == 0
        # the stale journal was reset on disk, so the next open is clean
        with reopen_clean(path) as again:
            assert again.recovery_report.healthy

    def test_create_is_atomic(self, tmp_path):
        """Regression for the seed store's partial initialization: a
        failure between the snapshot write and the journal creation left
        a directory that create() rejected and that shadowed real data."""
        # enumerate create's own I/O ops
        probe = FaultyIO(FaultPlan())
        DirectoryStore.create(
            str(tmp_path / "probe"), whitepages_schema(), figure1_instance(),
            io=probe,
        ).close()
        create_ops = probe.plan.ops_executed
        for crash_op in range(create_ops):
            path = str(tmp_path / f"c{crash_op}")
            io = FaultyIO(FaultPlan(crash_at_op=crash_op, torn_fraction=0.5))
            with pytest.raises(InjectedCrash):
                DirectoryStore.create(
                    path, whitepages_schema(), figure1_instance(), io=io
                )
            # never a half-initialised target:
            assert not os.path.exists(os.path.join(path, "snapshot.ldif")) or (
                os.path.exists(os.path.join(path, "journal.ldif"))
            )
            # and a clean retry always succeeds
            with DirectoryStore.create(
                path, whitepages_schema(), figure1_instance()
            ) as retry:
                assert serialize_ldif(retry.instance) == serialize_ldif(
                    figure1_instance()
                )

    def test_legacy_partial_init_directory_still_opens(self, tmp_path):
        """A directory in the seed bug's end state (snapshot written,
        journal never created) must open cleanly instead of crashing."""
        path = tmp_path / "store"
        path.mkdir()
        (path / "snapshot.ldif").write_text(
            encode_snapshot(1, serialize_ldif(figure1_instance())),
            encoding="utf-8",
        )
        with reopen_clean(str(path)) as store:
            assert serialize_ldif(store.instance) == serialize_ldif(
                figure1_instance()
            )
        # create() still refuses to clobber it
        with pytest.raises(UpdateError, match="already contains"):
            DirectoryStore.create(
                str(path), whitepages_schema(), figure1_instance()
            )


class TestTornRecords:
    def test_recovery_at_every_byte_of_the_final_record(self, tmp_path):
        """Satellite: truncate ``journal.ldif`` at every byte offset of
        the final record; recovery must yield exactly the committed
        prefix and quarantine the torn tail."""
        path = str(tmp_path / "store")
        store = DirectoryStore.create(
            path, whitepages_schema(), figure1_instance()
        )
        states = []
        for i in (1, 2, 3):
            assert store.apply(unit_tx(i)).applied
            states.append(serialize_ldif(store.instance))
        store.close()
        journal = os.path.join(path, "journal.ldif")
        quarantine = os.path.join(path, "journal.quarantine")
        with open(journal, "rb") as fh:
            data = fh.read()
        records = scan(data).records
        assert len(records) == 3
        final_start = records[-1].offset
        for cut in range(final_start, len(data)):
            with open(journal, "wb") as fh:
                fh.write(data[:cut])
            if os.path.exists(quarantine):
                os.remove(quarantine)
            with reopen_clean(path) as recovered:
                assert serialize_ldif(recovered.instance) == states[1], (
                    f"truncation at byte {cut} did not recover the "
                    "committed prefix"
                )
                assert recovered.journal_length == 2
                assert not recovered.read_only
            if cut > final_start:
                assert os.path.exists(quarantine), (
                    f"torn tail at byte {cut} was dropped silently"
                )
                assert os.path.getsize(quarantine) >= cut - final_start
            # recovery truncated the journal back to the committed prefix
            assert os.path.getsize(journal) == final_start


class TestSurvivableIOErrors:
    @staticmethod
    def _survive(workdir, plan):
        """Run the store scenario under ``plan``; its store path."""
        workdir.mkdir()
        store_scenario(workdir, FaultyIO(plan))
        return str(workdir / "store")

    def test_disk_full_poisons_store_and_recovery_keeps_prefix(self, tmp_path):
        states, plan = dry_run(tmp_path / "dry", store_scenario)
        all_states = {state for _, state in states}
        budgets = sorted({plan.bytes_written * k // 12 for k in range(1, 12)})
        exercised = 0
        for budget in budgets:
            path = str(tmp_path / f"full-{budget}" / "store")
            try:
                self._survive(tmp_path / f"full-{budget}", FaultPlan(disk_budget=budget))
                continue  # budget never hit (scenario fit under it)
            except StoreError:
                # apply/compact wrapped the ENOSPC and poisoned the store
                exercised += 1
            except OSError:
                # ENOSPC inside create(): the target must not exist
                assert not os.path.exists(path)
                continue
            with reopen_clean(path) as recovered:
                assert recovered.check().is_legal
                assert state_digest(recovered.instance) in all_states
                assert recovered.apply(unit_tx(8)).applied
        assert exercised >= 3

    def test_failed_fsync_at_every_point(self, tmp_path):
        states, plan = dry_run(tmp_path / "dry", store_scenario)
        all_states = {state for _, state in states}
        assert plan.fsyncs_executed >= 6
        survived_advisory = 0
        for k in range(plan.fsyncs_executed):
            path = str(tmp_path / f"fsync-{k}" / "store")
            try:
                self._survive(tmp_path / f"fsync-{k}", FaultPlan(fail_fsync_at=k))
                # The scenario completed despite the failed fsync: only
                # permissible for an *advisory* write, and the store
                # writes none — every fsync is a snapshot or journal
                # one.  Durability must still be whole: reopening
                # yields the full final scenario state.
                with reopen_clean(path) as survived:
                    assert state_digest(survived.instance) == states[-1][1]
                survived_advisory += 1
                continue
            except StoreError:
                pass  # poisoned by apply/compact
            except InjectedIOError:
                # raw failure inside create(): target must not exist
                assert not os.path.exists(path)
                continue
            with reopen_clean(path) as recovered:
                assert recovered.check().is_legal
                assert state_digest(recovered.instance) in all_states
                assert recovered.apply(unit_tx(9)).applied
        # No advisory fsync in the scenario: a survivor means a
        # durable-path fsync has been silently downgraded to best-effort.
        assert survived_advisory == 0


class TestExplicitRecovery:
    def test_recover_force_quarantines_corruption(self, tmp_path):
        path = str(tmp_path / "store")
        store = DirectoryStore.create(
            path, whitepages_schema(), figure1_instance()
        )
        for i in (1, 2):
            assert store.apply(unit_tx(i)).applied
        store.close()
        journal = os.path.join(path, "journal.ldif")
        data = bytearray(open(journal, "rb").read())
        records = scan(bytes(data)).records
        data[records[1].offset + len(b"#WAL s")] ^= 0xFF  # wreck record 2's header
        open(journal, "wb").write(bytes(data))

        # default open: degraded, files untouched
        with reopen_clean(path) as degraded:
            assert degraded.read_only
        assert os.path.getsize(journal) == len(data)

        # explicit recover --force: quarantine, keep the good prefix
        _, report = recover(
            path, whitepages_schema(), whitepages_registry(), force=True
        )
        assert report.repaired
        assert not report.read_only
        assert report.replayed == 1
        assert os.path.getsize(os.path.join(path, "journal.quarantine")) > 0
        with reopen_clean(path) as healed:
            assert not healed.read_only
            assert healed.journal_length == 1
            assert healed.instance.find("ou=unit1,o=att") is not None
            assert healed.instance.find("ou=unit2,o=att") is None
            assert healed.apply(unit_tx(5)).applied
