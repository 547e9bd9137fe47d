"""CLI surface of sharded stores (``create --shard``, ``check``,
``fsck`` with its healthy/degraded/in-doubt exit codes, ``recover``
resolving in-doubt 2PC participants, ``--wait-lock`` backoff on held
advisory locks) plus the follow-mode shutdown behavior: Ctrl-C is a
normal exit (0, message, no traceback) and a store that vanishes
mid-follow ends the loop with a clear message and exit 1 — for both
the single-store and the sharded follow paths.

Every store command reads plain-vs-sharded off the directory
(:class:`TestKindMatrix`); ``--shards`` survives as an expectation that
selects nothing and exits 2 against a plain store."""

from __future__ import annotations

import os
import pathlib
import shutil
import signal
import subprocess
import sys

import pytest

from repro.cli import main
from repro.ldif import dump_ldif
from repro.schema.dsl import dump_dsl
from repro.store.wal import encode_record
from repro.updates.operations import UpdateTransaction
from repro.workloads import figure1_instance, whitepages_schema

SHARD_ARGS = ["--shard", "att=o=att", "--shard", "labs=ou=attLabs,o=att"]
#: A whole journal frame; half of it is a torn tail.
_TORN = encode_record(2, 1, "dn: ou=torn,o=att\nchangetype: add\n")


@pytest.fixture()
def paths(tmp_path):
    schema_path = tmp_path / "schema.dsl"
    data_path = tmp_path / "data.ldif"
    dump_dsl(whitepages_schema(), str(schema_path))
    dump_ldif(figure1_instance(), str(data_path))
    return str(schema_path), str(data_path), tmp_path


@pytest.fixture()
def sharded_store(paths, capsys):
    """A sharded store created through the CLI itself."""
    schema, data, tmp = paths
    path = str(tmp / "shstore")
    assert main(["create", path, "--schema", schema, "--data", data,
                 *SHARD_ARGS]) == 0
    capsys.readouterr()
    return schema, path


def _corrupt_composite(path, schema_path):
    """Commit a shard-locally legal but composite-illegal change: under
    the nested cut the labs shard has no structural edges of its own,
    so an empty orgUnit sails through its guard."""
    from repro.schema.dsl import load_dsl
    from repro.store.sharded import ShardedStore

    writer = ShardedStore.open_shard(path, "labs", load_dsl(schema_path))
    try:
        tx = UpdateTransaction().insert(
            "ou=ghost,ou=attLabs", ["orgUnit", "orgGroup", "top"],
            {"ou": ["ghost"]},
        )
        assert writer.apply(tx).applied
    finally:
        writer.close()


class TestCreate:
    def test_create_plain_store(self, paths, capsys):
        schema, data, tmp = paths
        path = str(tmp / "plain")
        assert main(["create", path, "--schema", schema, "--data", data]) == 0
        out = capsys.readouterr().out
        assert f"created store {path} (6 entries)" in out

    def test_create_sharded_store_prints_partition(self, paths, capsys):
        schema, data, tmp = paths
        path = str(tmp / "sh")
        assert main(["create", path, "--schema", schema, "--data", data,
                     *SHARD_ARGS]) == 0
        out = capsys.readouterr().out
        assert "created sharded store" in out and "2 shard(s)" in out
        assert "att: base o=att (2 entries)" in out
        assert "labs: base ou=attLabs,o=att (4 entries)" in out

    def test_create_rejects_unroutable_data(self, paths, capsys):
        schema, data, tmp = paths
        path = str(tmp / "sh")
        assert main(["create", path, "--schema", schema, "--data", data,
                     "--shard", "labs-only=ou=attLabs,o=att"]) == 1
        err = capsys.readouterr().err
        assert "create:" in err and "owns its parent" in err

    def test_create_rejects_malformed_shard_flag(self, paths, capsys):
        schema, data, tmp = paths
        assert main(["create", str(tmp / "sh"), "--schema", schema,
                     "--data", data, "--shard", "att"]) == 1
        assert "NAME=BASE_DN" in capsys.readouterr().err

    def test_create_refuses_existing_directory(self, sharded_store, paths,
                                               capsys):
        schema, data, _tmp = paths
        _, path = sharded_store
        assert main(["create", path, "--schema", schema, "--data", data,
                     *SHARD_ARGS]) == 1
        assert "refusing to create" in capsys.readouterr().err


class TestCheckShards:
    def test_one_shot_legal(self, sharded_store, capsys):
        schema, path = sharded_store
        assert main(["check", "--schema", schema, "--store", path,
                     "--shards"]) == 0
        out = capsys.readouterr().out
        assert "[att@g1.0 labs@g1.0] LEGAL: 6 entries" in out

    def test_composite_violation_fails(self, sharded_store, capsys):
        schema, path = sharded_store
        _corrupt_composite(path, schema)
        assert main(["check", "--schema", schema, "--store", path,
                     "--shards"]) == 1
        out = capsys.readouterr().out
        assert "ILLEGAL" in out and "person" in out

    def test_follow_sees_new_commits(self, sharded_store, capsys):
        from repro.schema.dsl import load_dsl
        from repro.store.sharded import ShardedStore

        schema, path = sharded_store
        with ShardedStore.open(path, load_dsl(schema)) as store:
            tx = UpdateTransaction().insert(
                "uid=late,ou=attLabs,o=att", ["person", "top"],
                {"uid": ["late"], "name": ["l ate"]},
            )
            assert store.apply(tx).applied
            assert main(["check", "--schema", schema, "--store", path,
                         "--shards", "--follow", "--iterations", "2",
                         "--interval", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "[att@g1.0 labs@g1.1] LEGAL: 7 entries" in out

    @pytest.mark.parametrize("interval", ["0", "-2"])
    def test_follow_rejects_non_positive_interval(
        self, sharded_store, capsys, interval
    ):
        # The busy-spin guard covers the --shards follow path too, and
        # fires before the composite reader is even opened.
        schema, path = sharded_store
        assert main(["check", "--schema", schema, "--store", path,
                     "--shards", "--follow", "--interval", interval,
                     "--iterations", "1"]) == 2
        assert "--interval must be positive" in capsys.readouterr().err

    def test_not_a_sharded_store(self, paths, capsys):
        schema, data, tmp = paths
        path = str(tmp / "plain")
        assert main(["create", path, "--schema", schema, "--data", data]) == 0
        capsys.readouterr()
        assert main(["check", "--schema", schema, "--store", path,
                     "--shards"]) == 2
        assert "holds a plain store" in capsys.readouterr().err


class TestFsckShards:
    def test_healthy_sharded_store(self, sharded_store, capsys):
        schema, path = sharded_store
        assert main(["fsck", path, "--schema", schema, "--shards"]) == 0
        out = capsys.readouterr().out
        assert "shard map: 2 shard(s) [nested cut]" in out
        assert "att: base o=att" in out
        assert "labs: base ou=attLabs,o=att" in out
        assert "att: generation 1, seq 0 (2 entries; current)" in out
        assert "labs: generation 1, seq 0 (4 entries; current)" in out
        assert "scope:" in out
        assert "HEALTHY" in out

    def test_requires_schema(self, sharded_store, capsys):
        """Only the view needs the schema: without one, fsck still scans
        every member's journal and the coordinator log."""
        _, path = sharded_store
        assert main(["fsck", path, "--shards"]) == 0
        assert "HEALTHY" in capsys.readouterr().out

    def test_not_a_sharded_store(self, paths, capsys):
        schema, _, tmp = paths
        assert main(["fsck", str(tmp / "nope"), "--schema", schema,
                     "--shards"]) == 1
        assert "cannot read shard map" in capsys.readouterr().out

    def test_composite_violation_reported(self, sharded_store, capsys):
        schema, path = sharded_store
        _corrupt_composite(path, schema)
        assert main(["fsck", path, "--schema", schema, "--shards"]) == 1
        out = capsys.readouterr().out
        assert "legality: ILLEGAL" in out
        assert "HEALTHY" not in out


def _strand_in_doubt(path, schema_path, point):
    """Crash a spanning transaction mid-2PC, leaving prepared-but-
    unresolved participants on disk for fsck/recover to find."""
    from repro.schema.dsl import load_dsl
    from repro.store.faults import FaultPlan, FaultyIO, InjectedCrash
    from repro.store.sharded import ShardedStore

    io = FaultyIO(FaultPlan(crash_at_point=point))
    store = ShardedStore.open(path, load_dsl(schema_path), io=io)
    tx = (
        UpdateTransaction()
        .insert("uid=x,o=att", ["person", "top"],
                {"uid": ["x"], "name": ["x att"]})
        .insert("uid=y,ou=databases,ou=attLabs,o=att", ["person", "top"],
                {"uid": ["y"], "name": ["y labs"]})
    )
    try:
        with pytest.raises(InjectedCrash):
            store.apply(tx)
    finally:
        store.close()  # a dead process drops its advisory locks


class TestInDoubt2PC:
    """``fsck`` exit 3 on in-doubt 2PC state and ``recover`` resolving
    it with the coordinator's verdict."""

    def test_fsck_reports_undecided_prepares(self, sharded_store, capsys):
        schema, path = sharded_store
        _strand_in_doubt(path, schema, "2pc:prepared:labs")
        assert main(["fsck", path, "--schema", schema, "--shards"]) == 3
        out = capsys.readouterr().out
        assert ("IN DOUBT: shard att holds prepared transaction tx-1 "
                "(coordinator verdict: abort)") in out
        assert "IN DOUBT: shard labs" in out
        assert "IN-DOUBT 2PC STATE (run `recover` to resolve)" in out
        assert "HEALTHY" not in out

    def test_recover_shards_aborts_undecided(self, sharded_store, capsys):
        schema, path = sharded_store
        _strand_in_doubt(path, schema, "2pc:prepared:labs")
        assert main(["recover", path, "--schema", schema, "--shards"]) == 0
        out = capsys.readouterr().out
        assert "resolved 1 in-doubt 2PC transaction(s): tx-1" in out
        assert "mode: read-write" in out
        # presumed abort: the store is healthy and the tx left no trace
        assert main(["fsck", path, "--schema", schema, "--shards"]) == 0
        out = capsys.readouterr().out
        assert "HEALTHY" in out
        assert main(["check", "--schema", schema, "--store", path,
                     "--shards"]) == 0
        assert "LEGAL: 6 entries" in capsys.readouterr().out

    def test_recover_shards_commits_decided(self, sharded_store, capsys):
        """A crash after the durable commit record but before the
        participants heard the verdict: fsck names the commit verdict,
        recover finishes the transaction."""
        schema, path = sharded_store
        _strand_in_doubt(path, schema, "2pc:decided:att")
        assert main(["fsck", path, "--schema", schema, "--shards"]) == 3
        out = capsys.readouterr().out
        assert ("IN DOUBT: shard labs holds prepared transaction tx-1 "
                "(coordinator verdict: commit)") in out
        assert main(["recover", path, "--schema", schema, "--shards"]) == 0
        assert "resolved 1 in-doubt" in capsys.readouterr().out
        assert main(["check", "--schema", schema, "--store", path,
                     "--shards"]) == 0
        assert "LEGAL: 8 entries" in capsys.readouterr().out

    def test_recover_shards_requires_schema(self, sharded_store, capsys):
        """Only resolving in-doubt 2PC state opens the store, so only
        that needs the schema."""
        _, path = sharded_store
        assert main(["recover", path, "--shards"]) == 0
        assert "no in-doubt 2PC transactions" in capsys.readouterr().out

    def test_recover_shards_healthy_store(self, sharded_store, capsys):
        schema, path = sharded_store
        assert main(["recover", path, "--schema", schema, "--shards"]) == 0
        out = capsys.readouterr().out
        assert "no in-doubt 2PC transactions" in out
        assert "mode: read-write" in out

    def test_recover_shards_not_a_sharded_store(self, plain_store, capsys):
        schema, path = plain_store
        assert main(["recover", path, "--schema", schema, "--shards"]) == 2
        assert "recover:" in capsys.readouterr().err


class TestWaitLock:
    """``--wait-lock SECONDS``: bounded backoff on a held advisory
    lock, reporting the holder's pid, instead of failing immediately."""

    def _hold_shard_lock(self, path, schema_path):
        from repro.schema.dsl import load_dsl
        from repro.store.sharded import ShardedStore

        return ShardedStore.open_shard(path, "att", load_dsl(schema_path))

    def test_default_fails_fast(self, sharded_store, capsys):
        schema, path = sharded_store
        writer = self._hold_shard_lock(path, schema)
        try:
            assert main(["recover", path, "--schema", schema,
                         "--shards"]) == 1
        finally:
            writer.close()
        captured = capsys.readouterr()
        assert "locked" in captured.out
        assert "retrying" not in captured.err

    def test_gives_up_after_deadline(self, sharded_store, capsys):
        import os

        schema, path = sharded_store
        writer = self._hold_shard_lock(path, schema)
        try:
            assert main(["recover", path, "--schema", schema, "--shards",
                         "--wait-lock", "0.2"]) == 1
        finally:
            writer.close()
        err = capsys.readouterr().err
        assert "recover: store is locked" in err and "retrying in" in err
        assert f"held by pid {os.getpid()}" in err
        assert "gave up waiting after 0.2s" in err

    def test_waits_out_a_transient_holder(self, sharded_store, capsys):
        import threading

        schema, path = sharded_store
        writer = self._hold_shard_lock(path, schema)
        release = threading.Timer(0.25, writer.close)
        release.start()
        try:
            assert main(["recover", path, "--schema", schema, "--shards",
                         "--wait-lock", "10"]) == 0
        finally:
            release.cancel()
            writer.close()
        captured = capsys.readouterr()
        assert "retrying in" in captured.err
        assert "gave up" not in captured.err
        assert "mode: read-write" in captured.out

    def test_create_accepts_wait_lock(self, paths, capsys):
        schema, data, tmp = paths
        path = str(tmp / "waited")
        assert main(["create", path, "--schema", schema, "--data", data,
                     "--wait-lock", "0.1", *SHARD_ARGS]) == 0
        assert "created sharded store" in capsys.readouterr().out


@pytest.fixture()
def plain_store(paths, capsys):
    schema, data, tmp = paths
    path = str(tmp / "fstore")
    assert main(["create", path, "--schema", schema, "--data", data]) == 0
    capsys.readouterr()
    return schema, path


class TestFollowShutdown:
    """``check --follow`` ends cleanly: Ctrl-C is exit 0 with a message
    (never a traceback), a vanished store is a clear message + exit 1."""

    def _sleep_hook(self, monkeypatch, action):
        import time

        monkeypatch.setattr(time, "sleep", lambda _seconds: action())

    def test_interrupt_exits_zero(self, plain_store, capsys, monkeypatch):
        schema, path = plain_store

        def interrupt():
            raise KeyboardInterrupt

        self._sleep_hook(monkeypatch, interrupt)
        assert main(["check", "--schema", schema, "--store", path,
                     "--follow"]) == 0
        captured = capsys.readouterr()
        assert "follow interrupted; exiting" in captured.err
        assert "LEGAL" in captured.out

    def test_store_removed_mid_follow(self, plain_store, capsys, monkeypatch):
        schema, path = plain_store
        self._sleep_hook(monkeypatch, lambda: shutil.rmtree(path))
        assert main(["check", "--schema", schema, "--store", path,
                     "--follow"]) == 1
        err = capsys.readouterr().err
        assert "is gone (removed or compacted away); stopping follow" in err
        assert "Traceback" not in err

    def test_sharded_interrupt_exits_zero(self, sharded_store, capsys,
                                          monkeypatch):
        schema, path = sharded_store

        def interrupt():
            raise KeyboardInterrupt

        self._sleep_hook(monkeypatch, interrupt)
        assert main(["check", "--schema", schema, "--store", path,
                     "--shards", "--follow"]) == 0
        captured = capsys.readouterr()
        assert "follow interrupted; exiting" in captured.err
        assert "LEGAL: 6 entries" in captured.out

    def test_sharded_store_removed_mid_follow(self, sharded_store, capsys,
                                              monkeypatch):
        schema, path = sharded_store
        self._sleep_hook(monkeypatch, lambda: shutil.rmtree(path))
        assert main(["check", "--schema", schema, "--store", path,
                     "--shards", "--follow"]) == 1
        err = capsys.readouterr().err
        assert "is gone (removed mid-follow); stopping follow" in err
        assert "Traceback" not in err


class TestShardedReplicationCli:
    """``promote --shards`` on a replicated cohort (the follower side
    is built through the library; the CLI is what promotes)."""

    def test_promote_shards_reports_cohort(
        self, sharded_store, tmp_path, capsys
    ):
        from repro.schema.dsl import load_dsl
        from repro.store.replicate import (
            ShardedFrameSource,
            ShardedReplicaApplier,
        )

        schema_path, path = sharded_store
        schema = load_dsl(schema_path)
        cohort = str(tmp_path / "cohort")
        source = ShardedFrameSource(path, schema)
        with ShardedReplicaApplier(cohort, schema) as applier:
            while True:
                batch = source.poll()
                if not batch:
                    break
                for message in batch:
                    applier.apply_message(message)
        assert main(["promote", cohort, "--schema", schema_path,
                     "--shards"]) == 0
        out = capsys.readouterr().out
        assert "sharded cohort writable" in out
        assert "6 entries" in out

    def test_promote_shards_refuses_bare_directory(
        self, paths, tmp_path, capsys
    ):
        schema_path, _, _ = paths
        bare = str(tmp_path / "bare")
        assert main(["promote", bare, "--schema", schema_path,
                     "--shards"]) == 1
        assert "cut" in capsys.readouterr().err


class TestKindMatrix:
    """No command is told whether a store is sharded: each finds out
    from the directory and prints what the flagged invocation always
    printed.  ``--shards`` only states an expectation.  ``fsck`` and
    ``recover`` are one loop over the store's members, so every
    maintenance row — a damaged member journal, a live writer — runs
    on both kinds with the same exit codes."""

    BANNERS = {
        "plain": {
            "check": "[gen 1 seq 0] LEGAL: 6 entries",
            "fsck": "HEALTHY",
            "recover": "mode: read-write",
            "position": "generation 1, seq 0",
            "promoted": "writable at generation 2 (6 entries)",
        },
        "sharded": {
            "check": "[att@g1.0 labs@g1.0] LEGAL: 6 entries",
            "fsck": "HEALTHY",
            "recover": "mode: read-write",
            "position": "att: generation 1, seq 0, labs: generation 1, seq 0",
            "promoted": "sharded cohort writable "
                        "(att: generation 2, labs: generation 2; 6 entries)",
        },
    }

    #: The member that takes the damage (and ``uid=late``'s frame).
    MEMBER = {"plain": None, "sharded": "labs"}

    #: damage → (bytes appended to that member's journal, the
    #: ``recover`` runs that repair it, each with its exit code).
    DAMAGE = {
        "torn": (_TORN[: len(_TORN) // 2], [([], 0)]),
        "corrupt": (b"this is not a wal frame\n", [([], 1), (["--force"], 0)]),
    }

    #: how ``recover`` meets a live writer → (extra flags, seconds until
    #: the writer lets go, exit code, what stderr must say).
    WAITS = {
        "fail-fast": ([], None, 1, ""),
        "gives-up": (["--wait-lock", "0.2"], None, 1, "gave up waiting after 0.2s"),
        "waits-out": (["--wait-lock", "10"], 0.25, 0, "retrying in"),
    }

    @pytest.fixture(params=["plain", "sharded"])
    def store(self, request, paths, capsys):
        schema, data, tmp = paths
        path = str(tmp / request.param)
        shard_args = SHARD_ARGS if request.param == "sharded" else []
        assert main(["create", path, "--schema", schema, "--data", data,
                     *shard_args]) == 0
        capsys.readouterr()
        return request.param, schema, path

    def test_every_command_detects_the_kind(self, store, tmp_path, capsys):
        from repro.store import is_sharded

        kind, schema, path = store
        banners = self.BANNERS[kind]
        for command, argv in (
            ("check", ["check", "--schema", schema, "--store", path]),
            ("fsck", ["fsck", path, "--schema", schema]),
            ("recover", ["recover", path, "--schema", schema]),
        ):
            assert main(argv) == 0, command
            assert banners[command] in capsys.readouterr().out, command

        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", path,
             "--schema", schema, "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            banner = server.stdout.readline().strip()
            assert banner.startswith(f"serving {path} on 127.0.0.1:"), (
                banner + server.stderr.read()
            )
            assert banner.endswith(" (sharded)") == (kind == "sharded")
            address = banner.split(" on ")[1].split(" ")[0]

            # a fresh directory takes the kind the upstream acknowledges
            replica = str(tmp_path / "fresh-replica")
            assert main(["replicate", replica, "--schema", schema,
                         "--from", address, "--oneshot"]) == 0
            assert f"synced to {banners['position']} from {address}" in \
                capsys.readouterr().out
            assert is_sharded(replica) == (kind == "sharded")
        finally:
            server.send_signal(signal.SIGTERM)
            _, err = server.communicate(timeout=30)
        assert server.returncode == 0, err
        assert "draining connections and shutting down" in err

        assert main(["promote", replica, "--schema", schema]) == 0
        assert f"promoted {replica}: {banners['promoted']}\n" == \
            capsys.readouterr().out

    def _commit_to_member(self, kind, schema, path):
        """Commit ``uid=late`` (it routes to :data:`MEMBER`) and return
        that member's directory."""
        from repro.schema.dsl import load_dsl
        from repro.store import members, open_store

        with open_store(path, load_dsl(schema)) as writer:
            assert writer.apply(UpdateTransaction().insert(
                "uid=late,ou=attLabs,o=att", ["person", "top"],
                {"uid": ["late"], "name": ["l ate"]},
            )).applied
        return members(path)[self.MEMBER[kind]]

    def test_fsck_reports_the_coordinator_log(self, store, capsys):
        """``fsck`` on a sharded store prints one ``coordinator log:``
        line — records, generation, unfinished transactions — so the
        growth of a log a serving primary never compacts is visible.  A
        plain store has no coordinator log and prints no such line."""
        from repro.schema.dsl import load_dsl
        from repro.store import open_store

        kind, schema, path = store

        def logged():
            assert main(["fsck", path]) == 0
            return [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("coordinator log:")]

        assert logged() == ([] if kind == "plain" else [
            "coordinator log: none (no spanning transaction yet)"
        ])
        with open_store(path, load_dsl(schema)) as writer:
            for index in (1, 2):  # spanning, when sharded
                assert writer.apply(UpdateTransaction().insert(
                    f"uid=a{index},o=att", ["person", "top"],
                    {"uid": [f"a{index}"], "name": [f"a {index}"]},
                ).insert(
                    f"uid=b{index},ou=attLabs,o=att", ["person", "top"],
                    {"uid": [f"b{index}"], "name": [f"b {index}"]},
                )).applied
        assert logged() == ([] if kind == "plain" else [
            "coordinator log: 6 records, generation 1, 0 unfinished "
            "transaction(s)"
        ])

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_a_damaged_member_is_found_and_repaired(self, store, damage,
                                                    capsys):
        """``fsck`` judges every member's journal, ``recover`` repairs
        every member (``--force`` included), and the view then shows the
        committed prefix — whichever kind holds the member."""
        kind, schema, path = store
        member = self._commit_to_member(kind, schema, path)
        tail, repairs = self.DAMAGE[damage]
        with open(os.path.join(member, "journal.ldif"), "ab") as fh:
            fh.write(tail)
        assert main(["fsck", path, "--schema", schema]) == 1
        assert f"DAMAGED: {member} (run `recover` to repair)" in \
            capsys.readouterr().out
        for flags, code in repairs:
            assert main(["recover", path, *flags]) == code, flags
        capsys.readouterr()
        assert main(["fsck", path, "--schema", schema]) == 0
        assert main(["check", "--schema", schema, "--store", path]) == 0
        assert "LEGAL: 7 entries" in capsys.readouterr().out

    @pytest.mark.parametrize("wait", sorted(WAITS))
    def test_recover_waits_for_a_live_writer(self, store, wait, capsys):
        """``recover`` takes every member's advisory lock before it
        touches a file: against a live writer (here mid-append, its
        member's tail torn) it fails fast naming the holder, gives up
        after ``--wait-lock``, or waits the holder out and repairs."""
        import threading

        from repro.schema.dsl import load_dsl
        from repro.store import open_store

        kind, schema, path = store
        member = self._commit_to_member(kind, schema, path)
        flags, release_after, code, err = self.WAITS[wait]
        writer = open_store(path, load_dsl(schema))
        with open(os.path.join(member, "journal.ldif"), "ab") as fh:
            fh.write(_TORN[: len(_TORN) // 2])

        def files():
            return {
                os.path.join(root, name):
                    pathlib.Path(root, name).read_bytes()
                for root, _, names in os.walk(path) for name in names
            }

        before = files()
        release = threading.Timer(release_after or 0, writer.close)
        if release_after:
            release.start()
        try:
            assert main(["recover", path, "--schema", schema, *flags]) == code
        finally:
            release.cancel()
            writer.close()
        captured = capsys.readouterr()
        assert err in captured.err
        if code:
            assert f"is locked by pid {os.getpid()}" in captured.out
            assert files() == before
        else:
            assert "REPAIRED" in captured.out

    def test_wrong_expectation_exits_two(self, plain_store, capsys):
        """``--shards`` against a plain store: exit 2, one line, before
        anything is opened, served or contacted."""
        schema, path = plain_store
        for argv in (
            ["check", "--schema", schema, "--store", path],
            ["fsck", path, "--schema", schema],
            ["recover", path, "--schema", schema],
            ["serve", path, "--schema", schema, "--port", "0"],
            ["replicate", path, "--schema", schema, "--from", "127.0.0.1:1",
             "--oneshot"],
            ["promote", path, "--schema", schema],
        ):
            assert main([*argv, "--shards"]) == 2, argv[0]
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"{argv[0]}: --shards given, but {path} holds a plain store\n"
            )
