"""End-to-end tests of the command-line interface."""

import pytest

from repro.cli import main
from repro.ldif import dump_ldif, load_ldif
from repro.schema.dsl import dump_dsl
from repro.workloads import (
    den_schema_overconstrained,
    figure1_instance,
    whitepages_schema,
)


@pytest.fixture()
def paths(tmp_path):
    schema_path = tmp_path / "schema.dsl"
    data_path = tmp_path / "data.ldif"
    dump_dsl(whitepages_schema(), str(schema_path))
    dump_ldif(figure1_instance(), str(data_path))
    return str(schema_path), str(data_path), tmp_path


class TestValidate:
    def test_legal_instance_exits_zero(self, paths, capsys):
        schema, data, _ = paths
        assert main(["validate", "--schema", schema, "--data", data]) == 0
        assert "LEGAL" in capsys.readouterr().out

    def test_illegal_instance_exits_one(self, paths, capsys):
        schema, data, tmp = paths
        instance = figure1_instance()
        instance.entry("uid=suciu,ou=databases,ou=attLabs,o=att").add_class(
            "packetRouter"
        )
        bad = tmp / "bad.ldif"
        dump_ldif(instance, str(bad))
        assert main(["validate", "--schema", schema, "--data", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "ILLEGAL" in out and "packetRouter" in out

    def test_structure_flag_is_gone(self, paths):
        schema, data, _ = paths
        with pytest.raises(SystemExit) as refused:
            main(["validate", "--schema", schema, "--data", data,
                  "--structure", "naive"])
        assert refused.value.code == 2

    def test_output_is_check_data_output(self, paths, capsys):
        # validate is `check --data` under its old name: byte-identical
        # LEGAL and ILLEGAL output, same exit status.
        schema, data, tmp = paths
        instance = figure1_instance()
        instance.entry("uid=suciu,ou=databases,ou=attLabs,o=att").add_class(
            "packetRouter"
        )
        bad = tmp / "bad.ldif"
        dump_ldif(instance, str(bad))
        for source in (data, str(bad)):
            tail = ["--schema", schema, "--data", source]
            validated = main(["validate"] + tail), capsys.readouterr().out
            checked = main(["check"] + tail), capsys.readouterr().out
            assert validated == checked


class TestConsistency:
    def test_consistent_schema(self, paths, capsys):
        schema, _, _ = paths
        assert main(["consistency", "--schema", schema]) == 0
        assert "CONSISTENT" in capsys.readouterr().out

    def test_inconsistent_schema_with_proof(self, tmp_path, capsys):
        path = tmp_path / "bad.dsl"
        dump_dsl(den_schema_overconstrained(), str(path))
        assert main(["consistency", "--schema", str(path), "--proof"]) == 1
        out = capsys.readouterr().out
        assert "INCONSISTENT" in out and "∅ □" in out

    def test_failed_witness_synthesis_is_exit_3(self, paths, capsys, monkeypatch):
        """CONSISTENT per the rules but no witness could be built is
        *undecided*: a script must be able to see it."""
        from repro.consistency import checker
        from repro.consistency.witness import WitnessSynthesisError

        def fail(schema, closure):
            raise WitnessSynthesisError("no placement for class 'x'")

        monkeypatch.setattr(checker, "synthesize_witness", fail)
        schema, _, tmp = paths
        witness = tmp / "witness.ldif"
        assert main(["consistency", "--schema", schema,
                     "--witness", str(witness)]) == 3
        captured = capsys.readouterr()
        assert "CONSISTENT" in captured.out
        line = "witness synthesis failed: no placement for class 'x'"
        assert line in captured.out and line in captured.err
        assert not witness.exists()
        # Without --witness nothing is synthesized: still plain 0.
        assert main(["consistency", "--schema", schema]) == 0

    def test_witness_written(self, paths, capsys):
        schema, _, tmp = paths
        witness = tmp / "witness.ldif"
        assert main(["consistency", "--schema", schema,
                     "--witness", str(witness)]) == 0
        instance = load_ldif(str(witness))
        assert len(instance) > 0


class TestQuery:
    def test_filter_prints_dns(self, paths, capsys):
        _, data, _ = paths
        assert main(["query", "--data", data,
                     "--filter", "(objectClass=orgUnit)"]) == 0
        out = capsys.readouterr().out
        assert "ou=attLabs,o=att" in out
        assert "ou=databases,ou=attLabs,o=att" in out

    def test_compound_filter(self, paths, capsys):
        _, data, _ = paths
        main(["query", "--data", data,
              "--filter", "(&(objectClass=person)(mail=*))"])
        out = capsys.readouterr().out
        assert "uid=laks" in out and "uid=suciu" not in out

    def test_hierarchical_query(self, paths, capsys):
        _, data, _ = paths
        assert main(["query", "--data", data, "--hquery",
                     "(d (objectClass=orgUnit) (objectClass=researcher))"]) == 0
        out = capsys.readouterr().out
        assert "ou=attLabs,o=att" in out and "ou=databases" in out

    def test_filter_and_hquery_mutually_exclusive(self, paths):
        _, data, _ = paths
        with pytest.raises(SystemExit):
            main(["query", "--data", data, "--filter", "(a=1)",
                  "--hquery", "(objectClass=x)"])


class TestTranslate:
    def test_shows_figure4_queries(self, paths, capsys):
        schema, _, _ = paths
        assert main(["translate", "--schema", schema]) == 0
        out = capsys.readouterr().out
        assert "σ⁻" in out and "(objectClass=orgGroup)" in out


class TestApply:
    CHANGES = """\
dn: ou=theory,ou=attLabs,o=att
changetype: add
objectClass: orgUnit
objectClass: orgGroup
objectClass: top
ou: theory

dn: uid=nina,ou=theory,ou=attLabs,o=att
changetype: add
objectClass: person
objectClass: top
uid: nina
name: nina novak
"""

    BAD_CHANGES = """\
dn: ou=empty,o=att
changetype: add
objectClass: orgUnit
objectClass: orgGroup
objectClass: top
ou: empty
"""

    def test_legal_changes_applied(self, paths, capsys):
        schema, data, tmp = paths
        changes = tmp / "changes.ldif"
        changes.write_text(self.CHANGES)
        out = tmp / "updated.ldif"
        code = main(["apply", "--schema", schema, "--data", data,
                     "--changes", str(changes), "--out", str(out)])
        assert code == 0
        assert "APPLIED" in capsys.readouterr().out
        updated = load_ldif(str(out))
        assert updated.find("uid=nina,ou=theory,ou=attLabs,o=att") is not None
        # and the result validates
        assert main(["validate", "--schema", schema, "--data", str(out)]) == 0

    def test_illegal_changes_rejected(self, paths, capsys):
        schema, data, tmp = paths
        changes = tmp / "bad-changes.ldif"
        changes.write_text(self.BAD_CHANGES)
        code = main(["apply", "--schema", schema, "--data", data,
                     "--changes", str(changes)])
        assert code == 1
        out = capsys.readouterr().out
        assert "REJECTED" in out and "orgGroup →→ person" in out


class TestRepair:
    def test_repair_suggestions_printed(self, tmp_path, capsys):
        path = tmp_path / "bad.dsl"
        dump_dsl(den_schema_overconstrained(), str(path))
        code = main(["consistency", "--schema", str(path), "--repair"])
        assert code == 1
        out = capsys.readouterr().out
        assert "repair suggestions" in out
        assert "top ↛ policy" in out


class TestDiscover:
    def test_discovered_schema_validates_its_source(self, paths):
        _, data, tmp = paths
        out = tmp / "discovered.dsl"
        assert main(["discover", "--data", data, "--out", str(out)]) == 0
        assert main(["validate", "--schema", str(out), "--data", data]) == 0
        assert main(["consistency", "--schema", str(out)]) == 0

    def test_discover_to_stdout(self, paths, capsys):
        _, data, _ = paths
        assert main(["discover", "--data", data]) == 0
        out = capsys.readouterr().out
        assert "require orgGroup ->> person" in out


class TestGenerate:
    @pytest.mark.parametrize("workload", ["whitepages", "den"])
    def test_generate_validates(self, tmp_path, workload):
        out_ldif = tmp_path / "gen.ldif"
        out_dsl = tmp_path / "gen.dsl"
        assert main(["generate", "--workload", workload, "--scale", "1",
                     "--out", str(out_ldif), "--schema-out", str(out_dsl)]) == 0
        assert main(["validate", "--schema", str(out_dsl),
                     "--data", str(out_ldif)]) == 0

    def test_generate_to_stdout(self, capsys):
        assert main(["generate", "--workload", "whitepages", "--scale", "1"]) == 0
        assert "dn: o=org0" in capsys.readouterr().out


class TestFsckAndRecover:
    @pytest.fixture()
    def store_dir(self, tmp_path, paths):
        from repro.store import DirectoryStore
        from repro.updates.operations import UpdateTransaction

        schema, _, _ = paths
        path = str(tmp_path / "store")
        with DirectoryStore.create(
            path, whitepages_schema(), figure1_instance()
        ) as store:
            tx = UpdateTransaction().insert(
                "ou=cliunit,o=att", ["orgUnit", "orgGroup", "top"],
                {"ou": ["cliunit"]},
            ).insert(
                "uid=cli,ou=cliunit,o=att", ["person", "top"],
                {"uid": ["cli"], "name": ["c li"]},
            )
            assert store.apply(tx).applied
        return schema, path

    def test_fsck_healthy_store(self, store_dir, capsys):
        schema, path = store_dir
        assert main(["fsck", path, "--schema", schema]) == 0
        out = capsys.readouterr().out
        assert "HEALTHY" in out
        assert "generation: 1" in out
        assert "committed records: 1" in out
        assert "quarantined bytes: 0" in out
        assert "legality: legal" in out

    def test_fsck_reports_torn_tail(self, store_dir, capsys):
        import os

        from repro.store.wal import encode_record

        schema, path = store_dir
        frame = encode_record(2, 1, "dn: ou=torn,o=att\nchangetype: add\n")
        with open(os.path.join(path, "journal.ldif"), "ab") as fh:
            fh.write(frame[: len(frame) // 2])
        assert main(["fsck", path, "--schema", schema]) == 1
        out = capsys.readouterr().out
        assert "DAMAGED" in out and "tail: torn" in out
        # fsck is a dry run: the journal still holds the torn bytes
        assert main(["fsck", path]) == 1

    def test_fsck_missing_store(self, tmp_path, capsys):
        missing = str(tmp_path / "nowhere")
        assert main(["fsck", missing]) == 1
        assert "fsck:" in capsys.readouterr().out

    def test_recover_repairs_torn_tail(self, store_dir, capsys):
        import os

        from repro.store.wal import encode_record

        schema, path = store_dir
        frame = encode_record(2, 1, "dn: ou=torn,o=att\nchangetype: add\n")
        with open(os.path.join(path, "journal.ldif"), "ab") as fh:
            fh.write(frame[: len(frame) // 3])
        assert main(["recover", path, "--schema", schema]) == 0
        assert "REPAIRED" in capsys.readouterr().out
        assert os.path.exists(os.path.join(path, "journal.quarantine"))
        assert main(["fsck", path, "--schema", schema]) == 0
        assert "HEALTHY" in capsys.readouterr().out

    def test_recover_corruption_needs_force(self, store_dir, capsys):
        import os

        schema, path = store_dir
        with open(os.path.join(path, "journal.ldif"), "a") as fh:
            fh.write("this is not a wal frame\n")
        assert main(["recover", path, "--schema", schema]) == 1
        assert "STILL DAMAGED" in capsys.readouterr().out
        assert main(["recover", path, "--schema", schema, "--force"]) == 0
        assert "REPAIRED" in capsys.readouterr().out
        assert main(["fsck", path, "--schema", schema]) == 0

    @pytest.mark.parametrize("command", ["fsck", "recover"])
    def test_headerless_snapshot_is_damage(self, store_dir, capsys, command):
        """A snapshot whose first line is no generation header: both
        commands name the file and exit 1, and neither rewrites it."""
        import os

        schema, path = store_dir
        snapshot = os.path.join(path, "snapshot.ldif")
        with open(snapshot, encoding="utf-8") as fh:
            headed = fh.read()
        headerless = headed.partition("\n")[2].encode("utf-8")
        with open(snapshot, "wb") as fh:
            fh.write(headerless)
        assert main([command, path, "--schema", schema]) == 1
        out = capsys.readouterr().out
        assert f"{command}: {snapshot} does not begin with a snapshot header" in out
        with open(snapshot, "rb") as fh:
            assert fh.read() == headerless


class TestCheck:
    def test_legal_instance_exits_zero(self, paths, capsys):
        schema, data, _ = paths
        assert main(["check", "--schema", schema, "--data", data]) == 0
        assert "LEGAL" in capsys.readouterr().out

    def test_illegal_instance_exits_one(self, paths, capsys):
        schema, data, tmp = paths
        instance = figure1_instance()
        instance.entry("uid=suciu,ou=databases,ou=attLabs,o=att").add_class(
            "packetRouter"
        )
        bad = tmp / "bad.ldif"
        dump_ldif(instance, str(bad))
        assert main(["check", "--schema", schema, "--data", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "ILLEGAL" in out and "packetRouter" in out

    def test_profile_prints_engine_counters(self, paths, capsys):
        schema, data, _ = paths
        assert main(["check", "--schema", schema, "--data", data,
                     "--profile"]) == 0
        out = capsys.readouterr().out
        assert "entries content-checked" in out
        assert "wall time" in out

    def test_structure_flag_is_gone(self, paths, tmp_path):
        schema, data, _ = paths
        for argv in (
            ["check", "--schema", schema, "--data", data],
            ["serve", str(tmp_path / "store"), "--schema", schema],
        ):
            with pytest.raises(SystemExit) as refused:
                main(argv + ["--structure", "batched"])
            assert refused.value.code == 2

    def test_jobs_flag_is_gone(self, paths, tmp_path):
        # one sequential engine: nothing sizes a worker pool
        schema, data, _ = paths
        for argv in (
            ["check", "--schema", schema, "--data", data],
            ["serve", str(tmp_path / "store"), "--schema", schema],
        ):
            with pytest.raises(SystemExit) as refused:
                main(argv + ["--jobs", "2"])
            assert refused.value.code == 2

    @pytest.mark.parametrize(
        "flags",
        [["--follow"], ["--interval", "0.5"], ["--iterations", "3"],
         ["--interval", "0"], ["--iterations", "0"],
         ["--follow", "--iterations", "1"]],
    )
    def test_follow_flags_without_store_exit_two(self, paths, capsys, flags):
        schema, data, _ = paths
        assert main(["check", "--schema", schema, "--data", data] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert all(flag in captured.err for flag in flags if flag.startswith("--"))


class TestCheckStore:
    @pytest.fixture()
    def live_store(self, tmp_path, paths):
        from repro.store import DirectoryStore
        from repro.updates.operations import UpdateTransaction

        schema, _, _ = paths
        path = str(tmp_path / "store")
        store = DirectoryStore.create(
            path, whitepages_schema(), figure1_instance()
        )
        tx = UpdateTransaction().insert(
            "ou=cliunit,o=att", ["orgUnit", "orgGroup", "top"],
            {"ou": ["cliunit"]},
        ).insert(
            "uid=cli,ou=cliunit,o=att", ["person", "top"],
            {"uid": ["cli"], "name": ["c li"]},
        )
        assert store.apply(tx).applied
        yield schema, path, store
        store.close()

    def test_check_store_against_live_writer(self, live_store, capsys):
        schema, path, _store = live_store
        # the writer is still open (holds the lock): the reader path
        # must work anyway
        assert main(["check", "--schema", schema, "--store", path]) == 0
        out = capsys.readouterr().out
        assert "[gen 1 seq 1] LEGAL" in out

    def test_check_store_follow_sees_new_commits(self, live_store, capsys):
        from repro.updates.operations import UpdateTransaction

        schema, path, store = live_store
        tx = UpdateTransaction().insert(
            "ou=cliunit2,o=att", ["orgUnit", "orgGroup", "top"],
            {"ou": ["cliunit2"]},
        ).insert(
            "uid=cli2,ou=cliunit2,o=att", ["person", "top"],
            {"uid": ["cli2"], "name": ["c li2"]},
        )
        assert store.apply(tx).applied
        assert main(["check", "--schema", schema, "--store", path,
                     "--follow", "--iterations", "2",
                     "--interval", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "[gen 1 seq 2] LEGAL" in out

    def test_check_store_profile(self, live_store, capsys):
        schema, path, _store = live_store
        assert main(["check", "--schema", schema, "--store", path,
                     "--profile"]) == 0
        assert "entries content-checked" in capsys.readouterr().out

    def test_check_sharded_store_profile(self, tmp_path, paths, capsys):
        """The sharded follow loop used to drop the ``--profile`` table
        its plain twin printed; there is one loop now."""
        schema, data, _ = paths
        path = str(tmp_path / "sharded")
        assert main(["create", path, "--schema", schema, "--data", data,
                     "--shard", "att=o=att",
                     "--shard", "labs=ou=attLabs,o=att"]) == 0
        capsys.readouterr()
        assert main(["check", "--schema", schema, "--store", path,
                     "--profile"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("[att@g1.0 labs@g1.0] LEGAL: 6 entries\n")
        assert "entries content-checked" in out

    @pytest.mark.parametrize("interval", ["0", "-1", "-0.5"])
    def test_follow_rejects_non_positive_interval(
        self, live_store, capsys, interval
    ):
        # interval <= 0 would busy-spin the CPU between refreshes; the
        # command must refuse it before touching the store.
        schema, path, _store = live_store
        assert main(["check", "--schema", schema, "--store", path,
                     "--follow", "--interval", interval,
                     "--iterations", "1"]) == 2
        err = capsys.readouterr().err
        assert "--interval must be positive" in err

    def test_non_positive_interval_ok_without_follow(self, live_store, capsys):
        # Without --follow the interval is never used, so a bogus value
        # must not break a one-shot check.
        schema, path, _store = live_store
        assert main(["check", "--schema", schema, "--store", path,
                     "--interval", "0"]) == 0
        assert "LEGAL" in capsys.readouterr().out

    def test_data_and_store_mutually_exclusive(self, live_store, paths):
        schema, data, _ = paths
        _, path, _store = live_store
        with pytest.raises(SystemExit):
            main(["check", "--schema", schema, "--data", data,
                  "--store", path])


class TestFsckReadOnly:
    @pytest.fixture()
    def live_store(self, tmp_path, paths):
        from repro.store import DirectoryStore

        schema, _, _ = paths
        path = str(tmp_path / "store")
        store = DirectoryStore.create(
            path, whitepages_schema(), figure1_instance()
        )
        yield schema, path, store
        store.close()

    def test_read_only_inspection_of_locked_store(self, live_store, capsys):
        schema, path, _store = live_store
        assert main(["fsck", path, "--schema", schema, "--read-only"]) == 0
        out = capsys.readouterr().out
        assert "HEALTHY" in out
        assert "view: generation 1, seq 0" in out
        assert "lag: current" in out

    def test_read_only_requires_schema(self, live_store, capsys):
        _, path, _store = live_store
        assert main(["fsck", path, "--read-only"]) == 2
        assert "requires --schema" in capsys.readouterr().err

    def test_read_only_reports_lag_against_live_writer(
        self, live_store, capsys
    ):
        from repro.updates.operations import UpdateTransaction

        schema, path, store = live_store
        tx = UpdateTransaction().insert(
            "ou=fsckunit,o=att", ["orgUnit", "orgGroup", "top"],
            {"ou": ["fsckunit"]},
        ).insert(
            "uid=fsck,ou=fsckunit,o=att", ["person", "top"],
            {"uid": ["fsck"], "name": ["f sck"]},
        )
        assert store.apply(tx).applied
        assert main(["fsck", path, "--schema", schema, "--read-only"]) == 0
        assert "view: generation 1, seq 1" in capsys.readouterr().out

    def test_read_only_touches_nothing(self, live_store, tmp_path):
        import os

        schema, path, store = live_store
        store.compact()
        before = {
            name: open(os.path.join(path, name), "rb").read()
            for name in sorted(os.listdir(path))
            if os.path.isfile(os.path.join(path, name))
        }
        assert main(["fsck", path, "--schema", schema, "--read-only"]) == 0
        after = {
            name: open(os.path.join(path, name), "rb").read()
            for name in sorted(os.listdir(path))
            if os.path.isfile(os.path.join(path, name))
        }
        assert after == before


class TestFrontdoorCli:
    """The read-balancing proxy's CLI surface: argument validation and
    ``fsck --frontdoor`` topology reporting (the running-daemon drain
    path is exercised end to end in ``tests/test_frontdoor.py``)."""

    def test_member_addresses_validated(self, capsys):
        assert main(["frontdoor", "--primary", "nocolon"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err
        assert main(["frontdoor", "--primary", "127.0.0.1:3890",
                     "--replica", "badport:x"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_fsck_requires_directory_or_frontdoor(self, capsys):
        assert main(["fsck"]) == 2
        assert "store directory" in capsys.readouterr().err

    def test_fsck_frontdoor_address_validated(self, capsys):
        assert main(["fsck", "--frontdoor", "nope"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_fsck_frontdoor_unreachable(self, capsys):
        # port 1 is privileged and never bound in the test environment
        assert main(["fsck", "--frontdoor", "127.0.0.1:1"]) == 1
        assert "cannot reach" in capsys.readouterr().out

    def test_fsck_frontdoor_reports_topology(self, tmp_path, capsys):
        import asyncio
        import threading

        from repro.server import DirectoryServer, FrontDoor
        from repro.store import DirectoryStore
        from repro.workloads import whitepages_registry

        path = str(tmp_path / "store")
        DirectoryStore.create(
            path, whitepages_schema(), figure1_instance(),
            whitepages_registry(),
        ).close()
        ready = threading.Event()
        done = threading.Event()
        holder = {}

        def serve():
            async def run():
                server = DirectoryServer(
                    path, whitepages_schema(), whitepages_registry(),
                    port=0,
                )
                await server.start()
                door = FrontDoor(f"127.0.0.1:{server.port}", [])
                await door.start()
                holder["port"] = door.port
                ready.set()
                while not done.is_set():
                    await asyncio.sleep(0.05)
                await door.stop(drain=False)
                await server.stop(drain=False)

            asyncio.run(run())

        thread = threading.Thread(target=serve)
        thread.start()
        try:
            assert ready.wait(30), "topology thread never came up"
            code = main(
                ["fsck", "--frontdoor", f"127.0.0.1:{holder['port']}"]
            )
            out = capsys.readouterr().out
            assert code == 0, out
            assert "TOPOLOGY SERVING" in out
            assert "primary" in out and "alive" in out
            assert "0 read(s) served, 0 stale discarded" in out
        finally:
            done.set()
            thread.join(30)
