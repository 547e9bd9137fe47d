"""Tests for the crash-safe directory store (snapshot + WAL journal)."""

import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    ModelError,
    StoreError,
    StoreLockedError,
    StoreReadOnlyError,
    UpdateError,
)
from repro.ldif import serialize_ldif
from repro.ldif.modify import parse_modifications
from repro.legality.report import Kind, LegalityReport, Violation
from repro.store import DirectoryStore, open_view
from repro.store import sharded as sharded_module
from repro.store.faults import FaultPlan, FaultyIO
from repro.store.sharded import ShardedStore
from repro.store.wal import StoreIO, encode_record
from repro.updates.incremental import IncrementalChecker
from repro.updates.operations import UpdateTransaction
from repro.workloads import (
    figure1_instance,
    random_transaction,
    whitepages_registry,
    whitepages_schema,
)
from invariants import canonical_records, instance_state


@pytest.fixture()
def store(tmp_path, wp_schema):
    with DirectoryStore.create(
        str(tmp_path / "store"), wp_schema, figure1_instance()
    ) as handle:
        yield handle


def good_tx(n=1, seed=0, instance=None):
    return random_transaction(instance or figure1_instance(), inserts=n, seed=seed)


def unit_tx(i):
    """A deterministic legal transaction: one org unit with one person."""
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


class TestLifecycle:
    def test_create_writes_snapshot_and_journal(self, tmp_path, wp_schema):
        path = tmp_path / "store"
        DirectoryStore.create(str(path), wp_schema, figure1_instance()).close()
        assert (path / "snapshot.ldif").exists()
        assert (path / "journal.ldif").exists()

    def test_create_twice_rejected(self, tmp_path, wp_schema):
        path = str(tmp_path / "store")
        DirectoryStore.create(path, wp_schema, figure1_instance()).close()
        with pytest.raises(UpdateError, match="already contains"):
            DirectoryStore.create(path, wp_schema, figure1_instance())

    def test_create_rejects_nonempty_directory(self, tmp_path, wp_schema):
        path = tmp_path / "store"
        path.mkdir()
        (path / "unrelated.txt").write_text("hello")
        with pytest.raises(UpdateError, match="not empty"):
            DirectoryStore.create(str(path), wp_schema, figure1_instance())

    def test_create_accepts_existing_empty_directory(self, tmp_path, wp_schema):
        path = tmp_path / "store"
        path.mkdir()
        DirectoryStore.create(str(path), wp_schema, figure1_instance()).close()
        assert (path / "snapshot.ldif").exists()

    def test_create_rejects_illegal_initial(self, tmp_path, wp_schema):
        bad = figure1_instance()
        bad.entry("uid=suciu,ou=databases,ou=attLabs,o=att").add_class("martian")
        with pytest.raises(UpdateError):
            DirectoryStore.create(str(tmp_path / "store"), wp_schema, bad)

    def test_one_verdict_guards_create_check_and_recover(
        self, tmp_path, wp_schema, wp_schema_extras
    ):
        # Legal in content and structure, illegal only in the §6.1
        # extras (a duplicate uid key): the one session pass every
        # entry point calls must see it.
        from repro.store.recovery import recover

        tainted = figure1_instance()
        tainted.add_entry(
            "ou=databases,ou=attLabs,o=att", "uid=twin", ["person", "top"],
            {"uid": ["laks"], "name": ["not laks"]},
        )
        path = str(tmp_path / "store")
        with pytest.raises(UpdateError, match="instance is not legal to begin with"):
            DirectoryStore.create(path, wp_schema_extras, tainted)
        DirectoryStore.create(path, wp_schema, tainted).close()
        _, report = recover(path, wp_schema_extras, repair=False)
        assert report.legal is False and report.read_only
        assert any("violates the schema" in note for note in report.notes)
        _, clean = recover(path, wp_schema, repair=False)
        assert clean.legal and not clean.read_only
        with DirectoryStore.open(path, wp_schema_extras) as store:
            assert store.read_only
            assert [v.kind for v in store.check()] == ["duplicate-key"]

    def test_open_empty_journal_roundtrips(self, tmp_path, wp_schema):
        path = str(tmp_path / "store")
        DirectoryStore.create(path, wp_schema, figure1_instance()).close()
        with DirectoryStore.open(
            path, wp_schema, registry=whitepages_registry()
        ) as reopened:
            assert serialize_ldif(reopened.instance) == serialize_ldif(
                figure1_instance()
            )
            assert reopened.generation == 1
            assert not reopened.read_only


class TestLocking:
    def test_second_open_rejected_while_lock_held(self, tmp_path, wp_schema):
        path = str(tmp_path / "store")
        store = DirectoryStore.create(path, wp_schema, figure1_instance())
        try:
            with pytest.raises(StoreLockedError):
                DirectoryStore.open(path, wp_schema,
                                    registry=whitepages_registry())
        finally:
            store.close()

    def test_close_releases_the_lock(self, tmp_path, wp_schema):
        path = str(tmp_path / "store")
        DirectoryStore.create(path, wp_schema, figure1_instance()).close()
        first = DirectoryStore.open(path, wp_schema,
                                    registry=whitepages_registry())
        first.close()
        second = DirectoryStore.open(path, wp_schema,
                                     registry=whitepages_registry())
        second.close()

    def test_closed_store_refuses_updates(self, tmp_path, wp_schema):
        path = str(tmp_path / "store")
        store = DirectoryStore.create(path, wp_schema, figure1_instance())
        store.close()
        with pytest.raises(StoreError, match="closed"):
            store.apply(unit_tx(1))


class TestUpdatesAndRecovery:
    def test_committed_updates_survive_reopen(self, tmp_path, wp_schema):
        path = str(tmp_path / "store")
        store = DirectoryStore.create(path, wp_schema, figure1_instance())
        for seed in range(20):
            tx = good_tx(n=2, seed=seed, instance=store.instance)
            assert store.apply(tx).applied
        before = serialize_ldif(store.instance)
        store.close()

        with DirectoryStore.open(
            path, wp_schema, registry=whitepages_registry()
        ) as reopened:
            assert serialize_ldif(reopened.instance) == before
            assert reopened.journal_length == 20

    def test_torn_final_record_discarded(self, tmp_path, wp_schema):
        path = str(tmp_path / "store")
        store = DirectoryStore.create(path, wp_schema, figure1_instance())
        assert store.apply(good_tx(1, seed=2, instance=store.instance)).applied
        good_state = serialize_ldif(store.instance)
        store.close()
        # simulate a crash mid-append: half a frame, cut mid-payload
        frame = encode_record(2, 1, "dn: ou=torn,o=att\nchangetype: add\n")
        with open(os.path.join(path, "journal.ldif"), "ab") as fh:
            fh.write(frame[: len(frame) // 2])
        with DirectoryStore.open(
            path, wp_schema, registry=whitepages_registry()
        ) as reopened:
            assert serialize_ldif(reopened.instance) == good_state
            assert not reopened.read_only  # a torn tail is repaired, not fatal
            assert reopened.recovery_report.tail_state == "torn"
        # the torn bytes were quarantined, not silently dropped
        assert os.path.getsize(os.path.join(path, "journal.quarantine")) > 0

    def test_foreign_garbage_degrades_to_read_only(self, tmp_path, wp_schema):
        path = str(tmp_path / "store")
        store = DirectoryStore.create(path, wp_schema, figure1_instance())
        assert store.apply(good_tx(1, seed=3, instance=store.instance)).applied
        good_state = serialize_ldif(store.instance)
        store.close()
        # bytes our appender never writes (the seed store's torn-record
        # simulation): complete lines that are not WAL frames
        with open(os.path.join(path, "journal.ldif"), "a", encoding="utf-8") as fh:
            fh.write("dn: ou=torn,o=att\nchangetype: add\nobjectClass: orgUnit\n")
        with DirectoryStore.open(
            path, wp_schema, registry=whitepages_registry()
        ) as reopened:
            assert serialize_ldif(reopened.instance) == good_state
            assert reopened.read_only
            assert reopened.recovery_report.tail_state == "corrupt"
            with pytest.raises(StoreReadOnlyError):
                reopened.apply(unit_tx(9))

    def test_checksum_damage_degrades_to_read_only(self, tmp_path, wp_schema):
        path = str(tmp_path / "store")
        store = DirectoryStore.create(path, wp_schema, figure1_instance())
        for i in (1, 2):
            assert store.apply(unit_tx(i)).applied
        store.close()
        journal = os.path.join(path, "journal.ldif")
        data = bytearray(open(journal, "rb").read())
        data[data.find(b"\n") + 5] ^= 0xFF  # flip a payload byte of record 1
        open(journal, "wb").write(bytes(data))
        with DirectoryStore.open(
            path, wp_schema, registry=whitepages_registry()
        ) as reopened:
            assert reopened.read_only
            assert reopened.recovery_report.tail_state == "corrupt"
            # damage in record 1 loses record 2 too — but never silently:
            assert reopened.journal_length == 0
            assert serialize_ldif(reopened.instance) == serialize_ldif(
                figure1_instance()
            )

    def test_compaction_preserves_state(self, tmp_path, wp_schema):
        path = str(tmp_path / "store")
        store = DirectoryStore.create(path, wp_schema, figure1_instance())
        for seed in (3, 4):
            assert store.apply(good_tx(1, seed=seed, instance=store.instance)).applied
        state = serialize_ldif(store.instance)
        store.compact()
        assert store.journal_length == 0
        assert store.generation == 2
        store.close()
        with DirectoryStore.open(
            path, wp_schema, registry=whitepages_registry()
        ) as reopened:
            assert serialize_ldif(reopened.instance) == state
            assert reopened.generation == 2

    def test_check_reports_current_contents(self, store):
        assert store.check().is_legal

    def test_headerless_snapshot_is_refused(self, tmp_path, wp_schema):
        """A snapshot whose first line is no generation header is damage:
        ``open`` refuses it with a StoreError naming the file, touches
        nothing, and leaves the lock free."""
        path = tmp_path / "store"
        path.mkdir()
        snapshot = path / "snapshot.ldif"
        snapshot.write_text(serialize_ldif(figure1_instance()), encoding="utf-8")
        (path / "journal.ldif").write_bytes(b"")
        before = snapshot.read_bytes()
        for _ in range(2):  # the refusal released the lock it took
            with pytest.raises(StoreError, match="snapshot header") as excinfo:
                DirectoryStore.open(
                    str(path), wp_schema, registry=whitepages_registry()
                )
            assert str(snapshot) in str(excinfo.value)
        assert snapshot.read_bytes() == before

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4))
    def test_recovery_equals_live_state(self, tmp_path_factory, seed, n_txs):
        """Crash-recovery property: after any sequence of committed
        transactions, open() reproduces the live state exactly."""
        schema = whitepages_schema()
        path = str(tmp_path_factory.mktemp("store") / "s")
        store = DirectoryStore.create(path, schema, figure1_instance())
        rng = random.Random(seed)
        for i in range(n_txs):
            tx = good_tx(rng.randrange(1, 3), seed=seed * 10 + i,
                         instance=store.instance)
            assert store.apply(tx).applied
        live = serialize_ldif(store.instance)
        store.close()
        with DirectoryStore.open(
            path, schema, registry=whitepages_registry()
        ) as recovered:
            assert serialize_ldif(recovered.instance) == live
            assert recovered.check().is_legal


class TestCaseCollisionMigration:
    """Stores written before DN resolution became case-insensitive can
    hold two DNs that differ only in case.  Those must fail to load
    with an explicit migration error naming both spellings — not an
    uncaught duplicate-entry exception."""

    COLLIDER = (
        "\ndn: uid=ARMSTRONG,o=att\n"
        "objectClass: person\n"
        "objectClass: top\n"
        "uid: armstrong\n"
        "name: duplicate spelling\n"
    )

    def test_snapshot_collision_is_a_migration_error(self, tmp_path, wp_schema):
        path = str(tmp_path / "store")
        DirectoryStore.create(path, wp_schema, figure1_instance()).close()
        with open(
            os.path.join(path, "snapshot.ldif"), "a", encoding="utf-8"
        ) as fh:
            fh.write(self.COLLIDER)
        with pytest.raises(StoreError) as excinfo:
            DirectoryStore.open(path, wp_schema, registry=whitepages_registry())
        message = str(excinfo.value)
        assert "case-insensitive" in message
        assert "migrate" in message
        # Both spellings are named, so the operator knows what to rename.
        assert "uid=ARMSTRONG,o=att" in message
        assert "uid=armstrong,o=att" in message

    def test_journal_collision_degrades_with_migration_note(
        self, tmp_path, wp_schema
    ):
        """A replayed journal frame colliding case-insensitively hits
        the blind-replay failure path: the store opens read-only up to
        the committed prefix, and the notes spell out the migration."""
        path = str(tmp_path / "store")
        DirectoryStore.create(path, wp_schema, figure1_instance()).close()
        payload = (
            "dn: uid=ARMSTRONG,o=att\n"
            "changetype: add\n"
            "objectClass: person\n"
            "objectClass: top\n"
            "uid: armstrong\n"
            "name: duplicate spelling\n"
        )
        with open(os.path.join(path, "journal.ldif"), "ab") as fh:
            fh.write(encode_record(1, 1, payload))
        with DirectoryStore.open(
            path, wp_schema, registry=whitepages_registry()
        ) as reopened:
            assert reopened.read_only
            notes = " ".join(reopened.recovery_report.notes)
            assert "differ only in case" in notes
            assert "migrate" in notes
            # The committed prefix is intact.
            assert reopened.instance.find("uid=armstrong,o=att") is not None


class TestCommitStats:
    def test_apply_attaches_per_transaction_stats(self, store):
        outcome = store.apply(unit_tx(1))
        assert outcome.applied
        assert outcome.stats is not None
        assert outcome.stats.entries_checked >= 2  # the unit + its member

    def test_stats_are_delta_scoped_not_cumulative(self, store):
        first = store.apply(unit_tx(1)).stats
        second = store.apply(unit_tx(2)).stats
        # same transaction shape -> same work; cumulative counters would
        # make the second strictly larger
        assert second.entries_checked <= first.entries_checked

    def test_rejected_transactions_still_report_work(self, store):
        bad = UpdateTransaction().insert(
            "ou=empty,o=att", ["orgUnit", "orgGroup", "top"], {"ou": ["empty"]}
        )
        outcome = store.apply(bad)
        assert not outcome.applied
        assert outcome.stats is not None
        assert outcome.stats.entries_checked >= 1


def _leftover_verdicts(path, schema, instance, damage=None):
    """Write the ``verdicts.cache`` older stores kept beside the
    snapshot, in its last format (``damage``: ``None`` intact, or
    ``"truncate"`` / ``"garble"`` / ``"bad-crc"``).  It maps every
    entry's content to a bogus violation: read, it would poison every
    verdict of ``instance``.  Returns the file's path."""
    import hashlib
    import json
    import zlib

    from repro.schema.dsl import serialize_dsl

    verdicts = {
        entry.content_fingerprint(): [["bogus", "read from a leftover file", None]]
        for entry in instance
    }
    canonical = json.dumps(verdicts, sort_keys=True, separators=(",", ":"))
    payload = {
        "format": 1,
        "schema": hashlib.blake2b(serialize_dsl(schema).encode("utf-8")).hexdigest(),
        "generation": 1,
        "crc": zlib.crc32(canonical.encode("utf-8")) + (damage == "bad-crc"),
        "verdicts": verdicts,
    }
    data = json.dumps(payload, sort_keys=True).encode("utf-8")
    if damage == "truncate":
        data = data[: len(data) // 2]
    elif damage == "garble":
        data = data[:4] + b"\x00\xffnonsense" + data[14:]
    leftover = os.path.join(path, "verdicts.cache")
    with open(leftover, "wb") as fh:
        fh.write(data)
    return leftover


class TestWarmStartSidecar:
    """What is left of the warm-start verdict sidecar: no store writes a
    ``verdicts.cache`` any more, one an older store left is never read —
    every open checks cold — and the next compaction deletes it."""

    @staticmethod
    def _reopened_cold(path, schema, leftover):
        with DirectoryStore.open(
            path, schema, registry=whitepages_registry()
        ) as reopened:
            guard = reopened._guard
            baseline = guard.session.stats.copy()
            assert guard.recheck().is_legal
            delta = guard.session.stats.since(baseline)
            assert delta.cache_hits == 0
            assert delta.entries_checked == len(reopened.instance)
            assert os.path.exists(leftover)
            reopened.compact()
            assert not os.path.exists(leftover)

    @pytest.mark.parametrize("damage", ["truncate", "garble", "bad-crc"])
    def test_corrupt_sidecar_degrades_to_cold_start(
        self, tmp_path, wp_schema, damage
    ):
        path = str(tmp_path / "store")
        DirectoryStore.create(path, wp_schema, figure1_instance()).close()
        leftover = _leftover_verdicts(path, wp_schema, figure1_instance(), damage)
        self._reopened_cold(path, wp_schema, leftover)

    def test_schema_mismatch_sidecar_ignored(self, tmp_path, wp_schema):
        path = str(tmp_path / "store")
        DirectoryStore.create(path, wp_schema, figure1_instance()).close()
        leftover = _leftover_verdicts(
            path, whitepages_schema(extras=True), figure1_instance()
        )
        self._reopened_cold(path, wp_schema, leftover)

    def test_an_intact_leftover_is_never_read(self, tmp_path, wp_schema):
        path = str(tmp_path / "store")
        DirectoryStore.create(path, wp_schema, figure1_instance()).close()
        leftover = _leftover_verdicts(path, wp_schema, figure1_instance())
        self._reopened_cold(path, wp_schema, leftover)

    def test_missing_sidecar_is_fine(self, tmp_path, wp_schema):
        """``create``, a commit, a compaction and ``close`` write none."""
        path = str(tmp_path / "store")
        store = DirectoryStore.create(path, wp_schema, figure1_instance())
        assert store.apply(unit_tx(1)).applied
        store.compact()
        store.close()
        assert "verdicts.cache" not in os.listdir(path)
        with DirectoryStore.open(
            path, wp_schema, registry=whitepages_registry()
        ) as reopened:
            assert reopened.check().is_legal


# ----------------------------------------------------------------------
# the write pipeline: stage -> check -> commit | abort
# ----------------------------------------------------------------------
DATABASES = "ou=databases,ou=attLabs,o=att"
SHARD_BASES = {"att": "o=att", "labs": "ou=attLabs,o=att"}


def _person_tx(uid, **extra):
    attributes = {"uid": [uid], "name": [f"n {uid}"], **extra}
    return UpdateTransaction().insert(
        f"uid=x{uid},{DATABASES}", ["person", "top"], attributes
    )


def _modify(dn_uid, clause):
    return parse_modifications(
        f"dn: uid={dn_uid},{DATABASES}\nchangetype: modify\n{clause}\n-\n"
    )[0]


#: One change per (kind, exit); every one targets the ``labs`` shard.
#: ``armstrong`` is a uid held under ``o=att`` — the other shard — so
#: the key check must look across the cut.  The composite exit stages
#: the *legal* change and has the composite step refuse it.
PIPELINE_CHANGES = {
    ("txn", "commit"): _person_tx("new"),
    ("txn", "guard"): _person_tx("m", mail=["m@example.org"]),  # not online
    ("txn", "extras"): _person_tx("armstrong"),
    ("txn", "composite"): _person_tx("new"),
    ("modify", "commit"): _modify("laks", "replace: mail\nmail: l@example.edu"),
    ("modify", "guard"): _modify("suciu", "replace: mail\nmail: d@x.com"),
    ("modify", "extras"): _modify("suciu", "replace: uid\nuid: armstrong"),
    ("modify", "composite"): _modify(
        "laks", "replace: mail\nmail: l@example.edu"
    ),
}


def _tree_bytes(root):
    found = {}
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                found[os.path.relpath(path, root)] = handle.read()
    return found


def _create(path, layout, schema, registry, io=None):
    if layout == "plain":
        return DirectoryStore.create(
            path, schema, figure1_instance(), registry, io=io
        )
    return ShardedStore.create(
        path, schema, SHARD_BASES, figure1_instance(), registry, io=io
    )


def _reopen(path, layout, schema, registry):
    opener = DirectoryStore if layout == "plain" else ShardedStore
    return opener.open(path, schema, registry)


def _frames(store):
    if isinstance(store, DirectoryStore):
        return {"store": store.journal_length}
    return {name: store.shard(name).journal_length for name in store.shard_names()}


def _veto(*args, **kwargs):
    report = LegalityReport()
    report.add(Violation(Kind.DISALLOWED_ATTRIBUTE, "injected composite veto"))
    return report


class TestWritePipeline:
    """Every write, on either store layout and of either change kind,
    leaves the pipeline through one of four exits — and only a commit
    leaves anything behind."""

    @pytest.mark.parametrize("exit", ["commit", "guard", "extras", "composite"])
    @pytest.mark.parametrize("kind", ["txn", "modify"])
    @pytest.mark.parametrize("layout", ["plain", "sharded"])
    def test_exit_contract(
        self, tmp_path, wp_schema_extras, wp_registry, monkeypatch,
        layout, kind, exit,
    ):
        path = str(tmp_path / "store")
        change = PIPELINE_CHANGES[kind, exit]
        store = _create(path, layout, wp_schema_extras, wp_registry)
        try:
            before = (
                canonical_records(store.instance), _tree_bytes(path), _frames(store)
            )
            write = store.apply if kind == "txn" else store.modify
            if exit != "composite":
                applied = write(change).applied
            elif layout == "plain":
                # a plain store has no composite step: do what the
                # sharded coordinator does when its own check refuses
                staged = store.stage(change)
                assert staged.outcome.applied
                staged.abort()
                applied = False
            else:
                monkeypatch.setattr(sharded_module, "_composite_report", _veto)
                outcome = write(change)
                monkeypatch.undo()
                assert any("rolled back" in c for c in outcome.checks)
                applied = outcome.applied
            assert applied == (exit == "commit")
            if exit == "commit":
                owner = "store" if layout == "plain" else "labs"
                assert _frames(store) == {
                    **before[2], owner: before[2][owner] + 1
                }
                grown = {
                    name for name, data in _tree_bytes(path).items()
                    if data != before[1][name]
                }
                assert len(grown) == 1 and grown.pop().endswith("journal.ldif")
                assert canonical_records(store.instance) != before[0]
            else:
                assert (
                    canonical_records(store.instance), _tree_bytes(path), _frames(store)
                ) == before
                assert store.check().is_legal
            after = canonical_records(store.instance)
        finally:
            store.close()
        with _reopen(path, layout, wp_schema_extras, wp_registry) as reopened:
            assert canonical_records(reopened.instance) == after

    @pytest.mark.parametrize("kind", ["txn", "modify"])
    @pytest.mark.parametrize("layout", ["plain", "sharded"])
    def test_append_failure_poisons_until_reopen(
        self, tmp_path, wp_schema_extras, wp_registry, layout, kind
    ):
        path = str(tmp_path / "store")
        io = FaultyIO(FaultPlan())
        store = _create(path, layout, wp_schema_extras, wp_registry, io=io)
        write = store.apply if kind == "txn" else store.modify
        try:
            assert store.apply(_person_tx("first")).applied
            committed = canonical_records(store.instance)
            io.plan.disk_budget = io.plan.bytes_written + 10  # next append fails
            with pytest.raises(StoreError, match="poisoned"):
                write(PIPELINE_CHANGES[kind, "commit"])
            for later in (
                lambda: store.apply(_person_tx("second")),
                lambda: store.modify(PIPELINE_CHANGES["modify", "commit"]),
                store.compact,
            ):
                with pytest.raises(StoreError, match="poisoned"):
                    later()
        finally:
            store.close()
        with _reopen(path, layout, wp_schema_extras, wp_registry) as recovered:
            assert canonical_records(recovered.instance) == committed
            assert recovered.apply(_person_tx("third")).applied

    @pytest.mark.parametrize(
        "clauses",
        [
            "add: objectClass\nobjectClass: orgUnit\n-\n"
            "delete: objectClass\nobjectClass: staffMember",
            "add: objectClass\nobjectClass: online\n-\n"
            "replace: telephoneNumber\ntelephoneNumber: +1 555 0100\n"
            "telephoneNumber: not a number",
        ],
        ids=["class-not-held", "ill-typed-replace"],
    )
    @pytest.mark.parametrize("layout", ["plain", "sharded"])
    def test_change_that_raises_is_rolled_back_like_a_rejected_one(
        self, tmp_path, wp_schema_extras, wp_registry, layout, clauses
    ):
        """A modify whose second clause raises used to escape between
        "apply" and the rollback: the first clause stayed applied in the
        writer's memory — nothing journaled, not poisoned, and every
        later write Δ-checked against a state no reader holds."""
        path = str(tmp_path / "store")
        initial = figure1_instance(wp_registry)  # typed, like a reopened store
        store = (
            DirectoryStore.create(path, wp_schema_extras, initial, wp_registry)
            if layout == "plain"
            else ShardedStore.create(
                path, wp_schema_extras, SHARD_BASES, initial, wp_registry
            )
        )

        def states():
            members = (
                [store] if layout == "plain"
                else [store.shard(name) for name in store.shard_names()]
            )
            return [instance_state(member.instance) for member in members]

        try:
            # telephoneNumber ahead of name: a restore must keep the order
            assert store.modify(_modify(
                "suciu", "add: telephoneNumber\ntelephoneNumber: +1 555 0199\n-\n"
                "replace: name\nname: dan suciu",
            )).applied
            before = states(), _tree_bytes(path), _frames(store)
            with pytest.raises(ModelError):
                store.modify(_modify("suciu", clauses))
            assert (states(), _tree_bytes(path), _frames(store)) == before
            assert store.check().is_legal
            with open_view(path, wp_schema_extras, wp_registry) as view:
                fresh = instance_state(view.instance)
            if layout == "plain":
                assert fresh == before[0][0]
            else:
                assert fresh == instance_state(store.composite_instance())
            # not poisoned: the next write is judged against that state
            assert store.modify(PIPELINE_CHANGES["modify", "commit"]).applied
            assert store.check().is_legal
        finally:
            store.close()

    @pytest.mark.parametrize("layout", ["plain", "sharded"])
    def test_modify_resolves_its_clauses_once(
        self, tmp_path, wp_schema_extras, wp_registry, monkeypatch, layout
    ):
        """A staged modify used to resolve its record twice: once for a
        pre-state inverse nobody would need, once to apply it."""
        from repro.ldif import modify as modify_module

        store = _create(str(tmp_path / "store"), layout, wp_schema_extras, wp_registry)
        resolved = []
        real = modify_module.resolve_modification
        monkeypatch.setattr(
            modify_module, "resolve_modification",
            lambda *args: resolved.append(args) or real(*args),
        )
        try:
            assert store.modify(PIPELINE_CHANGES["modify", "commit"]).applied
            assert len(resolved) == 1
            if layout == "plain":  # an abort runs the token: no resolution
                store.stage(PIPELINE_CHANGES["modify", "composite"]).abort()
                assert len(resolved) == 2
        finally:
            store.close()

    @pytest.mark.parametrize("layout", ["plain", "sharded"])
    def test_seams_the_benchmark_patches_are_looked_up_per_call(
        self, tmp_path, wp_schema_extras, wp_registry, monkeypatch, layout
    ):
        """``benchmarks/e2e/layers.py`` times the Δ-check by patching
        ``IncrementalChecker`` at class level *after* the stores exist,
        and the WAL append by subclassing ``StoreIO``: the pipeline
        must reach both through a lookup at call time."""
        spans = []

        class SpanIO(StoreIO):
            def append_bytes(self, path, data):
                spans.append("wal.append_fsync")
                super().append_bytes(path, data)

        store = _create(
            str(tmp_path / "store"), layout, wp_schema_extras, wp_registry,
            io=SpanIO(),
        )
        try:
            for name in ("apply_transaction", "try_modify"):
                original = getattr(IncrementalChecker, name)

                def traced(self, *args, _original=original, **kwargs):
                    spans.append("incremental.check")
                    return _original(self, *args, **kwargs)

                monkeypatch.setattr(IncrementalChecker, name, traced)
            for kind, write in (("txn", store.apply), ("modify", store.modify)):
                del spans[:]
                assert write(PIPELINE_CHANGES[kind, "commit"]).applied
                assert spans == ["incremental.check", "wal.append_fsync"]
        finally:
            store.close()
