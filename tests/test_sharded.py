"""The sharded store and its composite reader.

Covers the routed write path (unroutable DNs raise, it never
mis-commits), per-shard + composite legality enforcement (content and
shard-local checks inside each shard, required classes and cut-spanning
Figure 4 edges on the composite view — single-shard transactions roll
back in memory on violation, spanning ones commit or abort atomically
through two-phase commit), the stitched read surface, and — the
acceptance gate — a randomized
differential: ``ShardedStore`` + ``CompositeReader`` must produce the
same entries, search results, and legality verdicts as one
``DirectoryStore`` holding the union instance.
"""

from __future__ import annotations

import os
import random

import pytest

from invariants import canonical_records, cohort_equals_union
from repro.errors import (
    ShardMapError,
    ShardRoutingError,
    StoreError,
    UpdateError,
)
from repro.legality.report import Kind
from repro.model.dn import parse_dn
from repro.store import DirectoryStore
from repro.store.sharded import CompositeReader, ShardedStore
from repro.store.shardmap import read_shard_map, shard_map_path
from repro.store.txlog import TXLOG_FILE
from repro.updates.operations import UpdateTransaction
from repro.workloads import (
    figure1_instance,
    generate_whitepages,
    whitepages_registry,
    whitepages_schema,
)
from repro.workloads.update_streams import deletable_units, insertion_points

NESTED_BASES = {"att": "o=att", "labs": "ou=attLabs,o=att"}


@pytest.fixture()
def schema():
    return whitepages_schema()


@pytest.fixture()
def registry():
    return whitepages_registry()


def txlog_bytes(tmp_path, name="sharded"):
    """Size of the coordinator log (absent = nothing ever logged)."""
    path = os.path.join(str(tmp_path / name), TXLOG_FILE)
    return os.path.getsize(path) if os.path.exists(path) else 0


def make_store(tmp_path, schema, registry, bases=None, instance=None, name="sharded"):
    return ShardedStore.create(
        str(tmp_path / name),
        schema,
        bases if bases is not None else NESTED_BASES,
        instance if instance is not None else figure1_instance(),
        registry,
    )


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_create_partitions_by_routing(self, tmp_path, schema, registry):
        with make_store(tmp_path, schema, registry) as store:
            att = store.shard("att").instance
            labs = store.shard("labs").instance
            # Shard content is localized: labs holds its base as root.
            assert att.find("o=att") is not None
            assert att.find("uid=armstrong,o=att") is not None
            assert labs.find("ou=attLabs") is not None
            assert labs.find("uid=laks,ou=databases,ou=attLabs") is not None
            assert len(att) + len(labs) == 6

    def test_reopen_preserves_composite_state(self, tmp_path, schema, registry):
        store = make_store(tmp_path, schema, registry)
        path = str(tmp_path / "sharded")
        tx = UpdateTransaction().insert(
            "uid=extra,ou=attLabs,o=att",
            ["person", "top"],
            {"uid": ["extra"], "name": ["e x"]},
        )
        assert store.apply(tx).applied
        before = canonical_records(store.composite_instance())
        store.close()
        with ShardedStore.open(path, schema, registry) as reopened:
            assert canonical_records(reopened.composite_instance()) == before
            assert reopened.check().is_legal

    def test_refuses_existing_directory(self, tmp_path, schema, registry):
        make_store(tmp_path, schema, registry).close()
        with pytest.raises(StoreError, match="refusing to create"):
            make_store(tmp_path, schema, registry)

    def test_unroutable_initial_entry_creates_nothing(
        self, tmp_path, schema, registry
    ):
        with pytest.raises(ShardRoutingError):
            make_store(
                tmp_path, schema, registry,
                bases={"att": "o=att"},
                instance=generate_whitepages(orgs=1, seed=3),  # roots o=org0
            )
        assert not os.path.exists(str(tmp_path / "sharded"))

    def test_missing_map_refuses_to_open(self, tmp_path, schema, registry):
        make_store(tmp_path, schema, registry).close()
        path = str(tmp_path / "sharded")
        os.unlink(shard_map_path(path))
        with pytest.raises(ShardMapError):
            ShardedStore.open(path, schema, registry)
        with pytest.raises(ShardMapError):
            CompositeReader.open(path, schema, registry)

    def test_initial_composite_violation_rejected(self, tmp_path, schema, registry):
        from repro.model.instance import DirectoryInstance

        lonely = DirectoryInstance(attributes=registry)
        lonely.add_entry(
            None, "o=att", ["organization", "orgGroup", "top"], {"o": ["att"]}
        )
        # No orgUnit/person anywhere: required classes are composite
        # elements and must be enforced at create time.
        with pytest.raises(UpdateError, match="composite"):
            make_store(tmp_path, schema, registry, instance=lonely)

    def test_schema_extras_accepted(self, tmp_path, registry):
        # The historical refusal is lifted: extras are enforced at the
        # composite check step via the per-shard key/referential
        # indexes, so an extras-bearing schema shards fine.
        with make_store(tmp_path, whitepages_schema(extras=True), registry) as store:
            assert store.check().is_legal

    def test_closed_store_refuses(self, tmp_path, schema, registry):
        store = make_store(tmp_path, schema, registry)
        store.close()
        store.close()  # idempotent
        with pytest.raises(StoreError, match="closed"):
            store.check()


# ----------------------------------------------------------------------
# the routed write path
# ----------------------------------------------------------------------
class TestApply:
    def test_commit_routes_to_owning_shard(self, tmp_path, schema, registry):
        with make_store(tmp_path, schema, registry) as store:
            tx = UpdateTransaction().insert(
                "uid=new,ou=databases,ou=attLabs,o=att",
                ["person", "top"],
                {"uid": ["new"], "name": ["n ew"]},
            )
            logged = txlog_bytes(tmp_path)
            assert store.apply(tx).applied
            assert store.shard("labs").journal_length == 1
            assert store.shard("att").journal_length == 0
            found = store.composite_instance().find(
                "uid=new,ou=databases,ou=attLabs,o=att"
            )
            assert found is not None
            # The single-shard fast path — committed or rejected — does
            # no coordinator-log I/O at all.
            ghost = UpdateTransaction().insert(  # an empty orgUnit
                "ou=ghost,ou=attLabs,o=att",
                ["orgUnit", "orgGroup", "top"], {"ou": ["ghost"]},
            )
            assert not store.apply(ghost).applied
            assert txlog_bytes(tmp_path) == logged

    def test_spanning_transaction_commits_via_2pc(
        self, tmp_path, schema, registry
    ):
        """A transaction touching both shards commits atomically: each
        participant journals a prepare + decide pair, the coordinator
        log holds the commit decision, and the composite view has both
        entries — durably."""
        with make_store(tmp_path, schema, registry) as store:
            tx = UpdateTransaction()
            tx.insert("uid=a,o=att", ["person", "top"],
                      {"uid": ["a"], "name": ["a a"]})
            tx.insert("uid=b,ou=attLabs,o=att", ["person", "top"],
                      {"uid": ["b"], "name": ["b b"]})
            logged = txlog_bytes(tmp_path)
            outcome = store.apply(tx)
            assert outcome.applied
            assert any("2pc: committed" in c for c in outcome.checks)
            assert txlog_bytes(tmp_path) > logged
            # One prepare + one decide frame per participant.
            assert store.shard("att").journal_length == 2
            assert store.shard("labs").journal_length == 2
            composite = store.composite_instance()
            assert composite.find("uid=a,o=att") is not None
            assert composite.find("uid=b,ou=attLabs,o=att") is not None
            path = str(tmp_path / "sharded")
        with ShardedStore.open(path, schema, registry) as reopened:
            assert reopened.composite_instance().find("uid=a,o=att") is not None
            assert (
                reopened.composite_instance().find("uid=b,ou=attLabs,o=att")
                is not None
            )
            assert reopened.check().is_legal

    def test_spanning_composite_violation_aborts_everywhere(
        self, tmp_path, schema, registry
    ):
        """A spanning transaction that fails the composite check aborts
        on every participant: the prepares are decided ``abort`` and
        never become visible, in memory or after a reopen."""
        with make_store(tmp_path, schema, registry) as store:
            before = canonical_records(store.composite_instance())
            tx = UpdateTransaction()
            tx.insert("uid=ok,o=att", ["person", "top"],
                      {"uid": ["ok"], "name": ["o k"]})
            tx.insert(  # empty orgUnit: composite Figure 4 violation
                "ou=ghost,ou=attLabs,o=att",
                ["orgUnit", "orgGroup", "top"], {"ou": ["ghost"]},
            )
            outcome = store.apply(tx)
            assert not outcome.applied
            assert any("2pc: aborted" in c for c in outcome.checks)
            assert canonical_records(store.composite_instance()) == before
            path = str(tmp_path / "sharded")
        with ShardedStore.open(path, schema, registry) as reopened:
            assert canonical_records(reopened.composite_instance()) == before
            assert reopened.check().is_legal

    def test_unroutable_transaction_raises(self, tmp_path, schema, registry):
        with make_store(tmp_path, schema, registry) as store:
            tx = UpdateTransaction().insert(
                "o=other", ["organization", "orgGroup", "top"], {"o": ["other"]}
            )
            with pytest.raises(ShardRoutingError, match="no shard owns"):
                store.apply(tx)

    def test_shard_guard_rejection_matches_union_store(
        self, tmp_path, schema, registry
    ):
        # Missing the required `name` attribute: a *content* violation,
        # caught inside the labs shard.  The rejection report must be
        # indistinguishable from a single store's (the guard's DNs are
        # Δ-relative in both).
        tx = UpdateTransaction().insert(
            "uid=noname,ou=attLabs,o=att", ["person", "top"],
            {"uid": ["noname"]},
        )
        union = DirectoryStore.create(
            str(tmp_path / "union"), schema, figure1_instance(), registry
        )
        try:
            union_outcome = union.apply(tx)
        finally:
            union.close()
        with make_store(tmp_path, schema, registry) as store:
            outcome = store.apply(tx)
        assert not outcome.applied and not union_outcome.applied
        assert {(v.kind, v.dn, v.element) for v in outcome.report} == {
            (v.kind, v.dn, v.element) for v in union_outcome.report
        }

    def test_empty_transaction_is_a_noop(self, tmp_path, schema, registry):
        with make_store(tmp_path, schema, registry) as store:
            assert store.apply(UpdateTransaction()).applied


class TestCompositeEnforcement:
    def test_cut_spanning_violation_is_compensated(
        self, tmp_path, schema, registry
    ):
        """Under the nested cut every Figure 4 edge is composite: an
        empty orgUnit passes the (edge-free) shard guard, the composite
        check fails, and the exact inverse rolls the shard back."""
        with make_store(tmp_path, schema, registry) as store:
            before = canonical_records(store.composite_instance())
            tx = UpdateTransaction().insert(
                "ou=ghost,ou=attLabs,o=att",
                ["orgUnit", "orgGroup", "top"],
                {"ou": ["ghost"]},
            )
            outcome = store.apply(tx)
            assert not outcome.applied
            assert not outcome.report.is_legal
            elements = {v.element for v in outcome.report if v.element}
            assert any("person" in e for e in elements), elements
            assert canonical_records(store.composite_instance()) == before
            # The compensation is durable: a reopen agrees.
            path = str(tmp_path / "sharded")
        with ShardedStore.open(path, schema, registry) as reopened:
            assert canonical_records(reopened.composite_instance()) == before
            assert reopened.check().is_legal

    def test_legal_cut_spanning_insert_commits(self, tmp_path, schema, registry):
        with make_store(tmp_path, schema, registry) as store:
            tx = UpdateTransaction()
            tx.insert(
                "ou=new,ou=attLabs,o=att",
                ["orgUnit", "orgGroup", "top"],
                {"ou": ["new"]},
            )
            tx.insert(
                "uid=p,ou=new,ou=attLabs,o=att",
                ["person", "top"],
                {"uid": ["p"], "name": ["p p"]},
            )
            assert store.apply(tx).applied
            assert store.check().is_legal

    def test_flat_map_keeps_edges_shard_local(self, tmp_path, schema, registry):
        instance = generate_whitepages(
            orgs=2, units_per_level=2, depth=1, persons_per_unit=2, seed=5
        )
        with make_store(
            tmp_path, schema, registry,
            bases={"a": "o=org0", "b": "o=org1"}, instance=instance,
        ) as store:
            assert not store.scope.nested
            assert store.scope.local_edges and not store.scope.composite_edges
            # An empty orgUnit is now rejected by the shard's own guard
            # (stepwise), before any composite logic runs.
            tx = UpdateTransaction().insert(
                "ou=ghost,o=org0", ["orgUnit", "orgGroup", "top"],
                {"ou": ["ghost"]},
            )
            outcome = store.apply(tx)
            assert not outcome.applied
            assert store.shard("a").journal_length == 0


class TestCutIntegrity:
    """The attachment entry — a nested shard's suffix entry inside its
    enclosing shard — is part of the routing cut.  Deleting it is a
    spanning transaction: it commits through 2PC only when the same
    transaction also deletes every entry of the nested shard (the union
    store's leaves-only rule, mirrored across the cut), and when
    per-shard writers orphan a shard anyway, every read surface
    *reports* the wreckage instead of raising on it."""

    def test_attachment_entry_delete_requires_whole_subtree(
        self, tmp_path, schema, registry
    ):
        """Deleting the attachment entry without the nested shard's
        entries is exactly the union store's illegal non-leaf delete;
        the precondition fires before anything durable happens."""
        with make_store(tmp_path, schema, registry) as store:
            tx = UpdateTransaction()
            tx.delete("o=att")
            tx.delete("uid=armstrong,o=att")
            with pytest.raises(UpdateError, match="LDAP deletes leaves only"):
                store.apply(tx)
            # Nothing committed anywhere; the store is untouched.
            assert store.shard("att").journal_length == 0
            assert store.shard("labs").journal_length == 0
            assert store.check().is_legal

    def test_orphaned_shard_is_reported_not_raised(
        self, tmp_path, schema, registry
    ):
        """A per-shard writer (which bypasses routing by design) deletes
        the attachment entry: reopening must surface an
        ``orphaned-shard`` violation on every check surface, and the
        stitched view must keep answering searches."""
        make_store(tmp_path, schema, registry).close()
        path = str(tmp_path / "sharded")
        att = ShardedStore.open_shard(path, "att", schema, registry)
        try:
            tx = UpdateTransaction()
            tx.delete("o=att")
            tx.delete("uid=armstrong,o=att")
            assert att.apply(tx).applied
        finally:
            att.close()
        with ShardedStore.open(path, schema, registry) as store:
            report = store.check()
            orphans = report.of_kind(Kind.ORPHANED_SHARD)
            assert len(orphans) == 1
            assert "labs" in orphans[0].message
            assert orphans[0].dn == "o=att"
            # The orphaned shard is grafted as a detached root: its
            # entries stay reachable, nothing raises.
            composite = store.composite_instance()
            persons = store.search(filter="(objectClass=person)")
            assert {composite.dn_string_of(e) for e in persons} == {
                "uid=laks,ou=databases,ou=attLabs",
                "uid=suciu,ou=databases,ou=attLabs",
            }
        with CompositeReader.open(path, schema, registry) as reader:
            assert not reader.is_legal()
            assert reader.check().of_kind(Kind.ORPHANED_SHARD)
            assert reader.search(filter="(objectClass=person)")
            assert len(reader.instance) == 4

    def test_checker_crash_leaves_no_durable_footprint(
        self, tmp_path, schema, registry, monkeypatch
    ):
        """The composite check raising (a checker bug, not a verdict)
        must not strand tentative shard state: the single-shard fast
        path stages the transaction in memory only, so the rollback
        writes nothing — the journal stays empty and the pre-state
        survives the exception and a reopen.  (The old path committed
        first and compensated with an inverse transaction, leaving a
        crash window between the two frames; 2PC-era apply has no such
        window to close.)"""
        import repro.store.sharded as sharded_module

        with make_store(tmp_path, schema, registry) as store:
            before = canonical_records(store.composite_instance())

            def boom(*args, **kwargs):
                raise RuntimeError("checker bug")

            monkeypatch.setattr(sharded_module, "_composite_report", boom)
            tx = UpdateTransaction().insert(
                "uid=late,o=att", ["person", "top"],
                {"uid": ["late"], "name": ["l ate"]},
            )
            with pytest.raises(RuntimeError, match="checker bug"):
                store.apply(tx)
            monkeypatch.undo()
            # The tentative apply was memory-only: no frames hit the
            # WAL, and the in-memory state is the pre-state again.
            assert store.shard("att").journal_length == 0
            assert canonical_records(store.composite_instance()) == before
            assert store.check().is_legal
        path = str(tmp_path / "sharded")
        with ShardedStore.open(path, schema, registry) as reopened:
            assert canonical_records(reopened.composite_instance()) == before


# ----------------------------------------------------------------------
# the composite read surface
# ----------------------------------------------------------------------
class TestCompositeReader:
    def test_reader_stitches_all_shards(self, tmp_path, schema, registry):
        store = make_store(tmp_path, schema, registry)
        path = str(tmp_path / "sharded")
        try:
            with CompositeReader.open(path, schema, registry) as reader:
                assert canonical_records(reader.instance) == canonical_records(
                    store.composite_instance()
                )
                assert reader.is_legal()
                persons = reader.search(filter="(objectClass=person)")
                assert {reader.dn_string_of(e) for e in persons} == {
                    "uid=armstrong,o=att",
                    "uid=laks,ou=databases,ou=attLabs,o=att",
                    "uid=suciu,ou=databases,ou=attLabs,o=att",
                }
        finally:
            store.close()

    def test_refresh_follows_per_shard_writers(self, tmp_path, schema, registry):
        store = make_store(tmp_path, schema, registry)
        path = str(tmp_path / "sharded")
        try:
            with CompositeReader.open(path, schema, registry) as reader:
                tx = UpdateTransaction().insert(
                    "uid=late,ou=attLabs,o=att", ["person", "top"],
                    {"uid": ["late"], "name": ["l ate"]},
                )
                assert store.apply(tx).applied
                assert reader.instance.find("uid=late,ou=attLabs,o=att") is None
                lag = reader.lag()
                assert lag["labs"].frames == 1 and lag["att"].current
                result = reader.refresh()
                assert result.advanced and not result.stale
                assert result.per_shard["labs"].frames_replayed == 1
                assert result.per_shard["att"].frames_replayed == 0
                assert result.position.get("labs") == (1, 1)
                assert reader.instance.find("uid=late,ou=attLabs,o=att") is not None
        finally:
            store.close()

    def test_refresh_survives_per_shard_compaction(self, tmp_path, schema, registry):
        store = make_store(tmp_path, schema, registry)
        path = str(tmp_path / "sharded")
        try:
            with CompositeReader.open(path, schema, registry) as reader:
                tx = UpdateTransaction().insert(
                    "uid=c,ou=attLabs,o=att", ["person", "top"],
                    {"uid": ["c"], "name": ["c c"]},
                )
                assert store.apply(tx).applied
                store.compact()
                result = reader.refresh()
                assert result.advanced
                assert result.per_shard["labs"].rebootstrapped
                assert reader.position().get("labs") == (2, 0)
                assert reader.instance.find("uid=c,ou=attLabs,o=att") is not None
        finally:
            store.close()

    def test_shard_writers_do_not_lock_each_other(self, tmp_path, schema, registry):
        """One writer per shard is a supported topology: the advisory
        locks are per shard directory."""
        make_store(tmp_path, schema, registry).close()
        path = str(tmp_path / "sharded")
        att = ShardedStore.open_shard(path, "att", schema, registry)
        labs = ShardedStore.open_shard(path, "labs", schema, registry)
        try:
            tx = UpdateTransaction().insert(
                "uid=w1,o=att", ["person", "top"],
                {"uid": ["w1"], "name": ["w 1"]},
            )
            assert att.apply(tx).applied
            tx = UpdateTransaction().insert(
                "uid=w2,ou=attLabs", ["person", "top"],
                {"uid": ["w2"], "name": ["w 2"]},
            )
            assert labs.apply(tx).applied
        finally:
            att.close()
            labs.close()
        with CompositeReader.open(path, schema, registry) as reader:
            assert reader.instance.find("uid=w1,o=att") is not None
            assert reader.instance.find("uid=w2,ou=attLabs,o=att") is not None

    def test_open_reader_follows_60_commits_on_one_stitch(self, tmp_path, schema, registry):
        """60 commit → refresh → search rounds on one open reader, every
        fifth commit spanning two shards (2PC): the composite is stitched
        once, and the changes replayed onto it are exactly the changes
        replayed onto the shard views — the search after a commit costs
        O(|Δ|), not a stitch of |D|."""
        shards, rounds = 4, 60
        instance = generate_whitepages(
            orgs=shards, units_per_level=2, depth=3, persons_per_unit=6, seed=8
        )
        bases = {f"org{i}": f"o=org{i}" for i in range(shards)}
        shard_changes = []
        with make_store(tmp_path, schema, registry, bases, instance) as store, \
                CompositeReader.open(str(tmp_path / "sharded"), schema, registry) as reader:
            for name in reader.shard_map.names():
                view = reader.shard_reader(name)

                def counted(change, forward=view.on_replay):
                    shard_changes.append(change)
                    forward(change)

                view.on_replay = counted
            assert len(reader.instance) == len(instance) and reader.stitches == 1
            for index in range(rounds):
                tx = UpdateTransaction()
                for org in ((index % shards, (index + 1) % shards)
                            if index % 5 == 0 else (index % shards,)):
                    unit = f"ou=n{index},o=org{org}"
                    tx.insert(unit, ["orgUnit", "orgGroup", "top"], {"ou": [f"n{index}"]})
                    tx.insert(
                        f"uid=n{index}o{org},{unit}", ["person", "top"],
                        {"uid": [f"n{index}o{org}"], "name": [f"n {index}"]},
                    )
                assert store.apply(tx).applied
                reader.refresh()
                # read-your-writes: the person just provisioned
                assert len(reader.search(
                    base=f"ou=n{index},o=org{index % shards}",
                    filter="(objectClass=person)",
                )) == 1
            assert reader.stitches == 1
            assert reader.followed == len(shard_changes) >= rounds

    def test_follow_fallbacks_cost_exactly_one_restitch(
        self, tmp_path, schema, registry, monkeypatch
    ):
        """The composite is stitched once and then follows commits;
        the three things it cannot follow — a shard view rebuilt by a
        compaction, a follow that raises, a change to an entry above a
        nested cut — each cost exactly one re-stitch, leave the view
        equal to a fresh stitch, and following resumes afterwards."""
        import repro.store.sharded as sharded_module

        def person(index, parent):
            return UpdateTransaction().insert(
                f"uid=f{index},{parent}", ["person", "top"],
                {"uid": [f"f{index}"], "name": [f"f {index}"]},
            )

        def commit_and_read(store, reader, index, parent, stitches):
            assert store.apply(person(index, parent)).applied
            result = reader.refresh()
            assert result.advanced and not result.stale
            _assert_followed_equals_stitched(
                reader, store.composite_instance()
            )
            assert reader.instance.find(f"uid=f{index},{parent}") is not None
            assert reader.stitches == stitches
            return result

        with make_store(tmp_path, schema, registry) as store:
            path = str(tmp_path / "sharded")
            with CompositeReader.open(path, schema, registry) as reader:
                assert len(reader.instance) and reader.stitches == 1
                commit_and_read(store, reader, 1, "o=att", stitches=1)
                assert reader.followed == 1

                # A compaction rebuilds that shard's view: one stitch.
                store.shard("labs").compact()
                result = commit_and_read(
                    store, reader, 2, "ou=attLabs,o=att", stitches=2
                )
                assert result.per_shard["labs"].rebootstrapped
                commit_and_read(store, reader, 3, "ou=attLabs,o=att", stitches=2)

                # A follow that raises: one stitch, then following again.
                def boom(instance, change):
                    raise RuntimeError("follow bug")

                monkeypatch.setattr(sharded_module, "replay_change", boom)
                followed = reader.followed
                assert store.apply(person(4, "o=att")).applied
                reader.refresh()
                monkeypatch.undo()
                assert reader.followed == followed
                assert reader.instance.find("uid=f4,o=att") is not None
                assert reader.stitches == 3
                commit_and_read(store, reader, 5, "o=att", stitches=3)
                assert reader.followed == followed + 1

        # A change to an entry above the nested cut moves the labs
        # slice as a whole (here a per-shard writer orphans it, so a
        # stitch grafts it as detached roots): never followed.
        with CompositeReader.open(path, schema, registry) as reader:
            assert len(reader.instance) and reader.stitches == 1
            att = ShardedStore.open_shard(path, "att", schema, registry)
            try:
                everything = UpdateTransaction()
                for entry in att.instance:
                    everything.delete(att.instance.dn_string_of(entry))
                assert att.apply(everything).applied
            finally:
                att.close()
            assert reader.refresh().advanced
            orphan = reader.instance.find("uid=laks,ou=databases,ou=attLabs")
            assert orphan is not None
            assert reader.stitches == 2 and reader.followed == 0
            assert reader.check().of_kind(Kind.ORPHANED_SHARD)
            # ... and re-inserting the attachment entry re-grafts the
            # orphan under it, which replaying the insert would not.
            att = ShardedStore.open_shard(path, "att", schema, registry)
            try:
                regrow = UpdateTransaction()
                regrow.insert(
                    "o=att", ["organization", "orgGroup", "top"], {"o": ["att"]}
                )
                regrow.insert(
                    "uid=armstrong,o=att", ["person", "top"],
                    {"uid": ["armstrong"], "name": ["m armstrong"]},
                )
                assert att.apply(regrow).applied
            finally:
                att.close()
            assert reader.refresh().advanced
            assert reader.instance.find(
                "uid=laks,ou=databases,ou=attLabs,o=att"
            ) is not None
            assert reader.stitches == 3 and reader.followed == 0
            assert reader.is_legal()

    def test_open_shard_unknown_name(self, tmp_path, schema, registry):
        make_store(tmp_path, schema, registry).close()
        with pytest.raises(ShardMapError, match="no shard named"):
            ShardedStore.open_shard(
                str(tmp_path / "sharded"), "nope", schema, registry
            )

    def test_map_survives_roundtrip(self, tmp_path, schema, registry):
        make_store(tmp_path, schema, registry).close()
        shard_map = read_shard_map(str(tmp_path / "sharded"))
        assert set(shard_map.names()) == {"att", "labs"}


# ----------------------------------------------------------------------
# the differential acceptance gate
# ----------------------------------------------------------------------
def _unit_delete_tx(instance, unit_dn):
    tx = UpdateTransaction()
    entry = instance.entry(unit_dn)
    tx.delete(unit_dn)
    for descendant in instance.descendants_of(entry):
        tx.delete(instance.dn_string_of(descendant))
    return tx


def _routable(shard_map, tx):
    try:
        owners = {shard_map.route(op.dn).name for op in tx}
    except ShardRoutingError:
        return False
    return len(owners) == 1


def _mixed_tx(rng, instance, shard_map, counter):
    """One mixed insert+delete transaction routed whole: delete one
    unit subtree and insert a fresh unit elsewhere in the *same* shard.
    The insertion point must survive the delete (``decompose`` refuses
    insertions under deleted entries), so candidates inside the deleted
    subtree are skipped."""
    from repro.model.dn import parse_dn

    units = [
        dn for dn in deletable_units(instance)
        if _routable(shard_map, _unit_delete_tx(instance, dn))
    ]
    rng.shuffle(units)
    for unit_dn in units:
        deleted = {
            str(op.dn.normalized()) for op in _unit_delete_tx(instance, unit_dn)
        }
        points = [
            p for p in insertion_points(instance)
            if str(parse_dn(p).normalized()) not in deleted
        ]
        rng.shuffle(points)
        for parent in points:
            counter[0] += 1
            tag = f"d{counter[0]}"
            tx = _unit_delete_tx(instance, unit_dn)
            tx.insert(
                f"ou={tag},{parent}", ["orgUnit", "orgGroup", "top"],
                {"ou": [tag]},
            )
            tx.insert(
                f"uid=p{tag},ou={tag},{parent}",
                ["person", "top"],
                {"uid": [f"p{tag}"], "name": [f"p {tag}"]},
            )
            if _routable(shard_map, tx):
                return tx
    return None


def _random_step(rng, union, shard_map, counter):
    """One randomized transaction (insert, whole-unit delete, or mixed
    insert+delete, with an occasional deliberately illegal insert),
    constrained to route whole — spanning transactions (which now
    commit through 2PC) have their own differential,
    :func:`test_spanning_differential_against_union_store`.

    Mixed transactions are in the stream on purpose: per-shard guards
    check every decomposed step while composite elements are checked
    once against the final state, and the ``decompose`` preconditions
    make those two disciplines provably agree (see the semantics note
    in ``repro.store.sharded``).  The differential holds the union
    store's stepwise verdict to that claim."""
    instance = union.instance
    kind = rng.random()
    if kind < 0.15:
        candidates = [
            dn for dn in deletable_units(instance)
            if _routable(shard_map, _unit_delete_tx(instance, dn))
        ]
        if candidates:
            return _unit_delete_tx(instance, rng.choice(candidates))
    elif kind < 0.45:
        mixed = _mixed_tx(rng, instance, shard_map, counter)
        if mixed is not None:
            return mixed
    counter[0] += 1
    tag = f"d{counter[0]}"
    parent = rng.choice(insertion_points(instance))
    tx = UpdateTransaction()
    tx.insert(
        f"ou={tag},{parent}", ["orgUnit", "orgGroup", "top"], {"ou": [tag]}
    )
    if kind < 0.6:
        return tx  # an empty orgUnit: illegal, both sides must reject
    tx.insert(
        f"uid=p{tag},ou={tag},{parent}",
        ["person", "top"],
        {"uid": [f"p{tag}"], "name": [f"p {tag}"]},
    )
    return tx


FILTERS = [
    "(objectClass=person)",
    "(objectClass=orgUnit)",
    "(&(objectClass=orgGroup)(!(objectClass=organization)))",
]


def _search_view(instance):
    from repro.query.search import search

    return [
        sorted(
            instance.dn_string_of(e)
            for e in search(instance, filter=filter_string)
        )
        for filter_string in FILTERS
    ]


def _canonical_key(dn_string):
    """Root-first tuple of normalized RDN strings — the canonical
    global document order the composite search surface promises."""
    from repro.model.dn import parse_dn

    return tuple(str(r) for r in reversed(parse_dn(dn_string).normalized().rdns))


def _fresh_stitch(reader):
    """A composite stitched from the reader's shard views as they stand
    now — what the composite it holds (and followed here) must equal."""
    from repro.store.sharded import _stitch

    return _stitch(
        reader.shard_map,
        {
            name: reader.shard_reader(name).instance
            for name in reader.shard_map.names()
        },
        reader._registry,
    )


def _assert_followed_equals_stitched(reader, union_instance):
    """The composite an open reader *followed* to its current frontier
    is, entry for entry, what stitching its shard views afresh gives —
    and both are the union store's state.  Searches through the reader
    answer exactly what the union instance answers."""
    from repro.query.search import search

    assert (
        canonical_records(reader.instance)
        == canonical_records(_fresh_stitch(reader))
        == canonical_records(union_instance)
    )
    for filter_string in FILTERS:
        assert [
            reader.dn_string_of(e) for e in reader.search(filter=filter_string)
        ] == sorted(
            (
                union_instance.dn_string_of(e)
                for e in search(union_instance, filter=filter_string)
            ),
            key=_canonical_key,
        )


def _modify_step(rng, instance, counter):
    """One ``changetype: modify`` record renaming a random person."""
    from repro.ldif.modify import parse_modifications

    persons = sorted(
        instance.dn_string_of(e) for e in instance if "person" in e.classes
    )
    counter[0] += 1
    (record,) = parse_modifications(
        f"dn: {rng.choice(persons)}\nchangetype: modify\n"
        f"replace: name\nname: renamed {counter[0]}\n"
    )
    return record


class TestDeterministicSearchOrder:
    """``CompositeReader.search``/``ShardedStore.search`` order must not
    depend on shard iteration or stitch order: every layout of the same
    directory returns the same sequence, equal to the union store's
    results sorted into canonical global document order."""

    LAYOUTS = [
        {"att": "o=att", "labs": "ou=attLabs,o=att"},
        {"labs": "ou=attLabs,o=att", "att": "o=att"},
        {"only": "o=att"},
    ]

    def _expected(self, union, filter=None, scope="sub"):
        from repro.query.search import search

        dns = [
            union.instance.dn_string_of(e)
            for e in search(union.instance, scope=scope, filter=filter)
        ]
        return sorted(dns, key=_canonical_key)

    @pytest.mark.parametrize("filter_string", [None] + FILTERS)
    def test_order_matches_union_store_across_layouts(
        self, tmp_path, schema, registry, filter_string
    ):
        union = DirectoryStore.create(
            str(tmp_path / "union"), schema, figure1_instance(), registry
        )
        try:
            expected = self._expected(union, filter=filter_string)
        finally:
            union.close()
        assert expected == sorted(expected, key=_canonical_key)
        for index, bases in enumerate(self.LAYOUTS):
            path = str(tmp_path / f"layout{index}")
            store = ShardedStore.create(
                path, schema, bases, figure1_instance(), registry
            )
            try:
                composite = store.composite_instance()
                got = [
                    composite.dn_string_of(e)
                    for e in store.search(filter=filter_string)
                ]
                assert got == expected, f"layout {bases} diverged"
            finally:
                store.close()
            reader = CompositeReader.open(path, schema, registry)
            try:
                got = [
                    reader.dn_string_of(e)
                    for e in reader.search(filter=filter_string)
                ]
                assert got == expected, f"reader over {bases} diverged"
            finally:
                reader.close()

    def test_size_limit_is_prefix_of_canonical_order(
        self, tmp_path, schema, registry
    ):
        store = ShardedStore.create(
            str(tmp_path / "sharded"), schema, NESTED_BASES,
            figure1_instance(), registry,
        )
        try:
            composite = store.composite_instance()
            full = [
                composite.dn_string_of(e) for e in store.search()
            ]
            for limit in (0, 1, 3, len(full), len(full) + 5):
                got = [
                    composite.dn_string_of(e)
                    for e in store.search(size_limit=limit)
                ]
                assert got == full[:limit]
        finally:
            store.close()

    def test_parent_sorts_before_children(self, tmp_path, schema, registry):
        store = ShardedStore.create(
            str(tmp_path / "sharded"), schema, NESTED_BASES,
            figure1_instance(), registry,
        )
        try:
            composite = store.composite_instance()
            dns = [composite.dn_string_of(e) for e in store.search()]
            seen = set()
            for dn in dns:
                key = _canonical_key(dn)
                if len(key) > 1:
                    assert key[:-1] in seen, f"{dn} appeared before its parent"
                seen.add(key)
        finally:
            store.close()


def test_capped_walk_ignores_child_list_order(tmp_path, schema, registry):
    """A composite's child lists are in stitch and insertion order, not
    in rank order: the grafted ``ou=attLabs`` comes after ``o=att``'s own
    children, an ``ou=aaa`` the open reader follows under ``o=att`` lands
    after it, and a ``uid=aardvark`` added under a unit lands after its
    siblings.  Every scope, base and size limit still answers in
    canonical order, walked (match-all) and posting-bounded alike."""
    store = make_store(tmp_path, schema, registry)
    reader = CompositeReader.open(str(tmp_path / "sharded"), schema, registry)
    try:
        reader.instance  # stitched here, before the commit
        tx = UpdateTransaction()
        tx.insert("ou=aaa,o=att", ["orgUnit", "orgGroup", "top"], {"ou": ["aaa"]})
        tx.insert(
            "uid=zed,ou=aaa,o=att", ["person", "top"],
            {"uid": ["zed"], "name": ["zed"]},
        )
        tx.insert(
            "uid=aardvark,ou=databases,ou=attLabs,o=att", ["person", "top"],
            {"uid": ["aardvark"], "name": ["aardvark"]},
        )
        assert store.apply(tx).applied
        assert not reader.refresh().stale
        assert reader.stitches == 1  # followed, not stitched afresh
        for surface in (reader, store):
            composite = surface.instance
            for parent in ("o=att", "ou=databases,ou=attLabs,o=att"):
                ranks = [
                    str(e.rdn.normalized()) for e in composite.children_of(parent)
                ]
                assert ranks != sorted(ranks), f"{parent}'s children are in rank order"
            names = composite.dn_string_of
            for base in (None, "o=att", "ou=attLabs,o=att"):
                for scope in ("one", "sub", "children"):
                    for text in (None, "(objectClass=person)"):
                        full = [
                            names(e)
                            for e in surface.search(base=base, scope=scope, filter=text)
                        ]
                        assert full == sorted(full, key=_canonical_key)
                        for limit in range(len(full) + 1):
                            assert [
                                names(e)
                                for e in surface.search(
                                    base=base, scope=scope, filter=text,
                                    size_limit=limit,
                                )
                            ] == full[:limit]
        assert [reader.dn_string_of(e) for e in reader.search()] == [
            "o=att",
            "ou=aaa,o=att",
            "uid=zed,ou=aaa,o=att",
            "ou=attLabs,o=att",
            "ou=databases,ou=attLabs,o=att",
            "uid=aardvark,ou=databases,ou=attLabs,o=att",
            "uid=laks,ou=databases,ou=attLabs,o=att",
            "uid=suciu,ou=databases,ou=attLabs,o=att",
            "uid=armstrong,o=att",
        ]
    finally:
        reader.close()
        store.close()


# ----------------------------------------------------------------------
# the composite's search is planned on the shard indexes:
# planned ≡ scan ≡ union store
# ----------------------------------------------------------------------
#: A unit whose RDN value holds an escaped comma.  The composite maps a
#: shard's candidates onto its own entries through normalized DN
#: strings; this RDN, and the mixed-case spellings of it below, are
#: where joining such strings goes wrong.
COMMA_UNIT = r"ou=Research\, Dev"

#: ``{layout: (organizations generated, shard bases, an entry of another
#: shard than ``o=org0``'s)}`` — bases spelled in another case than the
#: entries they name.
PLANNED_LAYOUTS = {
    "flat-4-shards": (4, {f"s{i}": f"O=Org{i}" for i in range(4)}, "o=org1"),
    "nested-cut": (
        1,
        {"root": "O=ORG0", "cut": r"OU=research\, DEV,o=Org0"},
        f"{COMMA_UNIT},o=org0",
    ),
}


def _planned_initial(orgs, registry):
    initial = generate_whitepages(
        orgs=orgs, units_per_level=2, depth=1, persons_per_unit=2, seed=5,
        registry=registry,
    )
    unit = initial.add_entry(
        "o=org0", COMMA_UNIT, ["orgUnit", "orgGroup", "top"],
        {"ou": ["Research, Dev"]},
    )
    initial.add_entry(
        unit, "uid=Comma", ["person", "top"],
        {"uid": ["Comma"], "name": ["Comma, Person"]},
    )
    return initial


def _scanned(surface, **asked):
    """``surface.search(**asked)`` with planning disabled: the composite
    answers by scanning its scope, as it did before it carried a view
    of the shard indexes."""
    instance = surface.instance
    indexes, instance.indexes = instance.indexes, None
    try:
        return surface.search(**asked)
    finally:
        instance.indexes = indexes


def _assert_planned_scan_union_agree(rng, surfaces, union_instance, examples):
    """Random filter trees × the four scopes × bases anywhere in the
    directory (none, shard bases, above and below a cut; half of them
    in swapped case) × size limits: each surface answers the same DNs
    in the same order planned, scanned, and as the union instance does
    once sorted canonically."""
    from repro.query.search import search
    from test_index import _random_filter

    dns = sorted(union_instance.dn_string_of(e) for e in union_instance)
    vocabulary = ["person", "orgUnit", "Research, Dev", "Comma", "", "or", 5]
    vocabulary += [
        str(value)
        for entry in list(union_instance)[::3]
        for value in entry.values("uid") + entry.values("name")
    ]
    for _ in range(examples):
        filt = _random_filter(rng, vocabulary, depth=2)
        base = rng.choice([None, *dns])
        if base is not None and rng.random() < 0.5:
            base = base.swapcase()
        scope = rng.choice(["base", "one", "sub", "children"])
        limit = rng.choice([None, None, 0, 1, 3])
        expected = sorted(
            (
                union_instance.dn_string_of(e)
                for e in search(union_instance, base=base, scope=scope, filter=filt)
            ),
            key=_canonical_key,
        )[:limit]
        asked = dict(base=base, scope=scope, filter=filt, size_limit=limit)
        for surface in surfaces:
            names = surface.instance.dn_string_of
            planned = [names(e) for e in surface.search(**asked)]
            scanned = [names(e) for e in _scanned(surface, **asked)]
            assert planned == scanned == expected, (
                f"{type(surface).__name__} diverged for {filt} under "
                f"base={base!r} scope={scope} size_limit={limit}"
            )


def _planned_search_differential(tmp_path, layout, examples):
    from repro.store.index import MemberIndexes

    schema, registry = whitepages_schema(), whitepages_registry()
    orgs, bases, spanning_parent = PLANNED_LAYOUTS[layout]
    initial = _planned_initial(orgs, registry)
    path = str(tmp_path / "sharded")
    union = DirectoryStore.create(str(tmp_path / "union"), schema, initial, registry)
    sharded = ShardedStore.create(path, schema, bases, initial, registry)
    reader = CompositeReader.open(path, schema, registry)
    rng = random.Random(examples)
    counter, spanning = [0], 0

    def agree(oracle=None):
        _assert_planned_scan_union_agree(
            rng, (reader, sharded), oracle or union.instance, examples
        )

    def assert_planned_on_the_members():
        for surface in (reader, sharded):
            view = surface.instance.indexes
            assert isinstance(view, MemberIndexes)
            mapped = view.translated
            assert len(surface.search(filter="(uid=Comma)")) == 1
            assert view.translated == mapped + 1

    try:
        # at open
        agree()
        assert_planned_on_the_members()
        # after followed commits: local inserts and a local delete (two
        # of them under the comma unit), a modify, and two spanning
        # transactions through 2PC, one of them mixed
        comma, there = f"{COMMA_UNIT},o=org0", spanning_parent
        record = _modify_step(rng, union.instance, counter)
        assert union.modify(record).applied
        assert sharded.modify(record).applied
        for grown, pruned in [
            ({"l0": "o=org0"}, ()),
            ({"a1": "o=org0", "b1": there}, ()),
            ({"l2": comma}, ()),
            ({"b3": there}, ("ou=l0,o=org0",)),
            ({}, (f"ou=l2,{comma}",)),
        ]:
            tx = UpdateTransaction()
            for unit in pruned:
                tx.operations.extend(_unit_delete_tx(union.instance, unit))
            for tag, parent in grown.items():
                tx.insert(
                    f"ou={tag},{parent}", ["orgUnit", "orgGroup", "top"],
                    {"ou": [tag]},
                )
                tx.insert(
                    f"uid=p{tag},ou={tag},{parent}", ["person", "top"],
                    {"uid": [f"p{tag}"], "name": [f"p {tag}"]},
                )
            assert union.apply(tx).applied
            outcome = sharded.apply(tx)
            assert outcome.applied
            spans = len({sharded.route(op.dn).name for op in tx}) > 1
            assert spans == any(
                "2pc: committed" in line for line in outcome.checks
            )
            spanning += spans
        assert spanning == 2
        assert not reader.refresh().stale
        agree()
        assert_planned_on_the_members()
        assert reader.stitches == 1 and reader.followed > 0
        # after a compaction: every shard view re-bootstraps, the
        # composite is stitched again and carries a fresh view
        sharded.compact()
        assert not reader.refresh().stale
        agree()
        assert_planned_on_the_members()
        assert reader.stitches == 2
        if layout != "nested-cut":
            return
        # the orphaned-shard state: a per-shard writer empties the
        # enclosing shard, the cut's slice is grafted as detached roots,
        # no translation of its candidates is exact and both surfaces
        # scan — answering what the slice alone, as a directory, answers
        reader.close()
        sharded.close()
        with ShardedStore.open_shard(path, "root", schema, registry) as root:
            tx = UpdateTransaction()
            for entry in root.instance:
                tx.delete(root.instance.dn_string_of(entry))
            assert root.apply(tx).applied
        sharded = ShardedStore.open(path, schema, registry)
        reader = CompositeReader.open(path, schema, registry)
        assert reader.check().of_kind(Kind.ORPHANED_SHARD)
        assert reader.instance.indexes is None
        assert sharded.instance.indexes is None
        agree(union.instance.extract_subtree(f"{COMMA_UNIT},o=org0"))
    finally:
        reader.close()
        sharded.close()
        union.close()


@pytest.mark.parametrize("layout", sorted(PLANNED_LAYOUTS))
def test_planned_search_equals_scan_equals_union_store(tmp_path, layout):
    """Both composite search surfaces, planned on the shard indexes,
    against the same search scanned and against a plain union store —
    at open, after followed local and spanning commits, after a
    compaction, and with a shard orphaned."""
    _planned_search_differential(tmp_path, layout, examples=40)


@pytest.mark.slow
@pytest.mark.parametrize("layout", sorted(PLANNED_LAYOUTS))
def test_planned_search_equals_scan_equals_union_store_slow(tmp_path, layout):
    _planned_search_differential(tmp_path, layout, examples=200)


class TestPlannedSearchFallsBackToTheScan:
    """Whenever a shard's candidates cannot be mapped exactly onto the
    composite, the search scans — never a wrong answer.  The orphaned
    shard is the third case (the differential above)."""

    def test_member_without_indexes(self, tmp_path, schema, registry):
        make_store(tmp_path, schema, registry).close()
        with CompositeReader.open(str(tmp_path / "sharded"), schema, registry) as reader:
            reader.shard_reader("labs").instance.indexes = None
            assert reader.instance.indexes is None  # stitched here
            assert [reader.dn_string_of(e) for e in reader.search(filter="(uid=laks)")] == [
                "uid=laks,ou=databases,ou=attLabs,o=att"
            ]

    def test_candidate_the_composite_lacks(self, tmp_path, schema, registry):
        """A shard view holding an entry the composite was never told
        about: the lookup that finds it among the candidates answers
        what a scan of the composite answers, and maps nothing."""
        make_store(tmp_path, schema, registry).close()
        with CompositeReader.open(str(tmp_path / "sharded"), schema, registry) as reader:
            view = reader.instance.indexes
            reader.shard_reader("att").instance.add_entry(
                "o=att", "uid=stray", ["person", "top"],
                {"uid": ["stray"], "name": ["stray person"]},
            )
            for text in ("(uid=stray)", "(|(uid=stray)(uid=laks))", "(name=*a*)"):
                asked = dict(filter=text)
                assert reader.search(**asked) == _scanned(reader, **asked), text
            assert reader.search(filter="(uid=stray)") == []
            assert view.translated == 0 and reader.stitches == 1


def test_size_limit_means_one_thing_plain_and_composite(tmp_path, schema, registry):
    """``size_limit`` keeps the first N of the order the surface
    answers in; 0 keeps none and a negative one is refused — on a plain
    view exactly as on a composite one (they used to return one entry,
    none, or everything)."""
    from repro.errors import QueryError
    from repro.store.reader import StoreReader

    DirectoryStore.create(
        str(tmp_path / "plain"), schema, figure1_instance(), registry
    ).close()
    with make_store(tmp_path, schema, registry) as sharded, CompositeReader.open(
        str(tmp_path / "sharded"), schema, registry
    ) as composite, StoreReader.open(
        str(tmp_path / "plain"), schema, registry
    ) as plain:
        for surface in (plain, composite, sharded):
            for text in (None, "(objectClass=person)", "(uid=laks)"):
                full = surface.search(filter=text)
                for limit in (0, 1, 2, len(full) + 1):
                    assert surface.search(filter=text, size_limit=limit) == full[:limit]
                with pytest.raises(QueryError, match="size limit"):
                    surface.search(filter=text, size_limit=-1)


class TestPlannedSearchWork:
    """What the planned composite search costs, on exact counters: the
    entries judged by the residual ``matches`` pass, the probes of the
    shard indexes, the candidates mapped onto the composite."""

    SHARDS = {f"s{i}": f"o=org{i}" for i in range(4)}

    def _reader(self, tmp_path, schema, registry, rung):
        from test_index import NEEDLE

        instance = generate_whitepages(
            orgs=4, units_per_level=2, depth=1, persons_per_unit=6 * rung,
            seed=7, registry=registry,
        )
        instance.add_entry(
            "o=org2", f"uid={NEEDLE}", ["person", "top"],
            {"uid": [NEEDLE], "name": ["probe person"]},
        )
        path = str(tmp_path / f"rung{rung}")
        ShardedStore.create(path, schema, self.SHARDS, instance, registry).close()
        return CompositeReader.open(path, schema, registry)

    @staticmethod
    def _judging(filter_class, judged):
        class Judged(filter_class):
            def matches(self, entry):
                judged.append(entry.eid)
                return super().matches(entry)

        return Judged

    def test_needle_lookup_judges_the_needle_at_every_size(
        self, tmp_path, schema, registry
    ):
        from growth import fit_growth
        from repro.query.filters import Equals
        from test_index import LADDER, NEEDLE

        sizes, planned_work, scanned_work = [], [], []
        for rung in LADDER:
            with self._reader(tmp_path, schema, registry, rung) as reader:
                judged = []
                needle = self._judging(Equals, judged)("uid", NEEDLE)
                indexes = reader.instance.indexes
                before = indexes.counters()
                found = reader.search(filter=needle)
                probes, hits, candidates = (
                    now - was for now, was in zip(indexes.counters(), before)
                )
                assert [reader.dn_string_of(e) for e in found] == [
                    f"uid={NEEDLE},o=org2"
                ]
                # one probe per member consulted, one of them a hit
                assert (probes, hits, candidates) == (len(self.SHARDS), 1, 1)
                sizes.append(len(reader.instance))
                planned_work.append(len(judged))
                del judged[:]
                assert _scanned(reader, filter=needle) == found
                scanned_work.append(len(judged))
                # searching stitched nothing and followed nothing
                assert (reader.stitches, reader.followed) == (1, 0)
        assert planned_work == [1] * len(LADDER)
        assert scanned_work == sizes
        assert fit_growth(sizes, planned_work) < 1.0
        assert fit_growth(sizes, scanned_work) == pytest.approx(1.0)

    def test_one_level_under_a_unit_walks_the_unit_and_maps_nothing(
        self, tmp_path, schema, registry, monkeypatch
    ):
        """``(objectClass=person)`` one level under a unit: every shard
        is probed, the candidates (every person of the directory)
        outnumber the unit's children, so the children are walked — and
        the gate decided that on member-local counts, before mapping a
        single candidate onto the composite or iterating (copying) a
        single member posting."""
        from repro.query.filters import Equals
        from repro.store.index import PostingView

        iterated = []
        iterate = PostingView.__iter__
        monkeypatch.setattr(
            PostingView, "__iter__",
            lambda view: iterated.append(len(view)) or iterate(view),
        )
        with self._reader(tmp_path, schema, registry, 2) as reader:
            composite = reader.instance
            unit = next(e for e in composite if e.belongs_to("orgUnit"))
            children = composite.children_ids(unit)
            judged = []
            persons = self._judging(Equals, judged)("objectClass", "person")
            before = composite.indexes.counters()
            found = reader.search(
                base=reader.dn_string_of(unit), scope="one", filter=persons
            )
            probes, _, candidates = (
                now - was for now, was in zip(composite.indexes.counters(), before)
            )
            assert probes == len(self.SHARDS)
            assert candidates == len(composite.entries_with_class("person"))
            assert sorted(judged) == sorted(children)
            assert len(found) == len(children) < candidates
            assert composite.indexes.translated == 0
            assert iterated == []
            assert (reader.stitches, reader.followed) == (1, 0)

    def test_capped_org_scan_judges_the_same_entries_at_every_size(
        self, tmp_path, schema, registry
    ):
        """``(objectClass=person)`` under an org with ``size_limit=k``:
        the directory's persons outnumber the org's subtree, so the scope
        is walked in canonical order and the walk stops at the k-th
        match — the org, its first unit and that unit's first k persons
        are judged whatever the size of the org (sorting every match of
        the org first judged all of them)."""
        from growth import fit_growth
        from repro.query.filters import Equals
        from test_index import LADDER

        k = 5
        org_matches, walked_work = [], []
        for rung in LADDER:
            with self._reader(tmp_path, schema, registry, rung) as reader:
                judged = []
                persons = self._judging(Equals, judged)("objectClass", "person")
                asked = dict(base="o=org1", filter=persons, size_limit=k)
                found = reader.search(**asked)
                walked_work.append(len(judged))
                full = reader.search(base="o=org1", filter="(objectClass=person)")
                names = [reader.dn_string_of(e) for e in full]
                assert names == sorted(names, key=_canonical_key)
                assert found == full[:k] == _scanned(reader, **asked)
                org_matches.append(len(full))
        assert walked_work == [k + 2] * len(LADDER)
        assert fit_growth(LADDER, org_matches) == pytest.approx(1.0, abs=0.05)

    def test_ranked_matches_rank_each_entry_on_their_paths_once(
        self, tmp_path, schema, registry, monkeypatch
    ):
        """A search that keeps its posting sorts the matches by their
        rank paths.  A path is its parent's path plus one rank, so each
        entry on the matches' paths is ranked once — not once per match
        below it (the sum of the path lengths)."""
        from repro.store import sharded

        ranked = []
        rank = sharded._sibling_rank
        monkeypatch.setattr(
            sharded, "_sibling_rank",
            lambda entry: ranked.append(entry.eid) or rank(entry),
        )
        with self._reader(tmp_path, schema, registry, 2) as reader:
            composite = reader.instance
            plan = reader.plan_search(filter="(objectClass=person)")
            assert plan.bounded
            found = plan.run()
            paths = []
            for entry in found:
                eid, path = entry.eid, []
                while eid is not None:
                    path.append(eid)
                    eid = composite.parent_id(eid)
                paths.append(path)
            on_paths = {eid for path in paths for eid in path}
            assert sorted(ranked) == sorted(on_paths)
            assert len(on_paths) < sum(map(len, paths))
            names = [reader.dn_string_of(e) for e in found]
            assert names == sorted(names, key=_canonical_key)

    def test_canonical_search_reads_no_interval(
        self, tmp_path, schema, registry, monkeypatch
    ):
        """A composite answers in canonical order, so its planned walk
        does not sort the candidates into document order first: a
        ``(name=*frag*)`` lookup reads no ``interval_of``, where the
        same search in document order reads one per candidate."""
        from repro.query.search import search

        with self._reader(tmp_path, schema, registry, 2) as reader:
            composite = reader.instance
            reads = []
            interval_of = composite.interval_of
            monkeypatch.setattr(
                composite, "interval_of",
                lambda entry: reads.append(entry) or interval_of(entry),
            )
            text = "(name=*ari*)"
            mapped = composite.indexes.translated
            found = reader.search(filter=text)
            candidates = composite.indexes.translated - mapped
            assert found and candidates >= len(found)
            assert reads == []
            in_document_order = search(composite, filter=text)
            assert sorted(e.eid for e in in_document_order) == sorted(
                e.eid for e in found
            )
            assert len(reads) == candidates


@pytest.mark.parametrize(
    "bases,orgs",
    [
        pytest.param({"a": "o=org0", "b": "o=org1", "c": "o=org2"}, 3,
                     id="flat-3-shards"),
        pytest.param({"root": "o=org0", "cut": "ou=u0.0,o=org0"}, 1,
                     id="nested-cut"),
        # the nested shard listed (hence refreshed) before the shard
        # that encloses it
        pytest.param({"cut": "ou=u0.0,o=org0", "root": "o=org0"}, 1,
                     id="reversed-nested-cut"),
    ],
)
@pytest.mark.parametrize("seed", [11, 42])
def test_differential_against_union_store(tmp_path, seed, bases, orgs):
    """For a randomized workload — insert-only, delete-only, *and*
    mixed insert+delete transactions — the sharded store + composite
    reader and a single union store produce identical entries,
    identical search results, and identical legality verdicts,
    including the cross-shard Figure 4 checks under the nested cut.
    Mixed transactions pin the semantics note in
    ``repro.store.sharded``: stepwise per-shard checking plus a
    final-state composite check equals the union store's stepwise
    verdict for everything ``decompose`` accepts.

    One :class:`CompositeReader` stays open across every step —
    transactions and interleaved ``modify`` records — and must *follow*
    them: stitched once, and after every refresh identical to a fresh
    stitch of its shard views."""
    schema = whitepages_schema()
    registry = whitepages_registry()
    initial = generate_whitepages(
        orgs=orgs, units_per_level=2, depth=1, persons_per_unit=2, seed=seed
    )
    union = DirectoryStore.create(
        str(tmp_path / "union"), schema, initial, registry
    )
    sharded = ShardedStore.create(
        str(tmp_path / "sharded"), schema, bases, initial, registry
    )
    reader = CompositeReader.open(str(tmp_path / "sharded"), schema, registry)
    assert len(reader.instance) == len(initial)  # stitched here, once
    rng = random.Random(seed)
    counter = [0]
    accepted = rejected = mixed = 0
    try:
        for step in range(15):
            # Step 5 is the empty change: both stores accept it and
            # neither writes a frame for it.
            tx = (
                UpdateTransaction()
                if step == 5
                else _random_step(rng, union, sharded.shard_map, counter)
            )
            if tx.insertions() and tx.deletions():
                mixed += 1
            if step % 4 == 2:
                # its own generator: the transaction stream stays as is
                record = _modify_step(
                    random.Random(seed + step), union.instance, counter
                )
                assert union.modify(record).applied
                assert sharded.modify(record).applied
            written = (union.journal_length, sharded.position())
            union_outcome = union.apply(tx)
            sharded_outcome = sharded.apply(tx)
            wrote = union_outcome.applied and bool(tx.operations)
            assert union.journal_length == written[0] + wrote
            assert (sharded.position() != written[1]) == wrote
            accepted += union_outcome.applied
            rejected += not union_outcome.applied
            refreshed = reader.refresh()
            assert not refreshed.stale
            _assert_followed_equals_stitched(reader, union.instance)
            # Same verdict, same committed entries, same full checks
            # through the store and through the followed view.
            cohort_equals_union(
                union.instance, sharded.instance, union_outcome, sharded_outcome,
                (union.check(), sharded.check(), reader.check()), where=f" at step {step}",
            )
            # ... and so is everything a client can observe: searches
            # through the sharded store's own surface and over the
            # union instance agree filter by filter.
            assert _search_view(
                sharded.composite_instance()
            ) == _search_view(union.instance)
            composite = sharded.composite_instance()
            assert sorted(
                composite.dn_string_of(e)
                for e in sharded.search(filter=FILTERS[0])
            ) == _search_view(union.instance)[0]
        # The stream must have exercised both verdicts — and at least
        # one mixed transaction, or the stepwise/final-state agreement
        # claim went untested.
        assert accepted >= 3 and rejected >= 1, (accepted, rejected)
        assert mixed >= 1, "no mixed transaction generated"
        # every accepted transaction (but the empty one, which wrote
        # nothing) and the four modify records were replayed onto the
        # composite stitched before the first step
        assert reader.stitches == 1
        assert reader.followed == accepted - 1 + 4
    finally:
        reader.close()
        sharded.close()
        union.close()


def _spanning_step(rng, union, shard_map, counter, illegal=False):
    """One randomized transaction built to *span* shards: either a
    two-shard insert (a fresh unit+person pair in each of two shards)
    or a mixed spanning step (a whole-unit delete in one shard plus a
    fresh insert in another).  With ``illegal=True`` the second shard's
    slice is an empty orgUnit, so the union store rejects and the
    sharded store must abort the 2PC round with the same verdict."""
    instance = union.instance
    by_shard = {}
    for p in insertion_points(instance):
        try:
            name = shard_map.route(p).name
        except ShardRoutingError:
            continue
        by_shard.setdefault(name, []).append(p)
    names = sorted(by_shard)
    kind = rng.random()
    if not illegal and kind < 0.35 and len(names) >= 2:
        # Mixed spanning: delete a whole unit in one shard, insert a
        # fresh unit+person in a different one — 2PC must hold the
        # delete and the insert to one atomic verdict.
        units = [
            dn for dn in deletable_units(instance)
            if _routable(shard_map, _unit_delete_tx(instance, dn))
        ]
        rng.shuffle(units)
        for unit_dn in units:
            owner = shard_map.route(unit_dn).name
            others = [n for n in names if n != owner]
            if not others:
                continue
            counter[0] += 1
            tag = f"s{counter[0]}"
            parent = rng.choice(by_shard[rng.choice(others)])
            tx = _unit_delete_tx(instance, unit_dn)
            tx.insert(
                f"ou={tag},{parent}", ["orgUnit", "orgGroup", "top"],
                {"ou": [tag]},
            )
            tx.insert(
                f"uid=p{tag},ou={tag},{parent}", ["person", "top"],
                {"uid": [f"p{tag}"], "name": [f"p {tag}"]},
            )
            return tx
    chosen = (
        rng.sample(names, 2) if len(names) >= 2 else list(names)
    )
    tx = UpdateTransaction()
    for i, name in enumerate(chosen):
        counter[0] += 1
        tag = f"s{counter[0]}"
        parent = rng.choice(by_shard[name])
        tx.insert(
            f"ou={tag},{parent}", ["orgUnit", "orgGroup", "top"],
            {"ou": [tag]},
        )
        if illegal and i == 1:
            continue  # the second slice stays an empty orgUnit
        tx.insert(
            f"uid=p{tag},ou={tag},{parent}", ["person", "top"],
            {"uid": [f"p{tag}"], "name": [f"p {tag}"]},
        )
    return tx


@pytest.mark.parametrize(
    "bases,orgs",
    [
        pytest.param({"a": "o=org0", "b": "o=org1", "c": "o=org2"}, 3,
                     id="flat-3-shards"),
        # ``None`` marks a nested cut at the first generated unit (unit
        # names depend on the seed, so the base is derived below).
        pytest.param({"root": "o=org0", "cut": None}, 1, id="nested-cut"),
        pytest.param({"cut": None, "root": "o=org0"}, 1,
                     id="reversed-nested-cut"),
    ],
)
@pytest.mark.parametrize("seed", [7, 23])
def test_spanning_differential_against_union_store(tmp_path, seed, bases, orgs):
    """The 2PC acceptance gate: randomized *spanning* insert+delete
    transactions, committed (or aborted) through two-phase commit, must
    produce byte-identical entries and identical verdicts vs a single
    union ``DirectoryStore`` applying the same stream — including after
    a reopen, so the durable prepare/decide frames replay to the same
    state the union's ordinary frames do."""
    schema = whitepages_schema()
    registry = whitepages_registry()
    initial = generate_whitepages(
        orgs=orgs, units_per_level=2, depth=1, persons_per_unit=2, seed=seed
    )
    if None in bases.values():
        first_unit = next(
            initial.dn_string_of(e)
            for e in initial
            if initial.dn_string_of(e).startswith("ou=")
            and initial.dn_string_of(e).count(",") == 1
        )
        bases = {
            name: base if base is not None else first_unit
            for name, base in bases.items()
        }
    union = DirectoryStore.create(
        str(tmp_path / "union"), schema, initial, registry
    )
    sharded = ShardedStore.create(
        str(tmp_path / "sharded"), schema, bases, initial, registry
    )
    reader = CompositeReader.open(str(tmp_path / "sharded"), schema, registry)
    assert len(reader.instance) == len(initial)  # stitched here, once
    rng = random.Random(seed)
    counter = [0]
    accepted = rejected = spanning = 0
    try:
        for step in range(12):
            tx = _spanning_step(
                rng, union, sharded.shard_map, counter,
                illegal=step in (4, 9),
            )
            owners = {sharded.shard_map.route(op.dn).name for op in tx}
            if len(owners) > 1:
                spanning += 1
            union_outcome = union.apply(tx)
            sharded_outcome = sharded.apply(tx)
            cohort_equals_union(
                union.instance, sharded.instance, union_outcome, sharded_outcome,
                (union.check(), sharded.check()), where=f" at step {step}",
            )
            accepted += union_outcome.applied
            rejected += not union_outcome.applied
            if len(owners) > 1:
                verdict = "committed" if union_outcome.applied else "aborted"
                assert any(
                    f"2pc: {verdict}" in c for c in sharded_outcome.checks
                ), sharded_outcome.checks
            assert _search_view(
                sharded.composite_instance()
            ) == _search_view(union.instance)
            refreshed = reader.refresh()
            assert not refreshed.stale
            _assert_followed_equals_stitched(reader, union.instance)
        assert spanning >= 4 and accepted >= 3 and rejected >= 2, (
            spanning, accepted, rejected,
        )
        # every committed 2PC slice was followed onto the one composite
        assert reader.stitches == 1 and reader.followed >= 2 * 4
    finally:
        reader.close()
        sharded.close()
        union.close()
    # Durability: both journals replay to the same state — the sharded
    # side through its prepare/decide pairs, the union through ordinary
    # frames.
    with DirectoryStore.open(str(tmp_path / "union"), schema, registry) as u:
        with ShardedStore.open(
            str(tmp_path / "sharded"), schema, registry
        ) as s:
            cohort_equals_union(u.instance, s.instance, reports=(u.check(), s.check()))


# ----------------------------------------------------------------------
# one cohort verdict: the four full-check surfaces agree, in order
# ----------------------------------------------------------------------
def _flat_cohort(registry):
    """Three flat shards: an organization, a root person, and a root
    person's slot left empty for a per-shard writer to fill."""
    from repro.model.instance import DirectoryInstance

    union = DirectoryInstance(attributes=registry)
    union.add_entry(
        None, "o=org0", ["organization", "orgGroup", "top"], {"o": ["org0"]}
    )
    union.add_entry(
        "o=org0", "ou=u0", ["orgUnit", "orgGroup", "top"], {"ou": ["u0"]}
    )
    union.add_entry(
        "ou=u0,o=org0", "uid=p0", ["person", "top"],
        {"uid": ["p0"], "name": ["p 0"]},
    )
    union.add_entry(
        None, "uid=solo", ["person", "top"],
        {"uid": ["solo"], "name": ["s olo"]},
    )
    return {"a": "o=org0", "b": "uid=solo", "c": "uid=twin"}, union


def _person(uid):
    return ["person", "top"], {"uid": [uid], "name": [f"n {uid}"]}


#: ``name: (map, [(shard, [op, ...]), ...])`` — each op is
#: ``("+", shard-local dn, classes, attributes)`` or ``("-", dn)``,
#: applied by a per-shard writer (``open_shard``), which is exactly
#: what the composite check is not there to stop.
COHORT_DAMAGE = {
    "flat-clean": ("flat", []),
    "flat-required": ("flat", [
        ("a", [("-", "uid=p0,ou=u0,o=org0"), ("-", "ou=u0,o=org0"),
               ("-", "o=org0")]),
    ]),
    "flat-dupkey": ("flat", [("c", [("+", "uid=twin", *_person("solo"))])]),
    "flat-required+dupkey": ("flat", [
        ("a", [("-", "uid=p0,ou=u0,o=org0"), ("-", "ou=u0,o=org0"),
               ("-", "o=org0")]),
        ("c", [("+", "uid=twin", *_person("solo"))]),
    ]),
    "nested-clean": ("nested", []),
    "nested-orphan": ("nested", [
        ("att", [("-", "o=att"), ("-", "uid=armstrong,o=att")]),
    ]),
    "nested-required": ("nested", [
        ("att", [("-", "uid=armstrong,o=att")]),
        ("labs", [("-", "uid=laks,ou=databases,ou=attLabs"),
                  ("-", "uid=suciu,ou=databases,ou=attLabs")]),
    ]),
    "nested-dupkey": ("nested", [
        ("labs", [("+", "uid=clone,ou=databases,ou=attLabs",
                   *_person("armstrong"))]),
    ]),
    "nested-edge": ("nested", [
        ("labs", [("+", "ou=ghost,ou=attLabs",
                   ["orgUnit", "orgGroup", "top"], {"ou": ["ghost"]})]),
    ]),
    "nested-edge+dupkey": ("nested", [
        ("labs", [("+", "ou=ghost,ou=attLabs",
                   ["orgUnit", "orgGroup", "top"], {"ou": ["ghost"]}),
                  ("+", "uid=clone,ou=databases,ou=attLabs",
                   *_person("armstrong"))]),
    ]),
    "nested-orphan+dupkey": ("nested", [
        ("att", [("-", "o=att"), ("-", "uid=armstrong,o=att")]),
        ("labs", [("+", "uid=clone,ou=databases,ou=attLabs",
                   *_person("laks"))]),
    ]),
}


def _counters(stats):
    """The machine-independent half of a :class:`CheckStats`."""
    import dataclasses

    fields = dataclasses.asdict(stats)
    del fields["phase_seconds"]
    return fields


@pytest.mark.parametrize("damage", sorted(COHORT_DAMAGE))
def test_four_check_surfaces_agree_in_order(tmp_path, registry, damage):
    """``ShardedStore.check`` and ``CompositeReader.check`` are one
    composition over two sources of members: same violations, same
    order, same summed engine counters — and the same set a union
    store's check finds.  ``create``, the third surface, refuses the
    violating union with the message it always had."""
    from repro.legality.engine import CheckSession

    schema = whitepages_schema(extras=True)
    layout, writes = COHORT_DAMAGE[damage]
    if layout == "flat":
        bases, union = _flat_cohort(registry)
    else:
        bases, union = NESTED_BASES, figure1_instance()
    path = str(tmp_path / "cohort")
    make_store(
        tmp_path, schema, registry, bases=bases, instance=union, name="cohort"
    ).close()
    shard_map = read_shard_map(path)
    orphaned = "orphan" in damage
    for name, ops in writes:
        tx = UpdateTransaction()
        for op in ops:
            if op[0] == "+":
                tx.insert(*op[1:])
            else:
                tx.delete(op[1])
        with ShardedStore.open_shard(path, name, schema, registry) as shard:
            assert shard.apply(tx).applied
        if orphaned:
            continue  # no union has a subtree without its root
        for op in ops:  # the same edits, blind, on the union
            dn = shard_map.globalize(parse_dn(op[1]), shard_map.spec(name))
            if op[0] == "-":
                union.delete_entry(str(dn))
            else:
                parent = None if dn.parent().is_empty() else str(dn.parent())
                union.add_entry(parent, str(dn.rdns[0]), *op[2:])

    # Every open checks cold: both check surfaces do the same engine work.
    with CompositeReader.open(path, schema, registry) as reader:
        view = reader.check()
        entries = len(reader.instance)
    with ShardedStore.open(path, schema, registry) as store:
        writer = store.check()

    assert writer.violations == view.violations
    assert _counters(writer.stats) == _counters(view.stats)
    assert writer.stats.entries_checked == entries
    assert view.stats.entries_checked == entries
    assert writer.is_legal == damage.endswith("clean")
    assert bool(writer.of_kind(Kind.ORPHANED_SHARD)) == orphaned
    if orphaned:
        return

    def verdicts(report):
        # Which holder of a duplicated key is "the duplicate" follows
        # document order, and a stitched composite orders siblings by
        # shard: compare the pair, not who is blamed.
        return sorted(
            (v.kind, *sorted([str(v.dn), v.message.rsplit("entry ", 1)[1]]))
            if v.kind == Kind.DUPLICATE_KEY
            else (v.kind, str(v.dn), v.message)
            for v in report
        )

    expected = CheckSession(schema).check(union)
    assert verdicts(writer) == verdicts(expected)
    if writer.is_legal:
        return
    composite = [v for v in expected if v.kind not in Kind.EXTRAS_KINDS]
    with pytest.raises(UpdateError) as refusal:
        make_store(
            tmp_path, schema, registry, bases=bases, instance=union,
            name="again",
        )
    message = str(refusal.value)
    if composite:
        assert message.startswith(
            "initial instance violates composite schema elements:\n"
            f"ILLEGAL: {len(composite)} violation(s)"
        )
        assert all(str(v) in message for v in composite)
        assert "duplicate-key" not in message
    else:
        assert message.startswith(
            "instance is not legal to begin with:\n"
            f"ILLEGAL: {len(expected)} violation(s)"
        )
        assert all(str(v) in message for v in expected)


def test_insert_under_deleted_entry_refused_identically(tmp_path):
    """Pin the ``decompose`` precondition that makes stepwise and
    final-state checking agree (semantics note in
    ``repro.store.sharded``): a transaction inserting under an entry it
    also deletes — the one shape whose intermediate state could break a
    composite element that the final state repairs — is refused as
    malformed by *both* stores before any verdict, with nothing
    committed."""
    schema = whitepages_schema()
    registry = whitepages_registry()
    union = DirectoryStore.create(
        str(tmp_path / "union"), schema, figure1_instance(), registry
    )
    sharded = ShardedStore.create(
        str(tmp_path / "sharded"), schema, NESTED_BASES,
        figure1_instance(), registry,
    )
    # A person child under armstrong would break forbid-child(person)
    # only while armstrong exists; deleting armstrong in the same
    # transaction would make the final state legal — exactly the
    # intermediate-only violation decompose's preconditions rule out.
    tx = UpdateTransaction()
    tx.insert(
        "uid=ghost,uid=armstrong,o=att", ["person", "top"],
        {"uid": ["ghost"], "name": ["g host"]},
    )
    tx.delete("uid=armstrong,o=att")
    try:
        with pytest.raises(UpdateError, match="same transaction deletes"):
            union.apply(tx)
        with pytest.raises(UpdateError, match="same transaction deletes"):
            sharded.apply(tx)
        assert union.journal_length == 0
        assert sharded.shard("att").journal_length == 0
        assert union.instance.find("uid=armstrong,o=att") is not None
        assert (
            sharded.composite_instance().find("uid=armstrong,o=att") is not None
        )
    finally:
        sharded.close()
        union.close()


# ----------------------------------------------------------------------
# coordinator-cut reads: a reader landing mid-2PC
# ----------------------------------------------------------------------
class TestCoordinatorCutReads:
    """A ``CompositeReader`` refreshing while a spanning transaction's
    decide frames are still in flight must show the transaction on every
    shard or on none — decided by the coordinator log's durable commit
    record, captured once per refresh (the coordinator cut).

    Each case crashes a writer at a named 2PC protocol point and reads
    the crashed directory *before* recovery runs, freezing the exact
    intermediate journal states the concurrent-server test only hits
    probabilistically — with a reader opened before the writer began,
    or one opened on the wreckage."""

    ATT_DN = "uid=c1att,o=att"
    LABS_DN = "uid=c1labs,ou=databases,ou=attLabs,o=att"

    def _crash_at(self, tmp_path, point):
        from harness.crash2pc import commit_tx, spanning_scenario
        from repro.store.faults import FaultPlan, FaultyIO, InjectedCrash

        with pytest.raises(InjectedCrash):
            spanning_scenario(commit_tx(1))(
                tmp_path, FaultyIO(FaultPlan(crash_at_point=point))
            )
        return str(tmp_path / "store")

    @staticmethod
    def _assert_followed_is_fresh_stitch(reader):
        """The held composite was stitched once and followed here; it
        must equal a stitch of the shard views as they stand now."""
        assert canonical_records(reader.instance) == canonical_records(
            _fresh_stitch(reader)
        )
        assert reader.stitches == 1

    @pytest.mark.parametrize("point", [
        "2pc:begin", "2pc:prepared:att", "2pc:prepared:labs", "2pc:decision",
        "2pc:committed", "2pc:decided:att", "2pc:decided:labs", "2pc:complete",
    ])
    def test_a_reader_opened_mid_commit_is_whole(
        self, tmp_path, schema, registry, point
    ):
        """The shard views bootstrap one after another, with no cut; the
        open ends with a refresh pinned to one, so a view opened on a
        commit stopped at any protocol point shows it on every shard or
        on none — on every shard once the commit record is durable."""
        path = self._crash_at(tmp_path, point)
        with CompositeReader.open(path, schema, registry) as reader:
            halves = [
                reader.instance.find(dn) is not None
                for dn in (self.ATT_DN, self.LABS_DN)
            ]
        committed = point in ("2pc:committed", "2pc:decided:att",
                              "2pc:decided:labs", "2pc:complete")
        assert halves == [committed, committed]

    @pytest.mark.parametrize("point", ["2pc:committed", "2pc:decided:att"])
    def test_cut_committed_transaction_visible_on_every_shard(
        self, tmp_path, schema, registry, point
    ):
        """Once the coordinator's commit record is durable, the refresh
        cut proves the outcome: shards whose decide frame never landed
        apply the prepared payload early instead of withholding it."""
        from harness.crash2pc import commit_tx, make_sharded
        from repro.store.faults import FaultPlan, FaultyIO, InjectedCrash

        path = str(tmp_path / "store")
        make_sharded(path)
        with CompositeReader.open(path, schema, registry) as reader:
            # Stitched before the writer began, so the early-resolved
            # payloads reach the composite by being followed.
            assert reader.instance.find(self.LABS_DN) is None
            store = ShardedStore.open(
                path, schema, registry,
                io=FaultyIO(FaultPlan(crash_at_point=point)),
            )
            with pytest.raises(InjectedCrash):
                try:
                    store.apply(commit_tx(1))
                finally:
                    store.close()
            reader.refresh()
            instance = reader.instance
            self._assert_followed_is_fresh_stitch(reader)
            assert instance.find(self.ATT_DN) is not None
            assert instance.find(self.LABS_DN) is not None
            labs = reader._readers["labs"]
            att = reader._readers["att"]
            # labs never saw its decide frame: applied early via the
            # cut, flagged as ahead of its durable position.
            assert labs.resolved_txid is not None
            assert labs.pending_txid is None
            if point == "2pc:committed":
                assert att.resolved_txid == labs.resolved_txid
            else:
                # att's decide landed before the crash and was consumed
                # normally — only labs needed resolution.
                assert att.resolved_txid is None
            before = canonical_records(instance)

            # Recovery appends the missing decide frames; the next
            # refresh consumes them positionally without re-replaying
            # the already-applied payload.
            ShardedStore.open(path, schema, registry).close()
            reader.refresh()
            assert reader._readers["labs"].resolved_txid is None
            assert reader._readers["att"].resolved_txid is None
            assert canonical_records(reader.instance) == before
            # ... nor re-following it onto the composite
            self._assert_followed_is_fresh_stitch(reader)

    @pytest.mark.parametrize("point", ["2pc:prepared:labs", "2pc:decision"])
    def test_in_doubt_transaction_withheld_on_every_shard(
        self, tmp_path, schema, registry, point
    ):
        """With no durable coordinator decision the prepares are
        genuinely in doubt: invisible on every shard (presumed abort),
        never applied by one shard and withheld by another."""
        path = self._crash_at(tmp_path, point)
        with CompositeReader.open(path, schema, registry) as reader:
            assert len(reader.instance)  # stitched before the refresh
            reader.refresh()
            instance = reader.instance
            self._assert_followed_is_fresh_stitch(reader)
            assert instance.find(self.ATT_DN) is None
            assert instance.find(self.LABS_DN) is None
            assert reader._readers["att"].pending_txid is not None
            if point == "2pc:prepared:labs":
                assert reader._readers["labs"].pending_txid is not None
            for shard_reader in reader._readers.values():
                assert shard_reader.resolved_txid is None

            # Recovery resolves the in-doubt prepares as aborted; the
            # reader follows the abort decides and the entries stay out.
            ShardedStore.open(path, schema, registry).close()
            result = reader.refresh()
            assert result.advanced
            for shard_reader in reader._readers.values():
                assert shard_reader.pending_txid is None
                assert shard_reader.resolved_txid is None
            assert reader.instance.find(self.ATT_DN) is None
            assert reader.instance.find(self.LABS_DN) is None
            self._assert_followed_is_fresh_stitch(reader)
