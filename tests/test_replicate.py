"""Unit tests for the WAL-shipping replication layer.

The crash matrix (``tests/test_replication_crash.py``) and the
multi-process stress harness pin the end-to-end properties; this file
pins the individual contracts of :mod:`repro.store.replicate`: the
stream envelope's validation, the shipper's attach/poll state machine,
the applier's enforced schema-before-data ordering, duplicate and gap
handling, durable resume, the local compaction fold, and promotion's
generation bump.
"""

from __future__ import annotations

import os
import threading

import pytest

from invariants import canonical_records, state_digest
from repro.errors import (
    ReplicaDivergedError,
    ReplicationError,
    StoreError,
    StoreLockedError,
)
from repro.query.filter_parser import parse_filter
from repro.ldif import serialize_ldif
from repro.store import DirectoryStore, wal
from repro.store.faults import InjectedCrash
from repro.store.recovery import JOURNAL_FILE, REPLICA_STATE_FILE, SNAPSHOT_FILE
from repro.store.replicate import (
    FrameSource,
    ReplicaApplier,
    decode_stream_message,
    encode_error_message,
    encode_schema_message,
    promote,
    pump,
    read_replica_state,
    schema_fingerprint,
)
from repro.store.wal import StoreIO
from repro.workloads import (
    figure1_instance,
    generate_whitepages,
    random_transaction,
    whitepages_registry,
    whitepages_schema,
)

from growth import fit_growth


@pytest.fixture
def primary(tmp_path):
    schema, registry = whitepages_schema(), whitepages_registry()
    primary_dir = str(tmp_path / "primary")
    store = DirectoryStore.create(
        primary_dir, schema, figure1_instance(), registry
    )
    yield store, primary_dir, schema, registry, str(tmp_path / "replica")
    store.close()


def _header(directory):
    """The header of a store directory's snapshot."""
    path = os.path.join(directory, SNAPSHOT_FILE)
    with open(path, encoding="utf-8") as handle:
        return wal.parse_header(handle.readline().rstrip("\n"), path)


def _snapshot_bytes(directory):
    with open(os.path.join(directory, SNAPSHOT_FILE), "rb") as handle:
        return handle.read()


class _AfterJournalReset(StoreIO):
    """A writer's I/O that calls ``then`` once an armed compaction has
    reset the journal — its new snapshot renamed into place, its
    ``compact`` not yet returned."""

    def __init__(self):
        self.then = None

    def write_file_atomic(self, path, data):
        super().write_file_atomic(path, data)
        if self.then is not None and os.path.basename(path) == JOURNAL_FILE:
            then, self.then = self.then, None
            then()


def _commit(store, count=1):
    for i in range(count):
        outcome = store.apply(
            random_transaction(store.instance, inserts=1, seed=i)
        )
        assert outcome.applied


class TestEnvelope:
    def test_rejects_non_replication_message(self):
        with pytest.raises(ReplicationError, match="not a replication"):
            decode_stream_message({"op": "search", "filter": "(uid=*)"})

    def test_rejects_unknown_kind(self):
        with pytest.raises(ReplicationError, match="unknown stream message"):
            decode_stream_message(
                {"op": "repl", "kind": "gossip", "generation": 1}
            )

    def test_rejects_malformed_frames_message(self):
        with pytest.raises(ReplicationError, match="malformed frames"):
            decode_stream_message(
                {"op": "repl", "kind": "frames", "generation": 1}
            )

    def test_error_message_raises_its_text(self):
        """A source that cannot go on ends its stream with an ``error``
        message; decoding it raises the text for the follower to report."""
        with pytest.raises(ReplicationError, match="^StoreError: boom$"):
            decode_stream_message(encode_error_message("StoreError: boom"))

    def test_fingerprint_is_deterministic(self):
        crc = schema_fingerprint(whitepages_schema())
        assert crc == schema_fingerprint(whitepages_schema())
        assert 0 <= crc <= 0xFFFFFFFF


class TestFrameSource:
    def test_fresh_follower_gets_snapshot_then_schema(self, primary):
        store, primary_dir, schema, _, _ = primary
        source = FrameSource(primary_dir, schema)
        assert source.attach(0, 0) is False
        kinds = [m["kind"] for m in source.poll()]
        assert kinds == ["snapshot", "schema"]
        assert source.poll() == []  # caught up

    def test_incremental_follow_ships_only_new_frames(self, primary):
        store, primary_dir, schema, registry, replica_dir = primary
        source = FrameSource(primary_dir, schema)
        with ReplicaApplier(replica_dir, schema, registry) as applier:
            pump(source, applier)
            _commit(store, 2)
            batch = source.poll()
            assert [m["kind"] for m in batch] == ["frames"]
            assert batch[0]["start_seq"] == 1  # starts right after the snapshot
            decoded = decode_stream_message(batch[0])
            assert decoded.records[-1].seq == store.journal_length

    def test_attach_at_durable_position_resumes(self, primary):
        store, primary_dir, schema, _, _ = primary
        _commit(store, 2)
        source = FrameSource(primary_dir, schema)
        assert source.attach(store.generation, store.journal_length) is True
        # a resume announcement precedes any data, nothing to ship yet
        assert [m["kind"] for m in source.poll()] == ["schema"]
        _commit(store)
        batch = source.poll()
        assert [m["kind"] for m in batch] == ["frames"]
        assert batch[0]["start_seq"] == store.journal_length

    def test_attach_rejects_unknown_generation(self, primary):
        store, primary_dir, schema, _, _ = primary
        source = FrameSource(primary_dir, schema)
        assert source.attach(store.generation + 5, 0) is False

    def test_poll_refuses_a_headerless_snapshot(self, primary):
        """A snapshot whose first line is no header is damage, whether
        the source tails the journal or would ship the snapshot."""
        store, primary_dir, schema, _, _ = primary
        attached = FrameSource(primary_dir, schema)
        assert attached.attach(store.generation, 0) is True
        path = os.path.join(primary_dir, SNAPSHOT_FILE)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(serialize_ldif(store.instance))
        for source in (attached, FrameSource(primary_dir, schema)):
            with pytest.raises(StoreError, match="snapshot header") as excinfo:
                source.poll()
            assert path in str(excinfo.value)


class TestSchemaBeforeData:
    def test_frames_before_announce_are_refused(self, primary):
        store, primary_dir, schema, registry, replica_dir = primary
        _commit(store)
        source = FrameSource(primary_dir, schema)
        snapshot_msg, schema_msg = source.poll()
        (frames_msg,) = source.poll()
        with ReplicaApplier(replica_dir, schema, registry) as applier:
            applier.apply_message(snapshot_msg)
            # a snapshot installs state but does not license data frames
            with pytest.raises(ReplicationError, match="must precede data"):
                applier.apply_message(frames_msg)
            applier.apply_message(schema_msg)
            applier.apply_message(frames_msg)
            assert applier.position() == (store.generation, 1)

    def test_schema_fingerprint_mismatch_is_refused(self, primary):
        _, _, schema, registry, replica_dir = primary
        with ReplicaApplier(replica_dir, schema, registry) as applier:
            alien = encode_schema_message(1, applier.schema_crc ^ 0xDEAD, 0)
            with pytest.raises(ReplicationError, match="fingerprint mismatch"):
                applier.apply_message(alien)


class TestReplicaApplier:
    def test_empty_replica_has_no_read_surface_yet(self, primary):
        _, _, schema, registry, replica_dir = primary
        with ReplicaApplier(replica_dir, schema, registry) as applier:
            assert applier.position() == (0, 0)
            with pytest.raises(StoreError, match="no state yet"):
                applier.instance

    def test_duplicate_delivery_is_idempotent(self, primary):
        store, primary_dir, schema, registry, replica_dir = primary
        source = FrameSource(primary_dir, schema)
        with ReplicaApplier(replica_dir, schema, registry) as applier:
            pump(source, applier)
            _commit(store)
            (frames_msg,) = source.poll()
            applier.apply_message(frames_msg)
            applied = applier.frames_applied
            applier.apply_message(frames_msg)  # reconnect overlap
            assert applier.frames_applied == applied
            assert applier.position() == (store.generation, store.journal_length)

    def test_replica_state_is_written_only_when_the_upstream_changes(
        self, primary, capsys
    ):
        """``replica.state`` names the upstream and the schema, not a
        position: applied commits write no state (no ``repl:state``
        crossing), the first message after a reattach writes it once,
        and ``fsck`` reads the synced position off the journal."""
        from repro.cli import main
        from repro.store.faults import FaultPlan, FaultyIO

        store, primary_dir, schema, registry, replica_dir = primary
        io = FaultyIO(FaultPlan())
        source = FrameSource(primary_dir, schema)
        with ReplicaApplier(
            replica_dir, schema, registry, io=io, upstream="first:1"
        ) as applier:
            pump(source, applier)  # the bootstrap records the upstream
            assert io.plan.points.count("repl:state") == 1
            assert read_replica_state(replica_dir) == {
                "upstream": "first:1", "schema_crc": applier.schema_crc,
            }
            _commit(store, 3)
            pump(source, applier)
            assert io.plan.points.count("repl:state") == 1
            applier.upstream = "second:2"  # what a reattach does
            _commit(store)
            pump(source, applier)
            assert io.plan.points.count("repl:state") == 2
            assert read_replica_state(replica_dir)["upstream"] == "second:2"
            synced = applier.position()
        assert synced == (store.generation, store.journal_length)
        capsys.readouterr()
        assert main(["fsck", replica_dir]) == 0
        assert (
            f"replica state: following second:2 — synced to {synced} "
            in capsys.readouterr().out
        )

    def test_catch_up_ships_the_delta_not_the_snapshot(self, tmp_path):
        """A follower's catch-up costs O(|Δ|): after Δ commits on a
        ~2k-entry primary exactly Δ frames ship, a sliver of the
        snapshot and ~linear in Δ, while the snapshot is installed and
        the replica's view bootstrapped exactly once."""
        schema, registry = whitepages_schema(), whitepages_registry()
        primary_dir = str(tmp_path / "primary")
        instance = generate_whitepages(
            orgs=6, units_per_level=5, depth=2, persons_per_unit=10, seed=42
        )
        with DirectoryStore.create(primary_dir, schema, instance, registry) as store, \
                ReplicaApplier(str(tmp_path / "replica"), schema, registry) as applier:
            source = FrameSource(primary_dir, schema)
            pump(source, applier)  # snapshot bootstrap
            snapshot_bytes = os.path.getsize(os.path.join(primary_dir, SNAPSHOT_FILE))
            deltas, shipped = [1, 2, 4, 8, 16], []
            for delta in deltas:
                _commit(store, delta)
                frames, sent = applier.frames_applied, applier.bytes_applied
                pump(source, applier)
                assert applier.frames_applied - frames == delta
                shipped.append(applier.bytes_applied - sent)
                assert shipped[-1] * 20 < snapshot_bytes
                assert applier.snapshots_installed == 1
                assert applier.reader.bootstraps == 1
            assert applier.position() == (store.generation, store.journal_length)
            assert 0.5 < fit_growth(deltas, shipped) < 1.5, shipped

    def test_gap_in_stream_is_refused(self, primary):
        store, primary_dir, schema, registry, replica_dir = primary
        source = FrameSource(primary_dir, schema)
        with ReplicaApplier(replica_dir, schema, registry) as applier:
            pump(source, applier)
            _commit(store)
            source.poll()  # lose this batch
            _commit(store)
            (late,) = source.poll()
            with pytest.raises(ReplicaDivergedError, match="gap"):
                applier.apply_message(late)

    def test_resume_from_durable_position(self, primary):
        store, primary_dir, schema, registry, replica_dir = primary
        _commit(store)
        source = FrameSource(primary_dir, schema)
        with ReplicaApplier(
            replica_dir, schema, registry, upstream="primary:1389"
        ) as applier:
            pump(source, applier)
            position = applier.position()
        _commit(store, 2)
        # a restarted applier recovers its position and its upstream
        with ReplicaApplier(replica_dir, schema, registry) as applier:
            assert applier.position() == position
            assert applier.upstream == "primary:1389"
            source = FrameSource(primary_dir, schema)
            assert source.attach(*position) is True
            pump(source, applier)
            assert applier.position() == (store.generation, store.journal_length)
            assert state_digest(applier.instance) == state_digest(store.instance)

    def test_fold_follows_compaction_without_snapshot(self, primary):
        store, primary_dir, schema, registry, replica_dir = primary
        source = FrameSource(primary_dir, schema)
        with ReplicaApplier(replica_dir, schema, registry) as applier:
            pump(source, applier)
            _commit(store, 2)
            pump(source, applier)
            store.compact()
            _commit(store)
            pump(source, applier)
            assert applier.snapshots_installed == 1  # the bootstrap only
            assert applier.position() == (store.generation, 1)
            assert state_digest(applier.instance) == state_digest(store.instance)
            assert read_replica_state(replica_dir) is not None

    def test_fold_snapshot_equals_the_primarys_byte_for_byte(self, primary):
        """A follower's fold writes the snapshot the primary's compaction
        wrote — the same state, the same header, fold proof included."""
        store, primary_dir, schema, registry, replica_dir = primary
        source = FrameSource(primary_dir, schema)
        with ReplicaApplier(replica_dir, schema, registry) as applier:
            pump(source, applier)
            _commit(store, 3)
            pump(source, applier)
            store.compact()
            pump(source, applier)
            assert applier.snapshots_installed == 1  # folded, not shipped
        assert _header(primary_dir) == wal.SnapshotHeader(2, folds=3)
        assert _snapshot_bytes(replica_dir) == _snapshot_bytes(primary_dir)

    def test_a_compaction_held_after_its_journal_reset_ships_a_fold(self, tmp_path):
        """Between ``compact``'s journal reset and its return, a source
        at the folded frontier already ships the fold: the proof is in
        the snapshot that was renamed into place, not in a later file."""
        schema, registry = whitepages_schema(), whitepages_registry()
        primary_dir, replica_dir = str(tmp_path / "primary"), str(tmp_path / "replica")
        io = _AfterJournalReset()
        store = DirectoryStore.create(
            primary_dir, schema, figure1_instance(), registry, io=io
        )
        source = FrameSource(primary_dir, schema)
        shipped = []
        try:
            with ReplicaApplier(replica_dir, schema, registry) as applier:
                pump(source, applier)
                _commit(store, 2)
                pump(source, applier)
                io.then = lambda: shipped.extend(source.poll())
                store.compact()
                assert [(m["kind"], m.get("folds")) for m in shipped] == [
                    ("schema", 2)
                ]
                for message in shipped:
                    applier.apply_message(message)
                assert applier.position() == (2, 0)
                assert applier.snapshots_installed == 1
        finally:
            store.close()

    def test_a_primary_killed_after_its_journal_reset_still_lets_a_follower_fold(
        self, tmp_path
    ):
        """The primary dies right after ``compact`` reset its journal.
        Reopened, it still proves the fold to a follower standing at the
        folded frontier: that follower compacts locally instead of
        downloading the snapshot again."""
        schema, registry = whitepages_schema(), whitepages_registry()
        primary_dir, replica_dir = str(tmp_path / "primary"), str(tmp_path / "replica")
        io = _AfterJournalReset()
        store = DirectoryStore.create(
            primary_dir, schema, figure1_instance(), registry, io=io
        )

        def kill():
            raise InjectedCrash("killed after the journal reset")

        with ReplicaApplier(replica_dir, schema, registry) as applier:
            source = FrameSource(primary_dir, schema)
            pump(source, applier)
            _commit(store, 2)
            pump(source, applier)
            frontier = applier.position()
            io.then = kill
            with pytest.raises(InjectedCrash):
                store.compact()
            store.close()  # what the kernel does for a killed holder
            with DirectoryStore.open(primary_dir, schema, registry) as reopened:
                source = FrameSource(primary_dir, schema)
                assert source.attach(*frontier) is True
                pump(source, applier)
                assert applier.snapshots_installed == 1
                assert applier.position() == reopened.position() == (2, 0)
                assert state_digest(applier.instance) == state_digest(
                    reopened.instance
                )

    def test_a_member_directory_holds_snapshot_journal_and_lock(self, primary):
        """``create``, ``compact``, a follower's snapshot install and
        fold, and ``promote`` leave no file but the snapshot, the
        journal and the lock (with the guard its reclaim takes) — and
        ``replica.state`` while following."""
        store, primary_dir, schema, registry, replica_dir = primary
        member = ["journal.ldif", "lock", "lock.guard", "snapshot.ldif"]
        follower = sorted(member + [REPLICA_STATE_FILE])
        assert sorted(os.listdir(primary_dir)) == member
        _commit(store, 2)
        store.compact()
        assert sorted(os.listdir(primary_dir)) == member
        source = FrameSource(primary_dir, schema)
        with ReplicaApplier(replica_dir, schema, registry) as applier:
            pump(source, applier)
            assert sorted(os.listdir(replica_dir)) == follower
            _commit(store, 2)
            pump(source, applier)
            store.compact()
            pump(source, applier)
            assert applier.snapshots_installed == 1  # the install, then a fold
            assert sorted(os.listdir(replica_dir)) == follower
        with promote(replica_dir, schema, registry):
            assert sorted(os.listdir(replica_dir)) == member

    def test_directory_lock_excludes_second_applier(self, primary):
        _, _, schema, registry, replica_dir = primary
        with ReplicaApplier(replica_dir, schema, registry):
            with pytest.raises(StoreLockedError):
                ReplicaApplier(replica_dir, schema, registry)

    def test_status_and_lag(self, primary):
        store, primary_dir, schema, registry, replica_dir = primary
        source = FrameSource(primary_dir, schema)
        with ReplicaApplier(replica_dir, schema, registry) as applier:
            assert applier.lag_frames() is None  # no frontier observed
            pump(source, applier)
            _commit(store, 3)
            applier.frontier = (store.generation, store.journal_length)
            assert applier.lag_frames() == 3
            pump(source, applier)
            status = applier.status()
            assert status["lag_frames"] == 0
            assert status["generation"] == store.generation
            assert status["frames_applied"] >= 3


class TestPromotion:
    def test_promote_starts_a_new_epoch(self, primary):
        store, primary_dir, schema, registry, replica_dir = primary
        _commit(store, 2)
        source = FrameSource(primary_dir, schema)
        with ReplicaApplier(replica_dir, schema, registry) as applier:
            pump(source, applier)
            digest = state_digest(applier.instance)
        promoted = promote(replica_dir, schema, registry)
        try:
            # generation bump: frames from the old primary are stale now
            assert promoted.generation == store.generation + 1
            assert state_digest(promoted.instance) == digest
            _commit(promoted)
            assert read_replica_state(replica_dir) is None
            assert not os.path.exists(
                os.path.join(replica_dir, REPLICA_STATE_FILE)
            )
        finally:
            promoted.close()


NESTED_BASES = {"att": "o=att", "labs": "ou=attLabs,o=att"}


@pytest.fixture
def sharded_primary(tmp_path):
    from repro.store.sharded import ShardedStore

    schema, registry = whitepages_schema(), whitepages_registry()
    primary_dir = str(tmp_path / "sharded-primary")
    store = ShardedStore.create(
        primary_dir, schema, NESTED_BASES, figure1_instance(), registry
    )
    yield store, primary_dir, schema, registry, str(tmp_path / "cohort")
    store.close()


def _spanning_commit(store, index):
    from repro.updates.operations import UpdateTransaction

    tx = UpdateTransaction()
    tx.insert(f"uid=r{index},o=att", ["person", "top"],
              {"uid": [f"r{index}"], "name": [f"r {index}"]})
    tx.insert(f"uid=l{index},ou=attLabs,o=att", ["person", "top"],
              {"uid": [f"l{index}"], "name": [f"l {index}"]})
    outcome = store.apply(tx)
    assert outcome.applied
    return outcome


class TestShardedReplication:
    """The sharded multiplexer: per-shard streams under one
    coordinator-consistent cut — a follower set never observes half a
    spanning transaction, and promotes as a cohort or not at all."""

    def test_cohort_bootstrap_and_cut_consistency(self, sharded_primary):
        from repro.store.replicate import (
            ShardedFrameSource,
            ShardedReplicaApplier,
            read_cut_state,
        )

        store, primary_dir, schema, registry, cohort_dir = sharded_primary
        _spanning_commit(store, 1)
        _spanning_commit(store, 2)
        source = ShardedFrameSource(primary_dir, schema)
        with ShardedReplicaApplier(cohort_dir, schema, registry) as applier:
            assert applier.position() == {}  # fresh: no shard map yet
            pump(source, applier)
            # the stream landed the cohort exactly on the shipped cut
            assert applier.consistent()
            assert applier.position() == source.position
            assert read_cut_state(cohort_dir) == applier.position()
            assert state_digest(applier.instance) == state_digest(
                store.composite_instance()
            )

    def test_spanning_transactions_never_ship_torn(self, sharded_primary):
        """Each poll batch closes on a coordinator cut: a spanning
        2PC commit lands on the follower either whole or not at all,
        no matter how polls interleave with commits."""
        from repro.store.replicate import (
            ShardedFrameSource,
            ShardedReplicaApplier,
        )

        store, primary_dir, schema, registry, cohort_dir = sharded_primary
        source = ShardedFrameSource(primary_dir, schema)
        with ShardedReplicaApplier(cohort_dir, schema, registry) as applier:
            pump(source, applier)
            for index in range(1, 5):
                _spanning_commit(store, index)
                pump(source, applier)
                assert applier.consistent()
                # both halves present, or neither — never one
                instance = applier.instance
                for j in range(1, index + 1):
                    att = instance.find(f"uid=r{j},o=att")
                    labs = instance.find(f"uid=l{j},ou=attLabs,o=att")
                    assert (att is None) == (labs is None)
                    assert att is not None
            assert state_digest(applier.instance) == state_digest(
                store.composite_instance()
            )

    def test_sharded_replication_differential(self, sharded_primary):
        """Every pump lands the follower cohort exactly on the primary's
        composite state at a coordinator cut: frontier and digest agree
        after each spanning 2PC commit, not only at the end.  (Moved
        here from ``benchmarks/bench_frontdoor.py`` at its smoke size —
        it counts no time.)"""
        from repro.store.replicate import (
            ShardedFrameSource,
            ShardedReplicaApplier,
        )

        store, primary_dir, schema, registry, cohort_dir = sharded_primary
        source = ShardedFrameSource(primary_dir, schema)
        with ShardedReplicaApplier(cohort_dir, schema, registry) as applier:
            pump(source, applier)  # cohort bootstrap
            assert applier.consistent()
            for index in range(4):
                _spanning_commit(store, index)
                pump(source, applier)
                assert applier.consistent(), (
                    f"round {index}: the shipped cut tore a spanning "
                    "commit across the cohort"
                )
                assert applier.position() == source.position
                assert state_digest(applier.instance) == state_digest(
                    store.composite_instance()
                ), f"round {index}: follower diverged from the primary"

    def test_open_view_follows_spanning_transactions(self, sharded_primary):
        """The cohort's served copy — taken the way a replica server's
        reads take it, *before* the spanning transaction commits —
        advances with every shipped cut, its applier replaying each
        batch into it once.  A view of the cohort used to pin each
        refresh to a coordinator log a replica does not have, and froze
        for ever in front of the first shipped ``#PREPARE``/``#DECIDE``
        pair."""
        from repro.store.replicate import (
            ShardedFrameSource,
            ShardedReplicaApplier,
        )

        store, primary_dir, schema, registry, cohort_dir = sharded_primary
        source = ShardedFrameSource(primary_dir, schema)
        with ShardedReplicaApplier(cohort_dir, schema, registry) as applier:
            pump(source, applier)
            view = applier.served()
            assert len(view.instance) == len(store.composite_instance())
            for index in (1, 2):  # the second pair is followed too
                _spanning_commit(store, index)
                pump(source, applier)
                assert applier.served() is view
                assert view.position() == applier.position()
                assert view.position() == store.position()
                found = {
                    view.dn_string_of(entry)
                    for entry in view.search(
                        filter=parse_filter(f"(|(uid=r{index})(uid=l{index}))")
                    )
                }
                assert found == {
                    f"uid=r{index},o=att",
                    f"uid=l{index},ou=attLabs,o=att",
                }
            # same content as the primary (sibling order is the copy's
            # own history, so compare order-free)
            assert canonical_records(view.instance) == canonical_records(
                store.composite_instance()
            )
            assert view.stitches == 1  # followed, not re-stitched

    def test_view_refuses_to_refresh_off_cut_or_after_close(
        self, sharded_primary
    ):
        """The served copy is whole only on the cohort's replicated cut:
        between cuts, and once the applier is closed (promotion), a read
        is refused instead of answered from members a batch — or a
        promoted writer — may be half way through.  And a read never
        refreshes it: its applier is the only one to advance it."""
        from repro.store.replicate import (
            ShardedFrameSource,
            ShardedReplicaApplier,
        )

        store, primary_dir, schema, registry, cohort_dir = sharded_primary
        source = ShardedFrameSource(primary_dir, schema)
        applier = ShardedReplicaApplier(cohort_dir, schema, registry)
        try:
            pump(source, applier)
            view = applier.served()
            with pytest.raises(StoreError, match="appliers advance it"):
                view.refresh()
            recorded, applier._cut = applier._cut, None  # between cuts
            with pytest.raises(StoreError, match="consistent replicated cut"):
                applier.served()
            applier._cut = recorded
            assert applier.served() is view
            applier.close()
            with pytest.raises(StoreError, match="closed"):
                applier.served()
            with pytest.raises(StoreError, match="closed"):
                view.search()
        finally:
            applier.close()

    def test_repeated_instance_reads_bootstrap_nothing(
        self, sharded_primary, monkeypatch
    ):
        """``instance`` stitches the served copy's member instances: the
        member readers were bootstrapped once, by the applier, and no
        read of the instance bootstraps one again."""
        from repro.store.reader import StoreReader
        from repro.store.replicate import (
            ShardedFrameSource,
            ShardedReplicaApplier,
        )

        store, primary_dir, schema, registry, cohort_dir = sharded_primary
        source = ShardedFrameSource(primary_dir, schema)
        with ShardedReplicaApplier(cohort_dir, schema, registry) as applier:
            pump(source, applier)
            bootstrapped = []
            bootstrap = StoreReader._bootstrap

            def counted(reader):
                bootstrapped.append(reader)
                return bootstrap(reader)

            monkeypatch.setattr(StoreReader, "_bootstrap", counted)
            first = state_digest(applier.instance)
            assert first == state_digest(store.composite_instance())
            assert {state_digest(applier.instance) for _ in range(3)} == {first}
            _spanning_commit(store, 1)
            pump(source, applier)
            assert state_digest(applier.instance) == state_digest(
                store.composite_instance()
            )
            assert bootstrapped == []

    def test_resume_from_durable_cut(self, sharded_primary):
        from repro.store.replicate import (
            ShardedFrameSource,
            ShardedReplicaApplier,
        )

        store, primary_dir, schema, registry, cohort_dir = sharded_primary
        _spanning_commit(store, 1)
        source = ShardedFrameSource(primary_dir, schema)
        with ShardedReplicaApplier(cohort_dir, schema, registry) as applier:
            pump(source, applier)
            resumed_at = applier.position()
        _spanning_commit(store, 2)
        # a new source attaches incrementally at the durable cut
        fresh = ShardedFrameSource(primary_dir, schema)
        assert fresh.attach(resumed_at)
        with ShardedReplicaApplier(cohort_dir, schema, registry) as applier:
            assert applier.position() == resumed_at
            while True:
                batch = fresh.poll()
                if not batch:
                    break
                assert all(m.get("kind") != "snapshot" for m in batch)
                for message in batch:
                    applier.apply_message(message)
            assert applier.consistent()
            assert state_digest(applier.instance) == state_digest(
                store.composite_instance()
            )

    def test_promote_shards_promotes_the_cohort(self, sharded_primary):
        from repro.store.recovery import REPLICA_STATE_FILE, SNAPSHOT_FILE
        from repro.store.replicate import (
            CUT_STATE_FILE,
            ShardedFrameSource,
            ShardedReplicaApplier,
            read_cut_state,
        )

        store, primary_dir, schema, registry, cohort_dir = sharded_primary
        _spanning_commit(store, 1)
        source = ShardedFrameSource(primary_dir, schema)
        with ShardedReplicaApplier(cohort_dir, schema, registry) as applier:
            pump(source, applier)
            digest = state_digest(applier.instance)
        promoted = promote(cohort_dir, schema, registry)
        try:
            assert state_digest(promoted.composite_instance()) == digest
            # every member bumped its generation; cohort is writable
            for _, (generation, _) in promoted.position().items():
                assert generation == 2
            _spanning_commit(promoted, 9)
        finally:
            promoted.close()
        assert read_cut_state(cohort_dir) is None
        assert not os.path.exists(os.path.join(cohort_dir, CUT_STATE_FILE))
        assert not os.path.exists(
            os.path.join(cohort_dir, REPLICA_STATE_FILE)
        )

    def test_promote_shards_refuses_without_a_cut(self, tmp_path, sharded_primary):
        _, _, schema, registry, _ = sharded_primary
        bare = str(tmp_path / "bare")
        os.makedirs(bare)
        with pytest.raises(StoreError, match="cut"):
            promote(bare, schema, registry)

    def test_promote_refuses_a_cohort_without_a_cut(self, sharded_primary):
        """A cohort that got its shard map but never completed a batch
        has no replicated cut to be promoted on."""
        from repro.store.replicate import (
            ShardedFrameSource,
            ShardedReplicaApplier,
        )

        _, primary_dir, schema, registry, cohort_dir = sharded_primary
        shard_map_message = ShardedFrameSource(primary_dir, schema).poll()[0]
        with ShardedReplicaApplier(cohort_dir, schema, registry) as applier:
            assert applier.apply_message(shard_map_message).kind == "shardmap"
        with pytest.raises(StoreError, match="cut"):
            promote(cohort_dir, schema, registry)

    def test_promote_shards_refuses_off_cut_member(self, sharded_primary):
        """Atomicity of cohort promotion: if any member sits off the
        recorded cut (here: the cut file claims a frontier one ahead of
        what actually landed), the whole promotion refuses and no
        member is bumped."""
        import json

        from repro.store.replicate import (
            CUT_STATE_FILE,
            ShardedFrameSource,
            ShardedReplicaApplier,
            read_cut_state,
        )
        from repro.store.shardmap import shard_dir

        store, primary_dir, schema, registry, cohort_dir = sharded_primary
        _spanning_commit(store, 1)
        source = ShardedFrameSource(primary_dir, schema)
        with ShardedReplicaApplier(cohort_dir, schema, registry) as applier:
            pump(source, applier)
        cut = read_cut_state(cohort_dir).raw
        cut["att"] = (cut["att"][0], cut["att"][1] + 1)
        with open(os.path.join(cohort_dir, CUT_STATE_FILE), "w") as handle:
            json.dump({name: list(pos) for name, pos in cut.items()}, handle)
        with pytest.raises(StoreError, match="replicated cut"):
            promote(cohort_dir, schema, registry)
        assert read_replica_state(cohort_dir) is not None  # still following
        for name in ("att", "labs"):  # nobody was bumped
            assert _header(shard_dir(cohort_dir, name)).generation == 1

    @pytest.mark.parametrize("point, headers", [
        # both members folded: generation 2, folding seq 2
        ("repl:cut-state", [(2, 2), (2, 2)]),
        # att's fold snapshot landed, its journal was not reset: byte for
        # byte what a promotion killed inside att's compaction leaves
        ("repl:fold-journal", [(2, 2), (1, None)]),
    ], ids=["repl:cut-state", "repl:fold-journal"])
    def test_promote_refuses_a_fold_the_cut_never_recorded(
        self, sharded_primary, point, headers
    ):
        """A follower killed on a batch that carried a compaction fold
        stands one generation past its cut, like a member a crashed
        promotion bumped.  With the primary gone it is promoted without
        a resume; no promotion recorded its intent, so it is refused."""
        from repro.store.faults import FaultPlan, FaultyIO, InjectedCrash
        from repro.store.replicate import (
            PROMOTE_STATE_FILE,
            ShardedFrameSource,
            ShardedReplicaApplier,
            read_cut_state,
        )
        from repro.store.shardmap import shard_dir

        store, primary_dir, schema, registry, cohort_dir = sharded_primary
        io = FaultyIO(FaultPlan())
        source = ShardedFrameSource(primary_dir, schema)
        with ShardedReplicaApplier(cohort_dir, schema, registry, io=io) as applier:
            pump(source, applier)
            _spanning_commit(store, 1)
            pump(source, applier)
            store.compact()
            io.plan.crash_at_point = point
            with pytest.raises(InjectedCrash):
                pump(source, applier)
        assert read_cut_state(cohort_dir) == {"att": (1, 2), "labs": (1, 2)}
        assert [
            (h.generation, h.folds)
            for h in (_header(shard_dir(cohort_dir, n)) for n in ("att", "labs"))
        ] == headers
        with pytest.raises(StoreError, match=r"shard 'att' stands at \(2, 0\)"):
            promote(cohort_dir, schema, registry)
        assert not os.path.exists(os.path.join(cohort_dir, PROMOTE_STATE_FILE))


class _HoldAtPoint(StoreIO):
    """The writer's I/O: holds a spanning commit at one named fault
    point until released."""

    def __init__(self, point):
        self.point = point
        self.reached = threading.Event()
        self.release = threading.Event()

    def fault_point(self, name):
        if name == self.point:
            self.reached.set()
            assert self.release.wait(10), "never released"


class _BeforeJournalRead(StoreIO):
    """A frame source's I/O: runs ``hook`` once, just before its next
    read of ``journal``'s tail — after the poll captured the
    coordinator log."""

    def __init__(self, journal):
        self.journal = journal
        self.hook = None

    def read_bytes_from(self, path, offset):
        if self.hook is not None and path == self.journal:
            hook, self.hook = self.hook, None
            hook()
        return super().read_bytes_from(path, offset)


class TestCutAgainstAConcurrentCommit:
    """A poll interleaved with a two-shard 2PC commit, deterministically:
    the source captures the coordinator log, then the writer begins,
    prepares both shards, commits and decides ``att`` — and is held
    there, ``labs`` still undecided — while the source reads the shard
    tails.  The transaction began after the capture, so its txid is
    absent from it: the source must not read that as "retired"."""

    def test_a_transaction_begun_after_the_capture_ships_whole(
        self, sharded_primary
    ):
        from repro.store.replicate import ShardedFrameSource, ShardedReplicaApplier
        from repro.store.sharded import ShardedStore, shard_dir

        store, primary_dir, schema, registry, cohort_dir = sharded_primary
        store.close()
        writer_io = _HoldAtPoint("2pc:decided:att")
        store = ShardedStore.open(primary_dir, schema, registry, io=writer_io)
        source_io = _BeforeJournalRead(
            os.path.join(shard_dir(primary_dir, "att"), "journal.ldif")
        )
        source = ShardedFrameSource(primary_dir, schema, io=source_io)
        failures = []

        def commit():
            try:
                _spanning_commit(store, 1)
            except BaseException as exc:  # reported by the main thread
                failures.append(exc)

        writer = threading.Thread(target=commit)

        def start_the_commit():
            writer.start()
            assert writer_io.reached.wait(10), failures

        def whole(instance):
            halves = [
                instance.find("uid=r1,o=att") is not None,
                instance.find("uid=l1,ou=attLabs,o=att") is not None,
            ]
            assert halves[0] == halves[1], f"a torn cut: {halves}"
            return halves[0]

        try:
            with ShardedReplicaApplier(cohort_dir, schema, registry) as cohort:
                pump(source, cohort)
                source_io.hook = start_the_commit
                for message in source.poll():
                    cohort.apply_message(message)
                assert writer_io.reached.is_set(), "the poll never read att's tail"
                assert not whole(cohort.instance)
                assert cohort.consistent()
                writer_io.release.set()
                writer.join(10)
                assert not writer.is_alive() and not failures, failures
                pump(source, cohort)
                assert whole(cohort.instance)
                assert cohort.consistent()
                assert state_digest(cohort.instance) == state_digest(
                    store.composite_instance()
                )
        finally:
            writer_io.release.set()
            if writer.ident is not None:
                writer.join(10)
            store.close()


class _CutProbeIO(StoreIO):
    """Watches a cohort's fault points: records every name, and where
    the cohort's served copy stands at ``repl:cut-state``; once armed,
    holds that point until released."""

    def __init__(self):
        self.cohort = None
        self.points = []
        self.served_at_cut_state = []
        self.hold = False
        self.entered = threading.Event()
        self.release = threading.Event()

    def fault_point(self, name):
        self.points.append(name)
        if name == "repl:cut-state":
            self.served_at_cut_state.append(self.cohort.position())
            if self.hold:
                self.entered.set()
                assert self.release.wait(10), "never released"


class TestCohortBatchLock:
    """A cohort records ``cut.state`` (and ``replica.state``) once its
    batch landed in its served copy, and the members keep no
    ``replica.state`` of their own."""

    @staticmethod
    def _follower(sharded_primary):
        from repro.store.replicate import ShardedFrameSource, ShardedReplicaApplier

        store, primary_dir, schema, registry, cohort_dir = sharded_primary
        io = _CutProbeIO()
        cohort = ShardedReplicaApplier(cohort_dir, schema, registry, io=io)
        io.cohort = cohort
        source = ShardedFrameSource(primary_dir, schema)
        pump(source, cohort)
        io.served_at_cut_state.clear()
        return store, source, cohort, io

    def test_state_files_are_written_outside_the_lock(self, sharded_primary):
        """The state files are written after the land: the served copy
        already stands on the cut ``cut.state`` records."""
        store, source, cohort, io = self._follower(sharded_primary)
        with cohort:
            io.points.clear()
            _spanning_commit(store, 1)
            batch = source.poll()
            assert {m["kind"] for m in batch} == {"frames", "cut"}
            for message in batch:
                cohort.apply_message(message)
            assert cohort.consistent() and cohort.position() == store.position()
            assert "repl:cut-state" in io.points
            assert "repl:state" not in io.points  # no member wrote one
            assert io.served_at_cut_state == [store.position()]

    def test_a_view_refreshes_while_cut_state_is_written(self, sharded_primary):
        """A read of the cohort's served copy reaches the new cut while
        the applier is still inside the ``cut.state`` write, on another
        thread: the batch already landed, and nothing waits for it."""
        store, source, cohort, io = self._follower(sharded_primary)
        with cohort:
            _spanning_commit(store, 1)
            for message in source.poll():
                cohort.stage(message)
            cohort.land()
            io.hold = True
            failures = []

            def recording():
                try:
                    cohort.record()
                except BaseException as exc:  # reported by the main thread
                    failures.append(exc)

            applying = threading.Thread(target=recording)
            applying.start()
            try:
                assert io.entered.wait(10)
                view = cohort.served()
                assert view.position() == store.position()
                assert len(view.search(filter=parse_filter("(uid=l1)"))) == 1
            finally:
                io.release.set()
                applying.join(10)
            assert not applying.is_alive() and not failures, failures
            assert cohort.consistent()

    def test_members_keep_no_replica_state(self, sharded_primary):
        """The frontier is recorded in ``cut.state`` only: a commit
        leaves the members without a ``replica.state`` and the cohort's
        own, which names the upstream, byte for byte as it was."""
        from repro.store.replicate import read_cut_state
        from repro.store.shardmap import shard_dir

        store, source, cohort, _ = self._follower(sharded_primary)
        cohort_dir = sharded_primary[4]

        def member_states():
            return {
                name: read_replica_state(shard_dir(cohort_dir, name))
                for name in ("att", "labs")
            }

        def cohort_state():
            with open(os.path.join(cohort_dir, REPLICA_STATE_FILE), "rb") as fh:
                return fh.read()

        with cohort:
            before, recorded = member_states(), cohort_state()
            _spanning_commit(store, 1)
            pump(source, cohort)
            assert cohort.position() == store.position()
            assert member_states() == before == {"att": None, "labs": None}
            assert read_cut_state(cohort_dir) == store.position()
            assert cohort_state() == recorded
            assert set(read_replica_state(cohort_dir)) == {"upstream", "schema_crc"}

    def test_fsck_reports_a_cohort_killed_before_its_cut(
        self, sharded_primary, capsys
    ):
        """A cohort is synced to its recorded cut, not to its member
        journals: killed at ``repl:cut-state`` its members stand past
        the cut, and ``fsck`` flags them instead of reporting their
        tails as the synced frontier."""
        from repro.cli import main
        from repro.store.faults import FaultPlan, FaultyIO, InjectedCrash
        from repro.store.replicate import (
            ShardedFrameSource,
            ShardedReplicaApplier,
            read_cut_state,
        )

        store, primary_dir, schema, registry, cohort_dir = sharded_primary
        io = FaultyIO(FaultPlan())
        source = ShardedFrameSource(primary_dir, schema)
        with ShardedReplicaApplier(cohort_dir, schema, registry, io=io) as cohort:
            pump(source, cohort)
            cut = read_cut_state(cohort_dir)
            _spanning_commit(store, 1)
            io.plan.crash_at_point = "repl:cut-state"
            with pytest.raises(InjectedCrash):
                pump(source, cohort)
            members = cohort.position()
        assert members == store.position() != cut == read_cut_state(cohort_dir)
        capsys.readouterr()
        assert main(["fsck", cohort_dir]) == 0
        out = capsys.readouterr().out
        assert f" — synced to {cut} (promote before writing locally)" in out
        assert f"the members stand at {members}, off the recorded cut" in out


class TestFoldAwareAttach:
    def test_survivor_attaches_at_promoted_fold_frontier(self, primary):
        """After a failover the new primary's journal starts at
        ``(generation + 1, 0)`` with ``folded_seq`` pointing at the old
        frontier.  A survivor synced exactly to that frontier must
        re-attach *incrementally* — fold announce, no snapshot."""
        store, primary_dir, schema, registry, replica_dir = primary
        _commit(store, 2)
        frontier = (store.generation, store.journal_length)
        source = FrameSource(primary_dir, schema)
        with ReplicaApplier(replica_dir, schema, registry) as applier:
            pump(source, applier)
            assert applier.position() == frontier
        promoted = promote(replica_dir, schema, registry)
        promoted_dir = replica_dir
        try:
            _commit(promoted, 1)
            # a second follower that was synced to the *old* frontier
            # attaches to the promoted store without a snapshot
            survivor = FrameSource(promoted_dir, schema)
            assert survivor.attach(*frontier)
            batch = survivor.poll()
            kinds = [decode_stream_message(m).kind for m in batch]
            assert "snapshot" not in kinds
            assert kinds[0] == "schema"  # the fold announce
            announce = decode_stream_message(batch[0])
            assert announce.generation == frontier[0] + 1
            assert announce.folds == frontier[1]  # the folded seq
        finally:
            promoted.close()

    def test_attach_still_refuses_a_diverged_position(self, primary):
        store, primary_dir, schema, registry, _ = primary
        _commit(store, 1)
        source = FrameSource(primary_dir, schema)
        # two generations ahead of the head: not a fold resume
        assert not source.attach(store.generation + 2, 0)
        # future seq within the head generation: refused as before
        assert not source.attach(store.generation, store.journal_length + 5)
