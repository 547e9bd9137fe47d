"""Failover crash-consistency scenarios for WAL-shipping replication.

Three scenarios for :func:`harness.crash.run_matrix`.  The primary side
always runs clean I/O, so every run commits the identical history and
records a differential oracle: the primary's digest at every committed
position.  Only the follower's (or the promoter's) I/O is faulted.

* :func:`plain_scenario` — bootstrap from a shipped snapshot, follow,
  fold a primary compaction locally, follow again, then promote.  A
  wreckage must recover onto a committed prefix, byte for byte the
  primary's journal and snapshot of that generation, resume to the
  primary's frontier, and promote to a writable store holding it.
* :func:`cohort_follower` — the same life of a two-shard cohort:
  bootstrap, two spanning commits, a compaction fold, two more commits.
  A wreckage that stands on a recorded cut holds a committed state;
  every wreckage resumes onto the frontier and promotes.
* :func:`cohort_promotion` — a cohort that replicated one spanning
  commit, killed while ``promote`` runs.  Running ``promote`` again
  finishes: the replicated state, every member one generation past its
  cut, writable, ``cut.state`` and the promotion's intent record gone.
"""

from __future__ import annotations

import os

from harness.crash2pc import NESTED_BASES, commit_tx
from invariants import committed_at, state_digest
from repro.store import DirectoryStore
from repro.store.recovery import JOURNAL_FILE, SNAPSHOT_FILE, recover
from repro.store.replicate import (
    CUT_STATE_FILE,
    PROMOTE_STATE_FILE,
    FrameSource,
    ReplicaApplier,
    ShardedFrameSource,
    ShardedReplicaApplier,
    promote,
    pump,
)
from repro.store.sharded import ShardedStore
from repro.updates.operations import UpdateTransaction
from repro.workloads import (
    figure1_instance,
    random_transaction,
    whitepages_registry,
    whitepages_schema,
)

#: The primary's final committed position in the plain scenario
#: (generation 2 after one compaction, one commit past the fold).
FRONTIER = (2, 1)


def _read(directory: str, name: str) -> bytes:
    """File bytes; a missing journal reads as empty (a crash between
    snapshot install and journal creation leaves exactly that, and
    recovery treats it as an empty journal)."""
    try:
        with open(os.path.join(directory, name), "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        if name == JOURNAL_FILE:
            return b""
        raise


def scenario_tx(i: int):
    """A deterministic insert transaction (one unit + its person)."""
    unit_dn = f"ou=repl{i},ou=databases,ou=attLabs,o=att"
    return (
        UpdateTransaction()
        .insert(unit_dn, ["orgUnit", "orgGroup", "top"], {"ou": [f"repl{i}"]})
        .insert(f"uid=repl{i},{unit_dn}", ["person", "top"],
                {"uid": [f"repl{i}"], "name": [f"repl {i}"]})
    )


# ----------------------------------------------------------------------
# a plain follower, promoted
# ----------------------------------------------------------------------
def plain_scenario(workdir, io):
    """The plain lifecycle with the replica side under ``io``.  Returns
    ``(oracle, journals, snapshots)``: digests by committed position,
    and the primary's journal/snapshot bytes per generation."""
    schema, registry = whitepages_schema(), whitepages_registry()
    primary_dir, replica_dir = str(workdir / "primary"), str(workdir / "replica")
    store = DirectoryStore.create(primary_dir, schema, figure1_instance(), registry)
    oracle, journals, snapshots = {}, {}, {1: _read(primary_dir, SNAPSHOT_FILE)}
    applier = None

    def commit(i):
        assert store.apply(scenario_tx(i)).applied
        oracle[store.position()] = state_digest(store.instance)

    try:
        oracle[store.position()] = state_digest(store.instance)
        for i in range(2):
            commit(i)
        source = FrameSource(primary_dir, schema)
        applier = ReplicaApplier(
            replica_dir, schema, registry, io=io, upstream="crash-harness"
        )
        pump(source, applier)  # snapshot bootstrap + first frames
        for i in range(2, 4):
            commit(i)
        journals[1] = _read(primary_dir, JOURNAL_FILE)
        pump(source, applier)  # incremental follow
        store.compact()
        oracle[store.position()] = state_digest(store.instance)
        snapshots[2] = _read(primary_dir, SNAPSHOT_FILE)
        pump(source, applier)  # local fold (no snapshot re-download)
        commit(4)
        journals[2] = _read(primary_dir, JOURNAL_FILE)
        pump(source, applier)  # follow past the fold
        applier.close()
        applier = None
        promote(replica_dir, schema, registry, io=io).close()
        # Promotion compacts: a new epoch holding exactly the frontier.
        oracle[(3, 0)] = oracle[FRONTIER]
    finally:
        if applier is not None:
            applier.close()
        store.close()
    return oracle, journals, snapshots


def verify_plain(workdir, history, crash_op, label="") -> None:
    """Recover the crashed replica: a committed prefix, byte-identical
    files, a lossless resume, a promotable copy.  The targets are *this
    run's* primary frontier — the crash stopped the primary too."""
    oracle, journals, snapshots = history
    schema, registry = whitepages_schema(), whitepages_registry()
    primary_dir, replica_dir = str(workdir / "primary"), str(workdir / "replica")
    where = f" ({label})"
    _, primary_report = recover(primary_dir, schema, registry, repair=False)
    frontier = (primary_report.generation, primary_report.last_seq)
    assert frontier in oracle, f"{label}: the primary stopped off its history"
    position = None
    if os.path.exists(os.path.join(replica_dir, SNAPSHOT_FILE)):
        instance, report = recover(replica_dir, schema, registry, repair=True)
        assert report.in_doubt_txid is None, (
            f"{label}: replication manufactured in-doubt 2PC state"
        )
        assert not report.read_only, (
            f"{label}: damage beyond a torn tail: {report.summary()}"
        )
        position = (report.generation, report.last_seq)
        committed_at(oracle, position, state_digest(instance), where)
        if position[0] in journals:
            assert journals[position[0]].startswith(_read(replica_dir, JOURNAL_FILE)), (
                f"{label}: the journal is no byte prefix of the primary's"
            )
        if position[0] in snapshots:
            assert _read(replica_dir, SNAPSHOT_FILE) == snapshots[position[0]], (
                f"{label}: the snapshot is not the primary's, byte for byte"
            )
    if position is None or position[0] <= frontier[0]:
        # Still a follower: resuming must reach the frontier losslessly.
        with ReplicaApplier(replica_dir, schema, registry) as applier:
            source = FrameSource(primary_dir, schema)
            source.attach(*applier.position())
            pump(source, applier)
            assert applier.position() == frontier, f"{label}: resume stuck"
            committed_at(oracle, frontier, state_digest(applier.reader.instance), where)
    promoted = promote(replica_dir, schema, registry)
    try:
        assert state_digest(promoted.instance) == oracle[frontier], (
            f"{label}: the promoted store does not hold the frontier"
        )
        assert promoted.apply(
            random_transaction(promoted.instance, inserts=1, seed=999)
        ).applied, f"{label}: the promoted store refused a write"
    finally:
        promoted.close()


# ----------------------------------------------------------------------
# a cohort of followers
# ----------------------------------------------------------------------
def _cohort_primary(workdir):
    return ShardedStore.create(
        str(workdir / "primary"), whitepages_schema(), NESTED_BASES,
        figure1_instance(), whitepages_registry(),
    )


def _assert_promotes(workdir, cut, digest, label) -> None:
    """Promote the cohort (clean I/O) and hold it to the promised
    result: ``digest``, every member one generation past ``cut``,
    writable, no ``cut.state`` or intent record left."""
    cohort_dir = str(workdir / "cohort")
    promoted = promote(cohort_dir, whitepages_schema(), whitepages_registry())
    try:
        assert state_digest(promoted.instance) == digest, (
            f"{label}: the promoted cohort does not hold the replicated state"
        )
        assert promoted.position() == {
            name: (generation + 1, 0) for name, (generation, _) in cut.items()
        }, f"{label}: promoted to {promoted.position()} from the cut {cut}"
        assert promoted.apply(commit_tx(9)).applied, f"{label}: not writable"
    finally:
        promoted.close()
    for name in (CUT_STATE_FILE, PROMOTE_STATE_FILE):
        assert not os.path.exists(os.path.join(cohort_dir, name)), (
            f"{label}: promotion left {name} behind"
        )


def cohort_follower(workdir, io):
    """The cohort lifecycle with the follower set under ``io``; returns
    the primary's composite digest at every shipped position."""
    schema, registry = whitepages_schema(), whitepages_registry()
    primary = _cohort_primary(workdir)
    oracle, applier = {}, None

    def ship():
        oracle[primary.position()] = state_digest(primary.instance)
        pump(source, applier)

    try:
        source = ShardedFrameSource(str(workdir / "primary"), schema)
        applier = ShardedReplicaApplier(str(workdir / "cohort"), schema, registry, io=io)
        ship()  # bootstrap
        for i in (1, 2):
            assert primary.apply(commit_tx(i)).applied
            ship()
        primary.compact()
        ship()  # the fold
        for i in (3, 4, 5, 6):
            assert primary.apply(commit_tx(i)).applied
            ship()
    finally:
        if applier is not None:
            applier.close()
        primary.close()
    return oracle


def verify_cohort_follower(workdir, oracle, crash_op, label="") -> None:
    """Reopen the cohort: on a recorded cut it holds a committed state;
    resumed, it reaches this run's frontier; then it promotes."""
    schema, registry = whitepages_schema(), whitepages_registry()
    where = f" ({label})"
    with ShardedStore.open(str(workdir / "primary"), schema, registry) as primary:
        frontier = primary.position()
    with ShardedReplicaApplier(str(workdir / "cohort"), schema, registry) as applier:
        if applier.consistent():
            committed_at(oracle, applier.position(), state_digest(applier.instance), where)
        source = ShardedFrameSource(str(workdir / "primary"), schema)
        source.attach(applier.position())
        pump(source, applier)
        assert applier.consistent() and applier.position() == frontier, (
            f"{label}: resumed to {applier.position()}, the frontier is {frontier}"
        )
        committed_at(oracle, frontier, state_digest(applier.instance), where)
    _assert_promotes(workdir, frontier, oracle[frontier], label)


def cohort_promotion(workdir, io):
    """A cohort replicates one spanning commit; ``promote`` runs under
    ``io``.  Returns the replicated cut and its digest."""
    schema, registry = whitepages_schema(), whitepages_registry()
    primary = _cohort_primary(workdir)
    try:
        assert primary.apply(commit_tx(1)).applied
        source = ShardedFrameSource(str(workdir / "primary"), schema)
        with ShardedReplicaApplier(str(workdir / "cohort"), schema, registry) as applier:
            pump(source, applier)
            cut, digest = applier.position(), state_digest(applier.instance)
    finally:
        primary.close()
    promote(str(workdir / "cohort"), schema, registry, io=io).close()
    return cut, digest


def verify_cohort_promotion(workdir, history, crash_op, label="") -> None:
    """Running ``promote`` again finishes what the crash interrupted."""
    _assert_promotes(workdir, *history, label)
