"""Crash-consistency scenario for cross-shard two-phase commit.

The scenario opens a pre-created sharded store (Figure 1 split across a
nested cut) under fault-injected I/O and drives spanning transactions
through 2PC: one that commits, one whose composite check fails (so the
coordinator aborts after the prepares), and a second commit.  Run on
:func:`harness.crash.run_matrix`, it is killed at every I/O boundary
and at every named protocol step (``2pc:begin`` … ``2pc:complete``);
:func:`verify_atomic` then holds each wreckage to
:func:`invariants.spanning_commit_atomic` — reopening resolves every
in-doubt participant from the coordinator log (presumed abort), lands
on a decided state, and leaves a legal store that still commits.
"""

from __future__ import annotations

from invariants import spanning_commit_atomic, state_digest
from repro.store.sharded import ShardedStore
from repro.store.txlog import inspect_txlog
from repro.updates.operations import UpdateTransaction
from repro.workloads import figure1_instance, whitepages_registry, whitepages_schema

NESTED_BASES = {"att": "o=att", "labs": "ou=attLabs,o=att"}


def make_sharded(path: str) -> None:
    """Create the scenario's sharded store (clean I/O) and close it."""
    ShardedStore.create(
        path, whitepages_schema(), NESTED_BASES, figure1_instance(),
        whitepages_registry(),
    ).close()


def commit_tx(i: int) -> UpdateTransaction:
    """A spanning transaction both shards and the composite accept."""
    return (
        UpdateTransaction()
        .insert(f"uid=c{i}att,o=att", ["person", "top"],
                {"uid": [f"c{i}att"], "name": [f"c{i} att"]})
        .insert(f"uid=c{i}labs,ou=databases,ou=attLabs,o=att", ["person", "top"],
                {"uid": [f"c{i}labs"], "name": [f"c{i} labs"]})
    )


def abort_tx() -> UpdateTransaction:
    """A spanning transaction 2PC must abort: the empty orgUnit in the
    labs shard is illegal, so after the att prepare the coordinator
    decides abort."""
    return (
        UpdateTransaction()
        .insert("uid=never,o=att", ["person", "top"],
                {"uid": ["never"], "name": ["never lands"]})
        .insert("ou=ghost,ou=attLabs,o=att", ["orgUnit", "orgGroup", "top"],
                {"ou": ["ghost"]})
    )


def spanning_scenario(*transactions):
    """The scenario: open ``workdir/store`` under ``io`` and apply
    ``transactions`` (default commit → abort → commit), recording
    ``(ops_executed, composite digest)`` at every decided point."""
    transactions = transactions or (commit_tx(1), abort_tx(), commit_tx(2))

    def scenario(workdir, io):
        path = str(workdir / "store")
        make_sharded(path)
        store = ShardedStore.open(
            path, whitepages_schema(), whitepages_registry(), io=io
        )
        states = [(io.plan.ops_executed, state_digest(store.instance))]
        try:
            for tx in transactions:
                store.apply(tx)
                states.append((io.plan.ops_executed, state_digest(store.instance)))
        finally:
            store.close()
        return states

    return scenario


def verify_atomic(workdir, states, crash_op, label="") -> str:
    """Reopen the wreckage and hold it to the contract; returns the
    recovered composite digest."""
    path = str(workdir / "store")
    schema, registry = whitepages_schema(), whitepages_registry()
    with ShardedStore.open(path, schema, registry) as recovered:
        got = state_digest(recovered.instance)
        legal = recovered.check().is_legal
        in_doubt = [
            name for name in recovered.shard_names()
            if recovered.shard(name).pending_txid is not None
        ]
    log = inspect_txlog(path)
    in_doubt += list(log.unfinished()) if log is not None else []
    spanning_commit_atomic(states, crash_op, got, in_doubt, f" ({label})")
    assert legal, f"{label}: recovered composite is illegal"
    with ShardedStore.open(path, schema, registry) as probe:
        assert probe.apply(commit_tx(9)).applied, f"{label}: store unusable"
    return got
