"""The one crash-matrix runner, and the store scenario it runs first.

A *scenario* is ``scenario(workdir, io) -> history``: it does its own
setup with clean I/O, runs the part under test through ``io`` (a
:class:`~repro.store.faults.FaultyIO`), and returns what the
undisturbed run acknowledged — the history its ``verify`` judges a
wreckage against.  :func:`run_matrix` makes a dry run, then crashes the
scenario once at every named fault point the dry run crossed (the
point matrix) or once at every ``stride``-th I/O op × torn-write
fraction (the op matrix), and calls ``verify(workdir, history,
crash_op, label)`` on each wreckage.  A test runs each matrix once, so
no crash site is killed twice.

The store scenario (create → tx1 → tx2 → compact → tx3, deterministic
transactions so states compare across runs) carries two halves of one
contract, each a ``verify`` of its own:

1. :func:`verify_reader` — a lock-free
   :class:`~repro.store.reader.StoreReader` opens the wreckage, sees a
   committed prefix, agrees with a recovery dry-run, writes nothing,
   and follows the writer's repair;
2. :func:`verify_store` — the writer reopens it onto a committed
   prefix, legal and writable.
"""

from __future__ import annotations

import os

from invariants import committed_prefix_durable, state_digest
from repro.store import DirectoryStore
from repro.store.faults import FaultPlan, FaultyIO, InjectedCrash
from repro.store.reader import StoreReader
from repro.store.recovery import recover
from repro.updates.operations import UpdateTransaction
from repro.workloads import figure1_instance, whitepages_registry, whitepages_schema

__all__ = ["dry_run", "run_matrix", "snapshot_files", "store_scenario",
           "unit_tx", "verify_reader", "verify_store"]


def dry_run(path, scenario):
    """Undisturbed run in ``path``: the history and the plan (op count,
    named points crossed in order)."""
    io = FaultyIO(FaultPlan())
    path.mkdir(parents=True, exist_ok=True)
    return scenario(path, io), io.plan


def run_matrix(tmp_path, scenario, verify, *, stride=1, fractions=(0.0, 0.5, 1.0),
               least_ops=0):
    """Crash ``scenario`` and ``verify`` each wreckage: with
    ``fractions`` empty, once at every named point its dry run crosses;
    otherwise at every ``stride``-th op × ``fractions``, once the dry
    run has reached ``least_ops`` (a shrunken scenario would silently
    thin the matrix).  Returns the number of wreckages checked."""
    history, plan = dry_run(tmp_path / "dry", scenario)
    if fractions:
        assert plan.ops_executed >= least_ops, f"scenario too small: {plan.trace}"
        plans = [
            FaultPlan(crash_at_op=op, torn_fraction=fraction)
            for op in range(0, plan.ops_executed, stride) for fraction in fractions
        ]
    else:
        plans = [FaultPlan(crash_at_point=name) for name in dict.fromkeys(plan.points)]
    for index, crash in enumerate(plans):
        label = (
            f"crash at point {crash.crash_at_point!r}" if crash.crash_at_point
            else f"crash at op {crash.crash_at_op} torn={crash.torn_fraction}"
        )
        io, workdir = FaultyIO(crash), tmp_path / f"w{index}"
        workdir.mkdir()
        try:
            scenario(workdir, io)
        except InjectedCrash:
            pass
        else:
            raise AssertionError(f"{label}: the scenario never got there")
        verify(workdir, history, io.plan.ops_executed - 1, label)
    return len(plans)


# ----------------------------------------------------------------------
# the store scenario
# ----------------------------------------------------------------------
def unit_tx(i: int) -> UpdateTransaction:
    """A deterministic unit-plus-member insert."""
    return (
        UpdateTransaction()
        .insert(f"ou=unit{i},o=att", ["orgUnit", "orgGroup", "top"],
                {"ou": [f"unit{i}"]})
        .insert(f"uid=member{i},ou=unit{i},o=att", ["person", "top"],
                {"uid": [f"member{i}"], "name": [f"member {i}"]})
    )


def store_scenario(workdir, io):
    """create → tx1 → tx2 → compact → tx3 in ``workdir/store``,
    recording ``(ops_executed, state_digest)`` at every commit."""
    store = DirectoryStore.create(
        str(workdir / "store"), whitepages_schema(), figure1_instance(), io=io
    )
    states = []

    def record():
        states.append((io.plan.ops_executed, state_digest(store.instance)))

    try:
        record()
        for i in (1, 2):
            assert store.apply(unit_tx(i)).applied
            record()
        store.compact()
        record()
        assert store.apply(unit_tx(3)).applied
        record()
    finally:
        store.close()
    return states


def snapshot_files(path: str):
    """``{filename: bytes}`` of every file in a store directory."""
    contents = {}
    for name in sorted(os.listdir(path)):
        full = os.path.join(path, name)
        if os.path.isfile(full):
            with open(full, "rb") as fh:
                contents[name] = fh.read()
    return contents


def verify_reader(workdir, states, crash_op, label="") -> None:
    """The reader's half: a committed prefix that recovery agrees with,
    read without a write, and followed onto the writer's repair."""
    path = str(workdir / "store")
    if not os.path.exists(path):
        return  # died inside create: nothing to read
    schema, registry = whitepages_schema(), whitepages_registry()
    before = snapshot_files(path)
    with StoreReader.open(path, schema, registry) as reader:
        seen = state_digest(reader.instance)
        committed_prefix_durable(states, crash_op, seen, f" ({label}, reader)")
        recovered, report = recover(path, schema, registry, repair=False)
        assert state_digest(recovered) == seen, (
            f"{label}: the reader stopped at another frame than recovery "
            f"(tail={report.tail_state}: {report.notes})"
        )
        assert snapshot_files(path) == before, f"{label}: a read-only pass wrote"
        with DirectoryStore.open(path, schema, registry=registry) as store:
            repaired = state_digest(store.instance)
            refreshed = reader.refresh()
            assert not refreshed.stale, f"{label}: {refreshed.note}"
            assert state_digest(reader.instance) == repaired, (
                f"{label}: the reader did not follow the recovered state"
            )


def verify_store(workdir, states, crash_op, label="") -> None:
    """The writer's half: it reopens onto a committed prefix, legal and
    writable."""
    path = str(workdir / "store")
    schema, registry = whitepages_schema(), whitepages_registry()
    if not os.path.exists(path):
        # died inside create: nothing was left, and a retry starts clean
        with DirectoryStore.create(path, schema, figure1_instance()) as retry:
            assert retry.check().is_legal
        return
    with DirectoryStore.open(path, schema, registry=registry) as store:
        assert not store.read_only, (
            f"{label}: must look torn or stale, not corrupt: "
            f"{store.recovery_report.summary()}"
        )
        assert store.check().is_legal
        got = state_digest(store.instance)
        committed_prefix_durable(states, crash_op, got, f" ({label}, writer)")
        assert store.apply(unit_tx(7)).applied
