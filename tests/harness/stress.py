"""Differential multi-process stress driver: one writer per member,
lock-free followers over the whole store.

Topology: the members of a real on-disk store
(:func:`repro.store.members` — a plain store is its own one member,
keyed ``None``; a sharded store has one per shard) each get a
**writer process**: ``DirectoryStore.open`` for the plain store,
``ShardedStore.open_shard`` per shard, each holding its own advisory
lock and running a randomized ``random_transaction`` stream with
periodic compactions.  N **follower** processes open lock-free views
of the root (:func:`repro.store.open_view`) and spin on ``refresh()``.

The oracle is differential, one file per member: after every durable
commit (and every compaction) the member's writer appends

    ``<generation> <seq> <blake2b(serialize_ldif(instance))>``

with a single ``O_APPEND`` write (well under ``PIPE_BUF``, so lines
never interleave).  Whenever a follower's refresh moves a member to a
new position, the follower digests ``view.shard_reader(member)`` and
holds it to :func:`invariants.committed_at` against that member's
oracle — waiting for the line if the writer has committed but not yet
logged it — then holds the whole view to
:func:`invariants.composite_never_torn`.

Termination: every writer drops a done marker after its last commit;
followers run until every member's checked position reaches its
writer's frontier (catch-up on every member, not sampling).

:mod:`harness.replication_stress` keeps the oracle files and the
per-position check of this module (:func:`record`, :func:`check_member`).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time

from invariants import committed_at, composite_never_torn, state_digest
from repro.store import DirectoryStore, members, open_view
from repro.store.sharded import ShardedStore
from repro.workloads import (
    figure1_instance,
    generate_whitepages,
    random_transaction,
    whitepages_registry,
    whitepages_schema,
)


def _name(member) -> str:
    return member or "store"


def oracle_path(workdir: str, member=None) -> str:
    return os.path.join(workdir, f"oracle-{_name(member)}.log")


def done_path(workdir: str, member=None) -> str:
    return os.path.join(workdir, f"writer-{_name(member)}.done")


def record(path: str, store) -> None:
    """Append ``store``'s durable position and digest to the oracle
    ``path`` in one ``O_APPEND`` write."""
    line = (
        f"{store.generation} {store.journal_length} "
        f"{state_digest(store.instance)}\n"
    ).encode("ascii")
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        assert os.write(fd, line) == len(line)
    finally:
        os.close(fd)


def load_oracle(path: str):
    """``{(generation, seq): digest}`` plus the last-written position
    (the writer's frontier), or ``({}, None)`` before the file exists."""
    entries, last = {}, None
    try:
        with open(path, "r", encoding="ascii") as fh:
            for line in fh:
                if line.endswith("\n"):  # a line mid-write does not count
                    generation, seq, digest = line.split()
                    last = (int(generation), int(seq))
                    entries[last] = digest
    except FileNotFoundError:
        pass
    return entries, last


def check_member(path: str, position, instance, deadline: float) -> None:
    """Hold a follower's ``instance`` at ``position`` to the oracle
    ``path``, waiting for the writer to log that position."""
    entries, _ = load_oracle(path)
    while position not in entries:
        if time.monotonic() > deadline:
            raise TimeoutError(f"{path} never recorded position {position}")
        time.sleep(0.005)
        entries, _ = load_oracle(path)
    committed_at(entries, position, state_digest(instance), f" ({path})")


def join(processes, deadline_seconds: float) -> None:
    """Join every process; terminate and name the ones still alive."""
    for proc in processes:
        proc.join(deadline_seconds)
    alive = [proc.name for proc in processes if proc.is_alive()]
    for proc in processes:
        if proc.is_alive():  # pragma: no cover - deadline pathology
            proc.terminate()
            proc.join()
    assert not alive, f"stress processes missed the deadline: {alive}"


def collect(workdir: str, prefix: str, count: int, frontiers):
    """The result files of ``count`` followers: each finished cleanly,
    at ``frontiers``."""
    results = []
    for i in range(count):
        path = os.path.join(workdir, f"{prefix}-{i}.json")
        assert os.path.exists(path), f"{prefix} {i} left no result file"
        with open(path, "r", encoding="utf-8") as fh:
            result = json.load(fh)
        assert result["error"] is None, f"{prefix} {i}: {result['error']}"
        assert result["final"] == frontiers, (
            f"{prefix} {i} finished at {result['final']}, the writers' "
            f"frontiers are {frontiers}"
        )
        results.append(result)
    return results


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
def writer_main(workdir, root, member, transactions, compact_every, seed) -> None:
    """One member's writer: commit a randomized stream, log every
    durable state, mark done."""
    schema, registry = whitepages_schema(), whitepages_registry()
    oracle = oracle_path(workdir, member)
    store = (
        DirectoryStore.open(root, schema, registry) if member is None
        else ShardedStore.open_shard(root, member, schema, registry)
    )
    try:
        record(oracle, store)
        for i in range(transactions):
            tx = random_transaction(store.instance, inserts=2, seed=seed + i)
            outcome = store.apply(tx)
            assert outcome.applied, f"{_name(member)} transaction {i}: {outcome.report}"
            record(oracle, store)
            if compact_every and (i + 1) % compact_every == 0:
                store.compact()
                record(oracle, store)
    finally:
        store.close()
        open(done_path(workdir, member), "w").close()


def follower_main(workdir, root, follower_id, deadline_seconds) -> None:
    """One follower: refresh, check every member that moved, check the
    view is whole, stop once caught up with every finished writer.
    Writes a JSON result; an exception lands in it too."""
    result = {"checked": {}, "refreshes": 0, "rebootstraps": 0,
              "error": None, "final": None}
    deadline = time.monotonic() + deadline_seconds
    view = None
    try:
        names = list(members(root))
        view = open_view(root, whitepages_schema(), whitepages_registry())
        open(os.path.join(workdir, f"follower-{follower_id}.ready"), "w").close()
        checked = {}
        while True:
            if not view.refresh().advanced:
                time.sleep(0.002)  # polite polling: CI runners can be single-core
            result["refreshes"] += 1
            moved = [(m, p) for m, p in view.position().items() if checked.get(m) != p]
            for member, position in moved:
                check_member(
                    oracle_path(workdir, member), position,
                    view.shard_reader(member).instance, deadline,
                )
                checked[member] = position
                result["checked"][_name(member)] = result["checked"].get(_name(member), 0) + 1
            if moved:
                composite_never_torn(
                    view.instance, [view.shard_reader(m).instance for m in names]
                )
            if all(
                os.path.exists(done_path(workdir, m))
                and checked.get(m) == load_oracle(oracle_path(workdir, m))[1]
                for m in names
            ):
                break
            if time.monotonic() > deadline:
                raise TimeoutError(f"follower stuck at {checked}")
        result["rebootstraps"] = sum(view.shard_reader(m).bootstraps - 1 for m in names)
        result["final"] = {_name(m): list(p) for m, p in checked.items()}
    except BaseException as exc:  # report, don't just die
        result["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        if view is not None:
            view.close()
        with open(os.path.join(workdir, f"follower-{follower_id}.json"), "w") as fh:
            json.dump(result, fh)


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def run_stress(
    workdir: str,
    shards: int = 0,
    transactions: int = 200,
    readers: int = 4,
    compact_every: int = 50,
    seed: int = 20260806,
    deadline_seconds: float = 120.0,
):
    """Run the topology over a plain store (``shards=0``: Figure 1) or
    a flat ``shards``-shard one; returns the follower result dicts.
    Raises ``AssertionError`` when a process failed, a follower saw a
    state its writer never committed or a torn view, or a follower
    missed a writer's frontier."""
    root = os.path.join(workdir, "store")
    schema, registry = whitepages_schema(), whitepages_registry()
    if shards:
        ShardedStore.create(
            root, schema, {f"org{i}": f"o=org{i}" for i in range(shards)},
            generate_whitepages(orgs=shards, units_per_level=2, depth=1,
                                persons_per_unit=2, seed=seed),
            registry,
        ).close()
    else:
        DirectoryStore.create(root, schema, figure1_instance(), registry).close()
    names = list(members(root))
    ctx = multiprocessing.get_context("fork")
    followers = [
        ctx.Process(target=follower_main, args=(workdir, root, i, deadline_seconds),
                    name=f"follower-{i}")
        for i in range(readers)
    ]
    writers = [
        ctx.Process(
            target=writer_main,
            args=(workdir, root, member, transactions, compact_every, seed + 1000 * i),
            name=f"writer-{_name(member)}",
        )
        for i, member in enumerate(names)
    ]
    # Followers first, writers once every view is open: a short stream
    # can end before a late fork, and a follower that missed it would
    # verify one position and prove nothing.
    for proc in followers:
        proc.start()
    ready_by = time.monotonic() + deadline_seconds
    while time.monotonic() < ready_by and not all(
        os.path.exists(os.path.join(workdir, f"follower-{i}.ready"))
        for i in range(readers)
    ):
        time.sleep(0.005)
    for proc in writers:
        proc.start()
    join(writers + followers, deadline_seconds)
    for proc in writers:
        assert proc.exitcode == 0, f"{proc.name} exited {proc.exitcode}"
    frontiers = {
        _name(m): list(load_oracle(oracle_path(workdir, m))[1]) for m in names
    }
    return collect(workdir, "follower", readers, frontiers)
