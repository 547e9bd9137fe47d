"""Differential multi-process stress driver for the sharded store.

Topology: a flat K-shard store (one ``o=orgN`` subtree per shard), one
**writer process per shard** opened through
:meth:`~repro.store.sharded.ShardedStore.open_shard` (its own advisory
lock, shard-local schema), each running an independent randomized
transaction stream with periodic compactions; M **composite reader**
processes open lock-free :class:`~repro.store.sharded.CompositeReader`
views of the same root and spin on ``refresh()``.

The correctness oracle is per shard: writer *W* appends

    ``<generation> <seq> <blake2b(serialize_ldif(instance))>``

to ``oracle-<shard>.log`` after every durable commit (same O_APPEND
single-write idiom as :mod:`harness.stress`).  Whenever a composite
reader's refresh moves shard *S*'s slice to a new position, the reader
digests ``shard_reader(S).instance`` and compares against *S*'s oracle
entry for that exact position — so every slice of the composite view is
provably a state its shard's writer actually passed through.  On top of
the per-slice checks the reader validates the stitch itself each round:
the composite instance must hold exactly the union of the slices.

Termination: every writer drops ``writer-<shard>.done`` after its last
commit; readers run until every shard's checked position reaches that
shard's oracle frontier (catch-up on all shards, not sampling).
"""

from __future__ import annotations

import json
import os
import time

from harness.stress import _append_oracle, load_oracle, state_digest
from repro.errors import ShardMapError, StaleReadError
from repro.store.sharded import CompositeReader, ShardedStore
from repro.workloads import (
    generate_whitepages,
    random_transaction,
    whitepages_registry,
    whitepages_schema,
)


def shard_names(shards: int):
    return [f"org{i}" for i in range(shards)]


def _ready_path(workdir: str, reader_id: int) -> str:
    return os.path.join(workdir, f"reader-{reader_id}.ready")


def _oracle_path(workdir: str, name: str) -> str:
    return os.path.join(workdir, f"oracle-{name}.log")


def _done_path(workdir: str, name: str) -> str:
    return os.path.join(workdir, f"writer-{name}.done")


def create_store(workdir: str, shards: int, seed: int) -> str:
    """Create the K-shard store the processes will contend on; returns
    its root directory."""
    root = os.path.join(workdir, "sharded")
    initial = generate_whitepages(
        orgs=shards, units_per_level=2, depth=1, persons_per_unit=2,
        seed=seed,
    )
    bases = {name: f"o={name}" for name in shard_names(shards)}
    ShardedStore.create(
        root, whitepages_schema(), bases, initial, whitepages_registry()
    ).close()
    return root


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
def shard_writer_main(
    workdir: str,
    name: str,
    transactions: int,
    compact_every: int,
    seed: int,
) -> None:
    """One shard's writer body: open the shard standalone, commit a
    randomized stream against it, log every durable state, mark done."""
    root = os.path.join(workdir, "sharded")
    oracle = _oracle_path(workdir, name)
    store = ShardedStore.open_shard(
        root, name, whitepages_schema(), whitepages_registry()
    )
    try:
        _append_oracle(
            oracle, store.generation, store.journal_length,
            state_digest(store.instance),
        )
        for i in range(transactions):
            tx = random_transaction(store.instance, inserts=2, seed=seed + i)
            outcome = store.apply(tx)
            assert outcome.applied, (
                f"shard {name} stress transaction {i} rejected: "
                f"{outcome.report}"
            )
            _append_oracle(
                oracle, store.generation, store.journal_length,
                state_digest(store.instance),
            )
            if compact_every and (i + 1) % compact_every == 0:
                store.compact()
                _append_oracle(
                    oracle, store.generation, 0, state_digest(store.instance)
                )
    finally:
        store.close()
        with open(_done_path(workdir, name), "w") as fh:
            fh.write("done\n")


def composite_reader_main(
    workdir: str,
    shards: int,
    reader_id: int,
    deadline_seconds: float = 120.0,
) -> None:
    """One composite reader body: follow every shard's WAL through one
    stitched view, digest-check each slice against its shard's oracle,
    validate the stitch, stop once caught up on every shard."""
    root = os.path.join(workdir, "sharded")
    names = shard_names(shards)
    result_path = os.path.join(workdir, f"reader-{reader_id}.json")
    result = {
        "reader": reader_id,
        "checked": {name: 0 for name in names},
        "refreshes": 0,
        "rebootstraps": 0,
        "stitch_checks": 0,
        "mismatches": [],
        "error": None,
        "final": None,
    }
    deadline = time.monotonic() + deadline_seconds
    reader = None
    try:
        while reader is None:
            try:
                reader = CompositeReader.open(
                    root, whitepages_schema(), whitepages_registry()
                )
            except (FileNotFoundError, ShardMapError, StaleReadError):
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)
        open(_ready_path(workdir, reader_id), "w").close()
        checked = {name: None for name in names}
        while True:
            refreshed = reader.refresh()
            result["refreshes"] += 1
            result["rebootstraps"] += sum(
                1 for r in refreshed.per_shard.values() if r.rebootstrapped
            )
            if not refreshed.advanced:
                time.sleep(0.002)
            frontier = reader.position().raw
            advanced_names = [
                name for name in names if frontier[name] != checked[name]
            ]
            for name in advanced_names:
                position = frontier[name]
                digest = state_digest(reader.shard_reader(name).instance)
                entries, _ = load_oracle(_oracle_path(workdir, name))
                while position not in entries:
                    if time.monotonic() > deadline:
                        raise TimeoutError(
                            f"oracle of shard {name} never recorded "
                            f"position {position}"
                        )
                    time.sleep(0.005)
                    entries, _ = load_oracle(_oracle_path(workdir, name))
                if entries[position] != digest:
                    result["mismatches"].append(
                        {"shard": name, "position": list(position),
                         "digest": digest, "expected": entries[position]}
                    )
                result["checked"][name] += 1
                checked[name] = position
            if advanced_names:
                # The stitch itself: the composite view must hold
                # exactly the union of the (just-verified) slices.
                composite = reader.instance
                slices = sum(
                    len(reader.shard_reader(name).instance)
                    for name in names
                )
                if len(composite) != slices or len(
                    composite.roots()
                ) != shards:
                    result["mismatches"].append(
                        {"shard": "__stitch__",
                         "composite": len(composite), "slices": slices}
                    )
                result["stitch_checks"] += 1
            if all(os.path.exists(_done_path(workdir, n)) for n in names):
                frontiers = {
                    name: load_oracle(_oracle_path(workdir, name))[1]
                    for name in names
                }
                if all(
                    frontiers[name] is not None
                    and checked[name] == frontiers[name]
                    for name in names
                ):
                    break
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"reader stuck at {checked} before the writers' "
                    "frontiers"
                )
        result["final"] = {name: list(checked[name]) for name in names}
    except BaseException as exc:  # report, don't just die
        result["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        if reader is not None:
            reader.close()
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(result, fh)


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def run_shard_stress(
    workdir: str,
    shards: int = 2,
    transactions: int = 40,
    readers: int = 2,
    compact_every: int = 15,
    seed: int = 20260806,
    deadline_seconds: float = 120.0,
):
    """Run the full topology; returns the list of reader result dicts.

    Raises ``AssertionError`` with diagnostics when any process failed,
    any reader saw a slice its shard's writer never committed (or a
    broken stitch), or any reader failed to catch up on every shard.
    """
    import multiprocessing

    create_store(workdir, shards, seed)
    ctx = multiprocessing.get_context("fork")
    writers = [
        ctx.Process(
            target=shard_writer_main,
            args=(workdir, name, transactions, compact_every,
                  seed + 1000 * i),
            name=f"shard-writer-{name}",
        )
        for i, name in enumerate(shard_names(shards))
    ]
    reader_procs = [
        ctx.Process(
            target=composite_reader_main,
            args=(workdir, shards, i, deadline_seconds),
            name=f"composite-reader-{i}",
        )
        for i in range(readers)
    ]
    # Readers first, writers once every view is open: a writer's whole
    # stream is ~0.1 s, less than a late fork, and a reader that missed
    # it would verify one position and prove nothing.
    for proc in reader_procs:
        proc.start()
    ready_by = time.monotonic() + deadline_seconds
    while time.monotonic() < ready_by and not all(
        os.path.exists(_ready_path(workdir, i)) for i in range(readers)
    ):
        time.sleep(0.005)
    for proc in writers:
        proc.start()
    for proc in writers + reader_procs:
        proc.join(deadline_seconds)
    alive = [p.name for p in writers + reader_procs if p.is_alive()]
    for proc in writers + reader_procs:
        if proc.is_alive():  # pragma: no cover - deadline pathology
            proc.terminate()
            proc.join()
    assert not alive, f"stress processes missed the deadline: {alive}"
    for proc in writers:
        assert proc.exitcode == 0, f"{proc.name} exited {proc.exitcode}"

    frontiers = {
        name: load_oracle(_oracle_path(workdir, name))[1]
        for name in shard_names(shards)
    }
    results = []
    for i in range(readers):
        path = os.path.join(workdir, f"reader-{i}.json")
        assert os.path.exists(path), f"reader {i} left no result file"
        with open(path, "r", encoding="utf-8") as fh:
            result = json.load(fh)
        assert result["error"] is None, f"reader {i}: {result['error']}"
        assert not result["mismatches"], (
            f"reader {i} diverged: {result['mismatches'][:3]}"
        )
        assert result["final"] == {
            name: list(frontier) for name, frontier in frontiers.items()
        }, (
            f"reader {i} finished at {result['final']}, writers' "
            f"frontiers are {frontiers}"
        )
        assert all(count > 0 for count in result["checked"].values())
        assert result["stitch_checks"] > 0
        results.append(result)
    return results
