"""Multi-process differential stress driver for WAL-shipping replication.

Topology: one **primary** process runs a :class:`DirectoryServer` over a
real on-disk store and storms it with randomized transactions (plus
periodic compactions) through its own wire client; N **replica**
processes each run a :class:`~repro.store.replicate.ReplicaApplier` fed
by the ``replicate`` stream of that server, persisting frames to their
own local store directories.

The oracle and the per-position check are :mod:`harness.stress`'s: the
primary appends ``<generation> <seq> <digest>`` to its oracle file
after every durable commit (and every compaction), and whenever a
replica's applied position moves, the replica holds its *own local
store's* instance to :func:`invariants.committed_at` at that position.

Termination: the primary drops a done-marker after its last commit;
replicas follow the live stream until their applied position reaches
the primary's final frontier (so every replica provably converges, not
merely samples).  The slow lane additionally restarts a replica
mid-stream — close the applier and the connection, reopen from the
durable local position, resubscribe — exercising resume-from-WAL under
load.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import time

from harness.stress import (
    check_member,
    collect,
    done_path,
    join,
    load_oracle,
    oracle_path,
    record,
)
from repro.store import DirectoryStore
from repro.workloads import (
    figure1_instance,
    random_transaction,
    whitepages_registry,
    whitepages_schema,
)

PORT_FILE = "primary.port"
STOP_FILE = "primary.stop"


def _write_atomic(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _wait_for_port(workdir: str, deadline: float) -> int:
    path = os.path.join(workdir, PORT_FILE)
    while True:
        try:
            with open(path, "r", encoding="ascii") as fh:
                return int(fh.read().strip())
        except (FileNotFoundError, ValueError):
            if time.monotonic() > deadline:
                raise TimeoutError("primary never published its port")
            time.sleep(0.01)


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
def primary_main(
    workdir: str,
    transactions: int,
    compact_every: int,
    seed: int,
    inserts: int = 2,
    deadline_seconds: float = 120.0,
) -> None:
    """The primary process body: serve, storm, mark done, keep serving
    until the driver drops the stop marker (replicas must be able to
    finish catching up after the last commit)."""
    asyncio.run(
        _primary(workdir, transactions, compact_every, seed, inserts,
                 deadline_seconds)
    )


async def _primary(
    workdir: str,
    transactions: int,
    compact_every: int,
    seed: int,
    inserts: int,
    deadline_seconds: float,
) -> None:
    from repro.server import DirectoryServer
    from repro.server.client import DirectoryClient

    store_dir = os.path.join(workdir, "primary")
    oracle = oracle_path(workdir)
    stop = os.path.join(workdir, STOP_FILE)

    store = DirectoryStore.create(
        store_dir, whitepages_schema(), figure1_instance(), whitepages_registry()
    )
    store.close()

    server = DirectoryServer(
        store_dir, whitepages_schema(), whitepages_registry(), port=0
    )
    await server.start()
    _write_atomic(os.path.join(workdir, PORT_FILE), f"{server.port}\n")
    try:
        record(oracle, server.store)
        client = await DirectoryClient.connect("127.0.0.1", server.port)
        await client.bind("cn=stress-writer")
        from repro.ldif.changes import serialize_changes

        for i in range(transactions):
            tx = random_transaction(
                server.store.instance, inserts=inserts, seed=seed + i
            )
            response = await client.txn(serialize_changes(tx))
            assert response["applied"], (
                f"stress transaction {i} rejected: {response}"
            )
            record(oracle, server.store)
            if compact_every and (i + 1) % compact_every == 0:
                # On the loop, like the server's own writes.
                server.store.compact()
                await server._commit_happened()  # wake replication feeds
                record(oracle, server.store)
        await client.unbind()
        open(done_path(workdir), "w").close()
        # Keep serving until every replica reports in (driver drops the
        # stop marker) — followers still need the tail of the stream.
        deadline = time.monotonic() + deadline_seconds
        while not os.path.exists(stop):
            if time.monotonic() > deadline:
                break  # pragma: no cover - driver died; shut down anyway
            await asyncio.sleep(0.02)
    finally:
        await server.stop(drain=False)


def replica_main(
    workdir: str,
    replica_id: int,
    deadline_seconds: float = 120.0,
    restart_after: int = 0,
) -> None:
    """The replica process body: subscribe, apply, digest-check every
    observed position against the oracle, stop once converged with a
    finished primary.  ``restart_after > 0``: after that many verified
    positions, tear the applier and connection down once and resume
    from the durable local position (the slow lane's restart probe).
    Writes a JSON result file; any exception lands in the result too."""
    result = {
        "replica": replica_id,
        "checked": 0,
        "restarts": 0,
        "snapshots": 0,
        "error": None,
        "final": None,
    }
    result_path = os.path.join(workdir, f"replica-{replica_id}.json")
    try:
        asyncio.run(
            _replica(workdir, replica_id, deadline_seconds, restart_after, result)
        )
    except BaseException as exc:  # report, don't just die
        result["error"] = f"{type(exc).__name__}: {exc}"
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


async def _replica(
    workdir: str,
    replica_id: int,
    deadline_seconds: float,
    restart_after: int,
    result: dict,
) -> None:
    from repro.server.client import DirectoryClient, sync_replica
    from repro.store.replicate import ReplicaApplier

    oracle = oracle_path(workdir)
    replica_dir = os.path.join(workdir, f"replica-{replica_id}")
    deadline = time.monotonic() + deadline_seconds
    port = _wait_for_port(workdir, deadline)
    loop = asyncio.get_running_loop()

    async def attach():
        client = await DirectoryClient.connect("127.0.0.1", port)
        await client.bind(f"cn=replica-{replica_id}")
        applier = ReplicaApplier(
            replica_dir,
            whitepages_schema(),
            whitepages_registry(),
            upstream=f"127.0.0.1:{port}",
        )
        await sync_replica(client, applier)
        return client, applier

    client, applier = await attach()
    checked_position = None
    restarted = restart_after <= 0
    try:
        while True:
            position = applier.position()
            if position != checked_position:
                # off the loop: the check may wait for the primary's line
                await loop.run_in_executor(
                    None, check_member, oracle, position,
                    applier.reader.instance, deadline,
                )
                result["checked"] += 1
                checked_position = position
                if not restarted and result["checked"] >= restart_after:
                    restarted = True
                    applier.close()
                    await client.close()
                    client, applier = await attach()
                    result["restarts"] += 1
                    checked_position = None  # re-verify the resume point
                    continue
            if os.path.exists(done_path(workdir)):
                _, frontier = load_oracle(oracle)
                if frontier is not None and checked_position == frontier:
                    break
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"replica stuck at {checked_position} before the "
                    "primary's frontier"
                )
            try:
                message = await client.next_stream_message(timeout=0.2)
            except asyncio.TimeoutError:
                continue
            await loop.run_in_executor(None, applier.apply_message, message)
        result["snapshots"] = applier.snapshots_installed
        result["final"] = {"store": list(checked_position)}
    finally:
        applier.close()
        await client.close()


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def run_replication_stress(
    workdir: str,
    transactions: int = 100,
    replicas: int = 3,
    compact_every: int = 30,
    seed: int = 20260808,
    deadline_seconds: float = 120.0,
    restart_replica: int = -1,
    restart_after: int = 0,
):
    """Run the full topology; returns the list of replica result dicts.

    Raises ``AssertionError`` with full diagnostics when any process
    failed, any replica applied a state the primary never committed, or
    any replica failed to converge to the primary's final frontier.
    ``restart_replica``/``restart_after``: make that replica restart
    itself after verifying that many positions (slow-lane probe).
    """
    ctx = multiprocessing.get_context("fork")
    primary = ctx.Process(
        target=primary_main,
        args=(workdir, transactions, compact_every, seed, 2, deadline_seconds),
        name="replication-primary",
    )
    replica_procs = [
        ctx.Process(
            target=replica_main,
            args=(
                workdir,
                i,
                deadline_seconds,
                restart_after if i == restart_replica else 0,
            ),
            name=f"replication-replica-{i}",
        )
        for i in range(replicas)
    ]
    primary.start()
    for proc in replica_procs:
        proc.start()
    join(replica_procs, deadline_seconds)
    _write_atomic(os.path.join(workdir, STOP_FILE), "stop\n")
    join([primary], deadline_seconds)
    assert primary.exitcode == 0, f"primary exited {primary.exitcode}"
    results = collect(
        workdir, "replica", replicas,
        {"store": list(load_oracle(oracle_path(workdir))[1])},
    )
    if restart_after > 0:
        assert results[restart_replica]["restarts"] > 0, (
            f"replica {restart_replica} never exercised the mid-stream restart"
        )
    return results
