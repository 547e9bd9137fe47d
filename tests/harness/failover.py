"""Kill-the-primary-mid-storm: the front-door failover harness.

One scenario = an in-process topology (primary + followers + front
door) under a sustained write storm, with the primary killed at a
chosen write index (``kill_at``) — the crash-harness equivalent of
``kill -9`` between two protocol steps.  A concurrent reader holds
``require_seq`` at the storm's latest acknowledged write throughout.

The invariants the scenario enforces, before, during, and after the
automatic promotion:

1. **No regressing frontier** and 2. **read-your-writes or a typed
   refusal** — :func:`invariants.read_floor_monotonic` on every read: a
   connection is never served behind a position it was served before
   (across the generation bump included), and a read carrying
   ``require_seq`` is served at or past it, or fails with
   ``unavailable`` (retryable) / ``position_lost`` (the position died
   with the old primary) — never silently older state.
3. **``position_lost`` is honest.**  It may only be answered for
   positions strictly past the recorded lost floor of a dead
   generation.
4. **The storm completes.**  Writes resume after promotion (every
   pre-kill acknowledged write at or below the lost floor survives;
   an ambiguous in-flight write is retried and a duplicate rejection
   then counts as committed), and exactly one failover is recorded.

``run_kill_matrix`` sweeps ``kill_at`` over the storm — every index in
the slow lane, a stride in the default lane.
"""

from __future__ import annotations

import asyncio

from invariants import read_floor_monotonic
from repro.server import DirectoryClient, DirectoryServer, FrontDoor
from repro.server.client import ServerError
from repro.server.frontdoor import position_geq
from repro.store import DirectoryStore
from repro.workloads import (
    figure1_instance,
    whitepages_registry,
    whitepages_schema,
)

__all__ = ["run_failover_scenario", "run_kill_matrix"]

PARENT = "ou=databases,ou=attLabs,o=att"

#: Writes per storm.  Every index is a kill point in the full matrix.
STORM_WRITES = 18


def _person(index):
    return (
        f"uid=w{index},{PARENT}",
        ["person", "top"],
        {"uid": [f"w{index}"], "name": [f"w {index}"]},
    )


def _plain(position):
    return (position["generation"], position["seq"])


async def _build_topology(root, followers):
    schema, registry = whitepages_schema(), whitepages_registry()
    primary_path = str(root / "primary")
    DirectoryStore.create(
        primary_path, schema, figure1_instance(), registry
    ).close()
    primary = DirectoryServer(primary_path, schema, registry, port=0)
    await primary.start()
    upstream = f"127.0.0.1:{primary.port}"
    replicas = []
    for index in range(followers):
        replica = DirectoryServer(
            str(root / f"replica{index}"), schema, registry,
            port=0, replica_of=upstream,
        )
        await replica.start()
        replicas.append(replica)
    door = FrontDoor(
        upstream, [f"127.0.0.1:{r.port}" for r in replicas],
        probe_interval=0.05, probe_timeout=2.0, fail_after=2,
    )
    await door.start()
    # wait until every follower serves its bootstrap snapshot, so the
    # storm exercises live streaming rather than bootstrap races
    for replica in replicas:
        probe = await DirectoryClient.connect("127.0.0.1", replica.port)
        try:
            for _ in range(200):
                reply = await probe.position()
                if position_geq(reply.get("position"),
                                {"generation": 1, "seq": 0}):
                    break
                await asyncio.sleep(0.05)
            else:
                raise AssertionError("follower never bootstrapped")
        finally:
            await probe.close()
    return primary, replicas, door


async def _write_with_retry(client, index, deadline):
    """One storm write through the door; retries ride out the failover
    window.  Returns ``(position, ambiguous_retry)``."""
    ambiguous = False
    while True:
        try:
            reply = await client.add(*_person(index))
        except ServerError as exc:
            assert exc.code == "unavailable", (
                f"write {index}: unexpected error {exc.code}: {exc}"
            )
            # an in-flight write may or may not have committed; the
            # retry below treats a duplicate rejection as committed
            ambiguous = True
            if asyncio.get_event_loop().time() > deadline:
                raise AssertionError(
                    f"write {index} never succeeded after failover"
                )
            await asyncio.sleep(0.05)
            continue
        if reply["applied"]:
            return reply["position"], ambiguous
        assert ambiguous, (
            f"write {index} rejected without an ambiguous prior "
            f"attempt: {reply}"
        )
        return reply["position"], ambiguous


async def _reader_loop(door_port, shared, results):
    """Hold ``require_seq`` at the storm's latest ack; served frontiers
    must satisfy it and never regress on this connection."""
    client = await DirectoryClient.connect("127.0.0.1", door_port)
    await client.bind("cn=storm-reader")
    last_served = None
    try:
        while not shared["done"]:
            require = shared["acked"][-1] if shared["acked"] else None
            try:
                reply = await client.search(
                    filter="(uid=w*)", require_seq=require
                )
            except ServerError as exc:
                if exc.code == "unavailable":
                    await asyncio.sleep(0.02)
                    continue
                assert exc.code == "position_lost", (
                    f"reader: unexpected error {exc.code}: {exc}"
                )
                results["position_losses"].append(require)
                # invariant 3 is checked against the recorded floors
                # once the topology settles (the floor may be being
                # recorded concurrently with this very response)
                await asyncio.sleep(0.02)
                continue
            read_floor_monotonic(reply["position"], require, last_served)
            last_served = reply["position"]
            results["reads_served"] += 1
            await asyncio.sleep(0)
    finally:
        await client.close()
    results["last_served"] = last_served


async def _run_storm(root, kill_at, followers):
    primary, replicas, door = await _build_topology(root, followers)
    results = {
        "reads_served": 0,
        "position_losses": [],
        "last_served": None,
    }
    shared = {"acked": [], "done": False}
    writer = await DirectoryClient.connect("127.0.0.1", door.port)
    await writer.bind("cn=storm-writer")
    reader_task = asyncio.ensure_future(
        _reader_loop(door.port, shared, results)
    )
    try:
        deadline = asyncio.get_event_loop().time() + 60
        for index in range(STORM_WRITES):
            if index == kill_at:
                await primary.kill()
            position, ambiguous = await _write_with_retry(
                writer, index, deadline
            )
            assert not ambiguous or index >= kill_at, (
                "a write before the kill point saw the failover window"
            )
            shared["acked"].append(position)
        shared["done"] = True
        await reader_task

        # -- post-storm verdicts ---------------------------------------
        topology = await writer.request("topology")
        assert topology["failovers"] == 1, topology
        assert topology["primary"]["alive"]
        floors = topology["lost_floors"]
        assert len(floors) == 1
        floor = _plain(floors[0])

        # invariant 3: every position_lost the reader saw is genuinely
        # past the recorded floor of the dead generation
        for require in results["position_losses"]:
            assert require is not None
            lost = _plain(require)
            assert lost[0] == floor[0] and lost[1] > floor[1], (
                f"position_lost answered for {lost}, floor {floor}"
            )

        # invariant 4: acked-at-or-below-the-floor writes all survive;
        # the final frontier serves every post-failover write too
        final = await writer.search(
            filter="(uid=w*)", require_seq=shared["acked"][-1]
        )
        surviving = {
            entry["attributes"]["uid"][0] for entry in final["entries"]
        }
        for index, position in enumerate(shared["acked"]):
            acked = _plain(position)
            if acked <= floor or acked[0] > floor[0]:
                assert f"w{index}" in surviving, (
                    f"write {index} acked at {acked} (floor {floor}, "
                    f"new generation included) vanished"
                )
        assert results["reads_served"] > 0
        results["acked"] = list(shared["acked"])
        results["floor"] = floor
        results["survivors"] = surviving
        return results
    finally:
        shared["done"] = True
        if not reader_task.done():
            reader_task.cancel()
            await asyncio.gather(reader_task, return_exceptions=True)
        await writer.close()
        await door.stop(drain=True, timeout=5)
        for replica in replicas:
            await replica.stop(drain=False)
        await primary.stop(drain=False)


def run_failover_scenario(root, kill_at, *, followers=2):
    """One storm with the primary killed before write ``kill_at``."""
    return asyncio.run(_run_storm(root, kill_at, followers))


def run_kill_matrix(root, *, stride=1, followers=2):
    """Sweep the kill point across the storm.  ``stride=1`` is the full
    every-protocol-step matrix (slow lane); larger strides sample it
    (default lane)."""
    outcomes = {}
    for kill_at in range(0, STORM_WRITES, stride):
        scenario_root = root / f"kill{kill_at}"
        scenario_root.mkdir()
        outcomes[kill_at] = run_failover_scenario(
            scenario_root, kill_at, followers=followers
        )
    return outcomes
