"""The read-balancing front door (:mod:`repro.server.frontdoor`).

Covers the routing surface — writes to the primary, reads across
replicas — and the bounded-staleness contract's edges: a read with a
requirement (``require_seq`` or the connection's monotonic floor)
searches only followers the door has heard hold it, and the primary
otherwise; the door believes a member's latest report; ``max_lag=0``
equals primary reads; a member dying mid-search, the primary
included, retries transparently on the next candidate.  The
kill-the-primary-mid-storm failover matrix lives in
``tests/test_failover.py``; this file pins the deterministic edges
(replica sync loops are stalled on purpose where lag must be exact).

No pytest-asyncio: each test drives its own loop via ``asyncio.run``.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.server import DirectoryClient, DirectoryServer, FrontDoor
from repro.server.client import ServerError
from repro.server.frontdoor import position_geq, position_max
from repro.store import DirectoryStore, Position
from repro.store.sharded import ShardedStore
from repro.workloads import (
    figure1_instance,
    whitepages_registry,
    whitepages_schema,
)

PARENT = "ou=databases,ou=attLabs,o=att"
NESTED_BASES = {"att": "o=att", "labs": "ou=attLabs,o=att"}


class _Topology:
    """An in-process primary + replicas + front door, torn down as one."""

    def __init__(self, primary, replicas, door):
        self.primary = primary
        self.replicas = replicas
        self.door = door

    async def client(self, dn="cn=test") -> DirectoryClient:
        client = await DirectoryClient.connect("127.0.0.1", self.door.port)
        await client.bind(dn)
        return client

    async def wait_replicas_at(self, position, timeout=15.0):
        """Block until every replica's applied frontier covers
        ``position`` (a plain position payload)."""
        deadline = asyncio.get_event_loop().time() + timeout
        for replica in self.replicas:
            client = await DirectoryClient.connect("127.0.0.1", replica.port)
            try:
                while True:
                    reply = await client.position()
                    if position_geq(reply.get("position"), position):
                        break
                    if asyncio.get_event_loop().time() > deadline:
                        raise AssertionError(
                            f"replica never reached {position}: {reply}"
                        )
                    await asyncio.sleep(0.05)
            finally:
                await client.close()

    async def wait_door_heard(self, position, timeout=15.0):
        """Block until the door's table holds every replica at or past
        ``position``: the door has heard it from a reply or a probe."""
        deadline = asyncio.get_event_loop().time() + timeout
        client = await self.client(dn="cn=probe")
        try:
            while True:
                table = await client.request("topology")
                if all(
                    position_geq(member["position"], position)
                    for member in table["replicas"]
                ):
                    return
                if asyncio.get_event_loop().time() > deadline:
                    raise AssertionError(f"door never heard {position}: {table}")
                await asyncio.sleep(0.02)
        finally:
            await client.close()

    async def stall_replica_sync(self):
        """Freeze every replica at its current frontier (the lag the
        staleness-contract tests need to be exact)."""
        for replica in self.replicas:
            await replica._stop_sync()

    async def stop(self):
        await self.door.stop(drain=True, timeout=5)
        await self.primary.stop(drain=False)
        for replica in self.replicas:
            await replica.stop(drain=False)


async def _topology(
    tmp_path, n_replicas=2, shard_bases=None, **door_kwargs
) -> _Topology:
    schema, registry = whitepages_schema(), whitepages_registry()
    primary_path = str(tmp_path / "primary")
    if shard_bases:
        ShardedStore.create(
            primary_path, schema, shard_bases, figure1_instance(), registry
        ).close()
    else:
        DirectoryStore.create(
            primary_path, schema, figure1_instance(), registry
        ).close()
    primary = DirectoryServer(primary_path, schema, registry, port=0)
    await primary.start()
    upstream = f"127.0.0.1:{primary.port}"
    replicas = []
    for index in range(n_replicas):
        replica = DirectoryServer(
            str(tmp_path / f"replica{index}"), schema, registry,
            port=0, replica_of=upstream,
        )
        await replica.start()
        replicas.append(replica)
    door_kwargs.setdefault("probe_interval", 0.1)
    door_kwargs.setdefault("fail_after", 2)
    door = FrontDoor(
        upstream, [f"127.0.0.1:{r.port}" for r in replicas], **door_kwargs
    )
    await door.start()
    topo = _Topology(primary, replicas, door)
    # followers are serving once the bootstrap snapshot has landed
    await topo.wait_replicas_at(
        {name: [1, 0] for name in shard_bases} if shard_bases
        else {"generation": 1, "seq": 0}
    )
    return topo


def _count_calls(topo, op):
    """Count the ``op`` requests each member runs, keyed ``primary``,
    ``replica0``, ``replica1``, ..."""
    counted = {}
    members = [("primary", topo.primary)] + [
        (f"replica{index}", replica) for index, replica in enumerate(topo.replicas)
    ]
    for name, member in members:
        handler = getattr(member, f"_op_{op}")
        counted[name] = 0

        async def counting(connection, request, name=name, handler=handler):
            counted[name] += 1
            return await handler(connection, request)

        setattr(member, f"_op_{op}", counting)
    return counted


def _person(index):
    return (
        f"uid=w{index},{PARENT}",
        ["person", "top"],
        {"uid": [f"w{index}"], "name": [f"w {index}"]},
    )


class TestPositionHelpers:
    def test_plain_ordering_is_lexicographic(self):
        assert position_geq({"generation": 2, "seq": 0},
                            {"generation": 1, "seq": 99})
        assert not position_geq({"generation": 1, "seq": 3},
                                {"generation": 1, "seq": 4})
        assert position_geq({"generation": 1, "seq": 3}, None)
        assert not position_geq(None, {"generation": 1, "seq": 0})

    def test_sharded_requirement_covers_every_shard(self):
        served = {"att": [1, 5], "labs": [1, 2]}
        assert position_geq(served, {"att": [1, 5], "labs": [1, 2]})
        assert not position_geq(served, {"att": [1, 5], "labs": [1, 3]})
        # a shard the server has never heard of counts as (0, 0)
        assert not position_geq(served, {"other": [1, 1]})

    def test_position_max_merges_pointwise(self):
        assert position_max({"generation": 1, "seq": 5},
                            {"generation": 1, "seq": 7}) \
            == {"generation": 1, "seq": 7}
        assert position_max({"att": [1, 5], "labs": [1, 1]},
                            {"att": [1, 2], "labs": [1, 4]}) \
            == {"att": [1, 5], "labs": [1, 4]}
        assert position_max(None, {"generation": 1, "seq": 1}) \
            == {"generation": 1, "seq": 1}


class TestRouting:
    def test_writes_route_to_primary_and_carry_position(self, tmp_path):
        async def run():
            topo = await _topology(tmp_path)
            try:
                client = await topo.client()
                dn, classes, attributes = _person(1)
                reply = await client.add(dn, classes, attributes)
                assert reply["applied"] is True
                assert reply["position"] == {"generation": 1, "seq": 1}
                # the write landed on the primary, not a replica
                direct = await DirectoryClient.connect(
                    "127.0.0.1", topo.primary.port
                )
                await direct.bind("cn=probe")
                found = await direct.search(filter="(uid=w1)")
                assert len(found["entries"]) == 1
                await direct.close()
                await client.close()
            finally:
                await topo.stop()

        asyncio.run(run())

    def test_topology_reports_members_and_frontiers(self, tmp_path):
        async def run():
            topo = await _topology(tmp_path)
            try:
                client = await topo.client()
                reply = await client.request("topology")
                assert reply["primary"]["address"].endswith(
                    str(topo.primary.port)
                )
                assert len(reply["replicas"]) == 2
                assert reply["failovers"] == 0
                assert reply["lost_floors"] == []
                await client.close()
            finally:
                await topo.stop()

        asyncio.run(run())

    def test_malformed_request_is_not_a_dead_member(self, tmp_path):
        """A request with a wrong-typed field used to raise in the
        primary's dispatch, drop the door's connection to it, and come
        back ``unavailable`` with the primary marked dead — failing
        other clients' writes until the re-probe.  It is the client's
        ``bad_request``; the topology does not move."""
        from tests.test_server import MALFORMED_REQUESTS

        async def run():
            topo = await _topology(tmp_path, n_replicas=1)
            try:
                client, other = await topo.client(), await topo.client()
                for index, (op, fields) in enumerate(MALFORMED_REQUESTS):
                    with pytest.raises(ServerError) as excinfo:
                        await client.request(op, **fields)
                    assert excinfo.value.code == "bad_request", (op, fields)
                    assert (await client.ping())["ok"]
                    # another client's write, issued immediately after
                    assert (await other.add(*_person(index)))["applied"]
                reply = await client.request("topology")
                assert reply["primary"]["alive"]
                assert all(member["alive"] for member in reply["replicas"])
                assert reply["failovers"] == 0
                await client.close()
                await other.close()
            finally:
                await topo.stop()

        asyncio.run(run())

    def test_reads_require_bind_and_ops_gate(self, tmp_path):
        async def run():
            topo = await _topology(tmp_path, n_replicas=1)
            try:
                client = await DirectoryClient.connect(
                    "127.0.0.1", topo.door.port
                )
                with pytest.raises(ServerError) as excinfo:
                    await client.search()
                assert excinfo.value.code == "not_bound"
                await client.bind("cn=test")
                for op in ("watch", "replicate", "promote", "reattach"):
                    with pytest.raises(ServerError) as excinfo:
                        await client.request(op)
                    assert excinfo.value.code == "bad_request"
                await client.close()
            finally:
                await topo.stop()

        asyncio.run(run())


class TestStalenessContract:
    def test_require_seq_beyond_every_follower_falls_to_primary(
        self, tmp_path
    ):
        async def run():
            topo = await _topology(tmp_path)
            try:
                # freeze the followers at the bootstrap frontier, then
                # advance the primary past them
                await topo.stall_replica_sync()
                searched = _count_calls(topo, "search")
                client = await topo.client()
                dn, classes, attributes = _person(1)
                written = await client.add(dn, classes, attributes)
                position = written["position"]
                # read-your-writes: every follower is stuck at seq 0,
                # so the primary serves it, and no follower is searched
                found = await client.search(
                    filter="(uid=w1)", require_seq=position
                )
                assert len(found["entries"]) == 1
                assert position_geq(found["position"], position)
                assert searched == {"primary": 1, "replica0": 0, "replica1": 0}
                await client.close()
            finally:
                await topo.stop()

        asyncio.run(run())

    def test_max_lag_zero_equals_primary_reads(self, tmp_path):
        async def run():
            topo = await _topology(tmp_path)
            try:
                await topo.stall_replica_sync()
                writer = await topo.client(dn="cn=writer")
                dn, classes, attributes = _person(1)
                await writer.add(dn, classes, attributes)
                await writer.close()
                # a FRESH connection (no floor) asking max_lag=0 must
                # serve the primary's frontier, stale followers or not
                reader = await topo.client(dn="cn=reader")
                found = await reader.search(
                    filter="(uid=w1)", max_lag=0
                )
                assert len(found["entries"]) == 1
                assert found["position"] == {"generation": 1, "seq": 1}
                await reader.close()
            finally:
                await topo.stop()

        asyncio.run(run())

    def test_max_lag_bounds_sharded_followers_too(self, tmp_path):
        """``max_lag`` used to filter followers only when positions
        were plain, so a sharded cohort routed to arbitrarily stale
        replicas; lag is now the sum of per-shard sequence gaps."""

        async def read(topo, **staleness):
            reader = await topo.client(dn="cn=reader")  # fresh: no floor
            try:
                return await reader.search(filter="(uid=w2)", **staleness)
            finally:
                await reader.close()

        async def run():
            topo = await _topology(
                tmp_path, n_replicas=1, shard_bases=NESTED_BASES
            )
            try:
                await topo.stall_replica_sync()
                held_back = {"att": [1, 0], "labs": [1, 0]}
                writer = await topo.client(dn="cn=writer")
                for index in (1, 2):  # two frames on the labs shard
                    written = await writer.add(*_person(index))
                assert written["position"] == {"att": [1, 0], "labs": [1, 2]}
                # the door has probed the held-back replica's frontier
                while (await writer.request("topology"))["replicas"][0][
                    "position"
                ] != held_back:
                    await asyncio.sleep(0.05)
                await writer.close()

                bounded = await read(topo, max_lag=1)  # 2 frames behind
                assert bounded["position"] == written["position"]
                assert len(bounded["entries"]) == 1
                for staleness in ({"max_lag": 2}, {}):
                    stale = await read(topo, **staleness)
                    assert stale["position"] == held_back
                    assert stale["entries"] == []
            finally:
                await topo.stop()

        asyncio.run(run())

    def test_connection_floor_makes_reads_monotonic(self, tmp_path):
        async def run():
            topo = await _topology(tmp_path)
            try:
                await topo.stall_replica_sync()
                client = await topo.client()
                dn, classes, attributes = _person(1)
                written = await client.add(dn, classes, attributes)
                # no explicit require_seq: the connection's floor from
                # the write still forbids serving the stale followers
                for _ in range(6):  # > rotation length: every route
                    found = await client.search(filter="(uid=w1)")
                    assert len(found["entries"]) == 1
                    assert position_geq(
                        found["position"], written["position"]
                    )
                # the door counts its read outcomes: the primary served
                # all six, and no follower's stale answer was discarded
                table = await client.request("topology")
                assert table["primary"]["served"] == 6
                assert table["primary"]["stale"] == 0
                assert [
                    (member["served"], member["stale"])
                    for member in table["replicas"]
                ] == [(0, 0), (0, 0)]
                await client.close()
            finally:
                await topo.stop()

        asyncio.run(run())

    def test_follower_reads_balance_when_caught_up(self, tmp_path):
        async def run():
            topo = await _topology(tmp_path)
            try:
                client = await topo.client()
                dn, classes, attributes = _person(1)
                written = await client.add(dn, classes, attributes)
                # a follower is read at the write once the door has
                # heard that it holds it (here: from the probe)
                await topo.wait_door_heard(written["position"])
                searched = _count_calls(topo, "search")
                for _ in range(8):
                    found = await client.search(
                        filter="(uid=w1)", require_seq=written["position"]
                    )
                    assert len(found["entries"]) == 1
                assert searched == {"primary": 0, "replica0": 4, "replica1": 4}
                await client.close()
            finally:
                await topo.stop()

        asyncio.run(run())

    def test_the_door_believes_a_members_latest_report(self, tmp_path):
        """A member's position in the door's table is what it last
        reported, not the largest it ever reported: a follower known
        ahead of what it holds (say, a re-created directory) is tried
        once, answers stale, and is not tried again until news."""

        async def run():
            # no probe during the test: only forwarded replies inform
            topo = await _topology(tmp_path, probe_interval=30)
            try:
                await topo.stall_replica_sync()
                client = await topo.client()
                written = await client.add(*_person(1))
                topo.door._replicas[0].position = Position.from_wire(
                    {"generation": 1, "seq": 99}
                )
                searched = _count_calls(topo, "search")
                for expected in (
                    {"primary": 1, "replica0": 1, "replica1": 0},
                    {"primary": 2, "replica0": 1, "replica1": 0},
                ):
                    found = await client.search(filter="(uid=w1)")
                    assert len(found["entries"]) == 1
                    assert position_geq(found["position"], written["position"])
                    assert searched == expected
                table = await client.request("topology")
                held_back = table["replicas"][0]
                assert held_back["position"] == {"generation": 1, "seq": 0}
                assert (held_back["served"], held_back["stale"]) == (0, 1)
                assert table["primary"]["served"] == 2
                await client.close()
            finally:
                await topo.stop()

        asyncio.run(run())

    def test_a_floored_read_survives_the_primary_dying_on_an_unheard_follower(
        self, tmp_path
    ):
        """A floored read tries the followers the door has not heard
        hold its floor after the primary: when the primary dies under
        the read, a follower that caught up unheard still serves it."""

        async def run():
            # the door never probes during the test, so it has not
            # heard that the followers caught up
            topo = await _topology(tmp_path, probe_interval=30)
            try:
                client = await topo.client()
                written = await client.add(*_person(1))
                await topo.wait_replicas_at(written["position"])
                await topo.primary.kill()
                found = await client.search(filter="(uid=w1)")
                assert len(found["entries"]) == 1
                assert position_geq(found["position"], written["position"])
                await client.close()
            finally:
                await topo.stop()

        asyncio.run(run())

    def test_checks_are_computed_on_the_followers(self, tmp_path):
        """Read scale-out in work units (the retired ``bench_frontdoor``
        gated it as a >= 1.5x throughput ratio on >= 3 cores): with no
        staleness contract every ``check`` verdict is computed by a
        follower, spread over both; ``max_lag=0`` pins them all to the
        primary."""

        async def run():
            topo = await _topology(tmp_path)
            computed = _count_calls(topo, "check")
            try:
                # every check after the first is floored by the
                # connection, and a floored read goes only to followers
                # the door has heard from; wait until it has heard both
                await topo.wait_door_heard({"generation": 1, "seq": 0})
                client = await topo.client()
                for _ in range(8):
                    assert (await client.check())["legal"]
                assert computed == {"primary": 0, "replica0": 4, "replica1": 4}
                for _ in range(3):
                    assert (await client.check(max_lag=0))["legal"]
                assert computed["primary"] == 3
                await client.close()
            finally:
                await topo.stop()

        asyncio.run(run())

    def test_staleness_fields_validated(self, tmp_path):
        async def run():
            topo = await _topology(tmp_path, n_replicas=1)
            try:
                client = await topo.client()
                for require in (
                    {"generation": True, "seq": 0},
                    {"generation": 1, "seq": -2},
                    {"att": [1]},
                    {"att": [1, 2, 3]},
                    {"generation": 1, "seq": 2, "att": [1, 2]},
                    "soon",
                    {},
                ):
                    with pytest.raises(ServerError) as excinfo:
                        await client.search(require_seq=require)
                    assert excinfo.value.code == "bad_request"
                for lag in (True, -1, "none"):
                    with pytest.raises(ServerError) as excinfo:
                        await client.search(max_lag=lag)
                    assert excinfo.value.code == "bad_request"
                await client.close()
            finally:
                await topo.stop()

        asyncio.run(run())


class TestFollowerFailure:
    def test_follower_death_retries_transparently(self, tmp_path):
        async def run():
            topo = await _topology(tmp_path)
            try:
                client = await topo.client()
                # seed the rotation so the door holds live pooled
                # connections to the followers
                for _ in range(4):
                    assert (await client.search())["ok"]
                # kill one follower out from under the door
                await topo.replicas[0].kill()
                for _ in range(8):
                    found = await client.search(
                        filter="(objectClass=person)"
                    )
                    assert len(found["entries"]) == 3
                await client.close()
            finally:
                await topo.stop()

        asyncio.run(run())

    def test_all_followers_dead_reads_serve_from_primary(self, tmp_path):
        async def run():
            topo = await _topology(tmp_path, n_replicas=1)
            try:
                client = await topo.client()
                await topo.replicas[0].kill()
                for _ in range(4):
                    found = await client.search(
                        filter="(objectClass=person)"
                    )
                    assert len(found["entries"]) == 3
                await client.close()
            finally:
                await topo.stop()

        asyncio.run(run())


class TestSlowBackend:
    def test_search_slower_than_probe_timeout_still_answers(self, tmp_path):
        """The member answers one connection's requests in order, so a
        health probe sharing the forwarding connection would queue
        behind a slow search, time out, and tear the search down with
        it.  Probes ride their own connection."""

        async def run():
            topo = await _topology(
                tmp_path, n_replicas=0, probe_interval=0.05,
                probe_timeout=0.2, fail_after=2,
            )
            try:
                search = topo.primary._op_search

                async def slow_search(connection, request):
                    await asyncio.sleep(1.0)  # > fail_after probe rounds
                    return await search(connection, request)

                topo.primary._op_search = slow_search
                client = await topo.client()
                found = await asyncio.wait_for(
                    client.search(filter="(objectClass=person)"), 10.0
                )
                assert len(found["entries"]) == 3
                reply = await client.request("topology")
                assert reply["primary"]["alive"] is True
                assert reply["failovers"] == 0
                await client.close()
            finally:
                await topo.stop()

        asyncio.run(run())
