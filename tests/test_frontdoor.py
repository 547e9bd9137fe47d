"""The read-balancing front door (:mod:`repro.server.frontdoor`).

Covers the routing surface — writes to the primary, reads across
replicas — and the bounded-staleness contract's edges: ``require_seq``
beyond every follower falls through to the primary, ``max_lag=0``
equals primary reads, a follower dying mid-search retries
transparently, and the per-connection monotonic floor.  The
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
from repro.store import DirectoryStore
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
                client = await topo.client()
                dn, classes, attributes = _person(1)
                written = await client.add(dn, classes, attributes)
                position = written["position"]
                # read-your-writes: every follower is stuck at seq 0,
                # so this must fall through to the primary
                found = await client.search(
                    filter="(uid=w1)", require_seq=position
                )
                assert len(found["entries"]) == 1
                assert position_geq(found["position"], position)
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
                await topo.wait_replicas_at(written["position"])
                found = await client.search(
                    filter="(uid=w1)", require_seq=written["position"]
                )
                assert len(found["entries"]) == 1
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
            computed = {}

            def count(member, name):
                check = member._op_check
                computed[name] = 0

                async def counting(connection, request):
                    computed[name] += 1
                    return await check(connection, request)

                member._op_check = counting

            count(topo.primary, "primary")
            for index, replica in enumerate(topo.replicas):
                count(replica, f"replica{index}")
            try:
                client = await topo.client()
                # a follower whose frontier the door has not probed yet
                # is tried last; wait until it knows both
                while not all(
                    member["position"]
                    for member in (await client.request("topology"))["replicas"]
                ):
                    await asyncio.sleep(0.02)
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
