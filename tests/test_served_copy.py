"""One served copy per member (:mod:`repro.server.server`).

A member's connections all read one copy: a plain primary's writer, a
sharded primary's one view, a replica's the copy its applier applies
into.  These gate what sharing it must keep: N connections open nothing
beyond the member's one copy; replies stay committed states, never
behind a connection's floor, while the applier follows between them; a
promotion retires the copy it followed; a replica holds about one
reader's bytes, not two; and a plain primary's reads add next to
nothing to what its writer holds.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import threading
import tracemalloc

import pytest

from invariants import committed_at, read_floor_monotonic, spanning_read_whole
from repro.errors import StoreError
from repro.model.instance import DirectoryInstance
from repro.store import DirectoryStore, Position, members, wal
from repro.store.reader import StoreReader
from repro.store.recovery import JOURNAL_FILE
from repro.workloads import generate_whitepages, whitepages_registry, whitepages_schema
from tests.test_server import (  # noqa: F401 - plain_store is a fixture
    FOUR_SHARDS,
    _HoldAfterAppend,
    _caught_up,
    _client,
    _person,
    _replica_of,
    _searched_to,
    _serve,
    _white_pages,
    plain_store,
)

#: A bounded lookup (planned on the indexes) and an unbounded scan;
#: both are answered on the loop.
LOOKUP = "(objectClass=person)"


def _key(position: dict) -> str:
    return json.dumps(position, sort_keys=True)


def _dns(entries) -> list:
    return sorted(entry["dn"].casefold() for entry in entries)


@pytest.fixture()
def bootstraps(monkeypatch):
    """The directories of every successful :class:`StoreReader`
    bootstrap from here on."""
    seen = []
    bootstrap = StoreReader._bootstrap

    def counted(reader):
        done = bootstrap(reader)
        if done:
            seen.append(reader._dir)
        return done

    monkeypatch.setattr(StoreReader, "_bootstrap", counted)
    return seen


class TestFanIn:
    @pytest.mark.parametrize("kind", ["plain", "sharded"])
    def test_n_connections_open_one_copy_per_member(
        self, kind, tmp_path, bootstraps
    ):
        """Eight direct connections searching and checking, on a primary
        and on its replica, bootstrap one copy per member in total: the
        replica's applier copy, and a sharded primary's view — a plain
        primary serves its writer and bootstraps none."""
        store = _white_pages(kind, tmp_path)
        primary_dir = store[0]
        replica_dir = str(tmp_path / "replica")

        async def run():
            primary = await _serve(store)
            replica = await _replica_of(primary, tmp_path, *store[1:])
            try:
                head = (await (probe := await _client(primary)).position())["position"]
                await probe.close()
                for server in (primary, replica):
                    clients = [await _client(server) for _ in range(8)]
                    await _searched_to(clients[0], head)
                    replies = await asyncio.gather(
                        *(c.search(filter=LOOKUP) for c in clients),
                        *(c.search() for c in clients),
                        *(c.check() for c in clients),
                    )
                    assert {_key(r["position"]) for r in replies} == {_key(head)}
                    views = {id(c.view) for c in server._connections.values()
                             if c.view is not None}
                    assert len(views) == 1
                    for client in clients:
                        await client.close()
            finally:
                await replica.stop(drain=False)
                await primary.stop(drain=False)

        asyncio.run(run())
        per_member = len(FOUR_SHARDS) if kind == "sharded" else 1
        primary_copies = per_member if kind == "sharded" else 0
        assert sum(d.startswith(primary_dir) for d in bootstraps) == primary_copies
        assert sum(d.startswith(replica_dir) for d in bootstraps) == per_member


def _records(index: int) -> list:
    """``(dn, uid)`` of the people commit ``index`` adds: one, or on
    every fifth commit two in different organizations — a spanning 2PC
    commit on four shards."""
    orgs = [index % 4] if index % 5 else [index % 4, (index + 2) % 4]
    return [(f"uid=f{index}-{org},o=org{org}", f"f{index}-{org}") for org in orgs]


def _add(index: int) -> str:
    return "\n".join(
        f"dn: {dn}\nchangetype: add\nobjectClass: person\nobjectClass: top\n"
        f"uid: {uid}\nname: f {index}\n"
        for dn, uid in _records(index)
    )


def _delete(index: int) -> str:
    """Delete everything commit ``index`` added, in one ``txn``."""
    return "\n".join(f"dn: {dn}\nchangetype: delete\n" for dn, _ in _records(index))


def _member_of(dn: str, kind: str) -> str:
    """The shard a (case-folded) DN lives on; a plain store's one member."""
    if kind == "plain":
        return ""
    return f"s{dn.rsplit('o=org', 1)[1][0]}"


def _members_at(position: dict) -> dict:
    """``{member: (generation, seq)}`` of a ``position`` payload."""
    if "generation" in position:
        return {"": (position["generation"], position["seq"])}
    return {name: tuple(pair) for name, pair in position.items()}


class TestFollowedWhileRead:
    @pytest.mark.parametrize("kind", ["plain", "sharded"])
    def test_replies_are_committed_states_while_the_applier_replays(
        self, kind, tmp_path
    ):
        """A replica follows 200 commits while three connections search
        (a bounded lookup on the loop, an unbounded scan on the
        executor) and check.  Every reply is, member by member, the
        primary's state at the reply's position, shows every spanning
        commit whole or not at all, and no connection is ever served
        behind a position it was served before."""
        store = _white_pages(kind, tmp_path)
        commits = 200
        #: The people each two-organization commit added, together.
        spanning = [
            [dn for dn, _ in _records(index)]
            for index in range(commits) if len(_records(index)) > 1
        ]
        #: ``{query: {member: {(generation, seq): its slice of the answer}}}``
        oracles = {"lookup": {}, "scan": {}}

        def slices(dns):
            held = {}
            for dn in dns:
                held.setdefault(_member_of(dn, kind), []).append(dn)
            return held

        def record(instance, position):
            everyone = list(instance)
            answers = {
                "scan": everyone,
                "lookup": [e for e in everyone if "person" in e.classes],
            }
            for query, entries in answers.items():
                held = slices(sorted(instance.dn_string_of(e).casefold() for e in entries))
                for name, at in _members_at(position).items():
                    oracles[query].setdefault(name, {})[at] = held.get(name, [])

        def judge(query, position, dns):
            held = slices(dns)
            for name, at in _members_at(position).items():
                committed_at(
                    oracles[query][name], at, held.get(name, []),
                    f" ({query} of member {name!r} on the replica)",
                )
            spanning_read_whole(dns, spanning, f" ({query} at {position})")

        def counted(position, entries):
            return entries == sum(
                len(oracles["scan"][name][at])
                for name, at in _members_at(position).items()
            )

        async def run():
            primary = await _serve(store)
            replica = await _replica_of(primary, tmp_path, *store[1:])
            done = asyncio.Event()
            served = {"lookup": 0, "scan": 0, "check": 0}

            def instance():
                held = primary.store
                return held.composite_instance() if kind == "sharded" else held.instance

            async def read(client):
                floor, turn = None, 0
                while not done.is_set():
                    query = ("lookup", "scan", "check")[turn % 3]
                    turn += 1
                    if query == "check":
                        reply = await client.check()
                        assert reply["legal"], reply["violations"]
                    else:
                        reply = await client.search(
                            filter=LOOKUP if query == "lookup" else None
                        )
                    position = reply["position"]
                    read_floor_monotonic(position, last_served=floor)
                    if query == "check":
                        assert counted(position, reply["entries"]), reply
                    else:
                        judge(query, position, _dns(reply["entries"]))
                    served[query] += 1
                    floor = position

            try:
                writer = await _client(primary, dn="cn=writer")
                head = (await writer.position())["position"]
                record(instance(), head)
                readers = [await _client(replica) for _ in range(3)]
                await _searched_to(readers[0], head)
                copy = replica._applier.served()
                assert copy.plan_search(filter=LOOKUP).bounded
                assert not copy.plan_search().bounded
                reading = [asyncio.ensure_future(read(c)) for c in readers]
                for index in range(commits):
                    change = _delete(index - 1) if index % 4 == 3 else _add(index)
                    reply = await writer.txn(change)
                    assert reply["applied"], reply
                    record(instance(), reply["position"])
                probe = await _client(replica)
                await _caught_up(probe, reply["position"])
                await probe.close()
                done.set()
                await asyncio.gather(*reading)
                assert min(served.values()) > 10, served
                for client in (writer, *readers):
                    await client.close()
            finally:
                await replica.stop(drain=False)
                await primary.stop(drain=False)

        asyncio.run(run())


async def _settled_landings(replica) -> int:
    """The replica's landings so far, once its sync loop has announced
    the last one: a landing shows at its position before its record and
    its announcement, so the count is read once it stands still."""
    landings = -1
    while landings != replica._commit_seq:
        landings = replica._commit_seq
        await asyncio.sleep(0.1)
    return landings


class TestBacklogLandsAtOnce:
    @pytest.mark.parametrize("kind", ["plain", "sharded"])
    def test_messages_received_behind_a_stage_land_with_one_stage(
        self, kind, tmp_path
    ):
        """A replica whose writer thread is held while 20 commits (some
        spanning four shards) stream in lands them in two landings once
        it is let go: the message already being staged, then every
        message received behind it, staged in one job — not one landing
        per message, each behind whatever reads the loop queued."""
        store = _white_pages(kind, tmp_path)

        async def run():
            primary = await _serve(store)
            replica = await _replica_of(primary, tmp_path, *store[1:])
            held = threading.Event()
            try:
                writer = await _client(primary, dn="cn=writer")
                probe = await _client(replica)
                await _caught_up(probe, (await writer.position())["position"])
                landings = await _settled_landings(replica)
                replica._writer_pool.submit(held.wait)
                for index in range(20):
                    reply = await writer.txn(_add(index))
                    assert reply["applied"], reply
                stream = replica._sync_client._stream
                quiet, seen = 0, -1
                while quiet < 5:  # every message received: 0.5 s with none
                    quiet = quiet + 1 if stream.qsize() == seen else 0
                    seen = stream.qsize()
                    await asyncio.sleep(0.1)
                held.set()
                await _caught_up(probe, reply["position"])
                assert await _settled_landings(replica) - landings == 2
                for client in (writer, probe):
                    await client.close()
            finally:
                held.set()
                await replica.stop(drain=False)
                await primary.stop(drain=False)

        asyncio.run(run())


class TestPromotion:
    def test_plain_connection_open_across_promotion_sees_own_commits(
        self, plain_store, tmp_path
    ):
        """The plain twin of ``TestShardedReplicaServing``'s promotion
        case: the copy a connection read while the member followed is
        the applier's, and the promotion closes it; the same connection
        then reads the promoted server's own commits, at the write's
        position, from the primary's view."""
        _, schema, registry = plain_store

        async def run():
            primary = await _serve(plain_store)
            replica = await _replica_of(primary, tmp_path, schema, registry)
            try:
                writer = await _client(primary, dn="cn=writer")
                client = await _client(replica, dn="cn=survivor")
                applied = await writer.add(**_person(1))
                await _searched_to(client, applied["position"])
                follower_view = next(
                    c.view for c in replica._connections.values()
                    if c.bound_dn == "cn=survivor"
                )
                assert follower_view is replica._applier.reader
                await writer.close()
                await primary.stop(drain=False)

                promoted = await client.promote()
                assert promoted["role"] == "primary"
                for index in (2, 3):
                    applied = await client.add(**_person(index))
                    assert applied["applied"] is True
                    found = await client.search(filter="(objectClass=person)")
                    assert found["position"] == applied["position"]
                    uids = {e["attributes"]["uid"][0] for e in found["entries"]}
                    assert {"w1", f"w{index}"} <= uids
                primary_view = next(
                    c.view for c in replica._connections.values()
                    if c.bound_dn == "cn=survivor"
                )
                # the follower-mode copy did not outlive the promotion
                assert primary_view is not follower_view
                with pytest.raises(StoreError, match="closed"):
                    follower_view.refresh()
                await client.close()
            finally:
                await replica.stop(drain=False)
                await primary.stop(drain=False)

        asyncio.run(run())


def _traced() -> int:
    """The bytes tracemalloc sees retained by the library below its
    server: the sockets, tasks and frames of the server, the clients
    and asyncio (larger under ``-X dev``) are no copy of the directory."""
    gc.collect()
    snapshot = tracemalloc.take_snapshot().filter_traces([
        tracemalloc.Filter(True, "*/repro/*"),
        tracemalloc.Filter(False, "*/repro/server/*"),
    ])
    return sum(stat.size for stat in snapshot.statistics("filename"))


class TestOneCopyOfBytes:
    def test_replica_with_readers_holds_about_one_reader(self, tmp_path):
        """A replica with three reading connections retains at most
        1.25x the bytes of one :meth:`StoreReader.open` of its
        directory — its readers share the applier's copy.  A ratio
        under tracemalloc, not a byte count, over what the library
        allocates below its server: the sockets, tasks and frames of
        the server, the clients and asyncio (larger under ``-X dev``)
        are no copy of the directory."""
        schema, registry = whitepages_schema(), whitepages_registry()
        path = str(tmp_path / "primary")
        instance = generate_whitepages(
            orgs=3, units_per_level=3, depth=2, persons_per_unit=8, seed=5,
            registry=registry,
        )
        DirectoryStore.create(path, schema, instance, registry).close()
        replica_dir = str(tmp_path / "replica")

        async def run():
            primary = await _serve((path, schema, registry))
            try:
                head = (await (probe := await _client(primary)).position())["position"]
                tracemalloc.start()
                try:
                    before = _traced()
                    replica = await _replica_of(primary, tmp_path, schema, registry)
                    readers = [await _client(replica) for _ in range(3)]
                    await _searched_to(readers[0], head)
                    for client in readers:
                        await client.search(filter="(uid=u1)")
                        await client.search(scope="one")
                        assert (await client.check())["legal"]
                    held = _traced() - before
                    for client in readers:
                        await client.close()
                    await replica.stop(drain=False)
                    before = _traced()
                    one = StoreReader.open(replica_dir, schema, registry)
                    single = _traced() - before
                    one.close()
                finally:
                    tracemalloc.stop()
                await probe.close()
            finally:
                await primary.stop(drain=False)
            return held, single

        held, single = asyncio.run(run())
        assert held <= 1.25 * single, (held, single, held / single)

    def test_plain_primary_with_readers_holds_its_writer_only(self, tmp_path):
        """A plain primary serves its writer: three connections' searches
        and checks leave it holding at most 0.25x the bytes of one
        :meth:`StoreReader.open` of its directory beyond what it held
        before them — no second copy, only what reading the writer's
        instance keeps (its numbering, the session's content plans).
        The same tracemalloc ratio as above."""
        schema, registry = whitepages_schema(), whitepages_registry()
        path = str(tmp_path / "primary")
        instance = generate_whitepages(
            orgs=3, units_per_level=3, depth=2, persons_per_unit=8, seed=5,
            registry=registry,
        )
        DirectoryStore.create(path, schema, instance, registry).close()

        async def run():
            primary = await _serve((path, schema, registry))
            try:
                tracemalloc.start()
                try:
                    before = _traced()
                    readers = [await _client(primary) for _ in range(3)]
                    for client in readers:
                        await client.search(filter="(uid=u1)")
                        await client.search(scope="one")
                        assert (await client.check())["legal"]
                    held = _traced() - before
                    for client in readers:
                        await client.close()
                    before = _traced()
                    one = StoreReader.open(path, schema, registry)
                    single = _traced() - before
                    one.close()
                finally:
                    tracemalloc.stop()
            finally:
                await primary.stop(drain=False)
            return held, single

        held, single = asyncio.run(run())
        assert held <= 0.25 * single, (held, single, held / single)


# ----------------------------------------------------------------------
# the loop is the only thread of a served copy and of a primary's writer
# ----------------------------------------------------------------------
#: Every ``DirectoryInstance`` method that changes an instance: the
#: tree, the class index, an entry's values, and the numbering.
MUTATORS = (
    "add_entry", "delete_entry", "insert_subtree", "restore_subtree",
    "delete_subtree", "_on_class_added", "_on_class_removed",
    "_notify_entry_changed", "_ensure_order",
)


def _served_instances(server):
    """The instances a member's served copy is made of right now: a
    plain primary's writer's, the plain copy's, or a composite's held
    composite and its members'."""
    if isinstance(server.store, DirectoryStore):
        return [server.store.instance]
    copy = server._view if server._applier is None else server._applier.reader
    if copy is None:
        return []
    if not hasattr(copy, "shard_map"):
        return [copy.instance]
    return [copy._composite, *(
        copy.shard_reader(name).instance for name in copy.shard_map.names()
    )]


def _writer_instances(server):
    """The instances a primary's writer holds right now: the plain
    store's, or each shard's."""
    store = server.store
    if store is None:
        return []
    if not hasattr(store, "shard_map"):
        return [store.instance]
    return [store.shard(name).instance for name in store.shard_names()]


class _LoopOnly:
    """Wraps every mutator of :class:`DirectoryInstance`: a call on an
    instance some server serves or writes is counted when it runs on
    the loop's thread, and recorded when it runs anywhere else.  An
    instance no server holds yet — a view's first open, an applier's
    incoming reader, a promotion's store — may be built on any
    thread."""

    def __init__(self, monkeypatch):
        self.servers = []
        self.loop = None
        self.on_loop = 0
        self.elsewhere = []
        for name in MUTATORS:
            monkeypatch.setattr(
                DirectoryInstance, name, self._wrapped(name, getattr(DirectoryInstance, name))
            )

    def _wrapped(self, name, mutator):
        def guarded(instance, *args, **kwargs):
            if any(
                instance is held
                for server in self.servers
                for held in (*_served_instances(server), *_writer_instances(server))
            ):
                if threading.get_ident() == self.loop:
                    self.on_loop += 1
                else:
                    self.elsewhere.append((name, threading.current_thread().name))
            return mutator(instance, *args, **kwargs)

        return guarded


async def _read_your_write(client, reply, uid):
    """Search the write ``reply`` made until its position shows, and
    the entry ``uid`` with it."""
    await _searched_to(client, reply["position"])
    found = await client.search(filter=f"(uid={uid})")
    assert len(found["entries"]) == 1 and found["position"] == reply["position"]


class TestOnTheLoop:
    @pytest.mark.parametrize("kind", ["plain", "sharded"])
    def test_a_served_copy_changes_only_on_the_loop(
        self, kind, tmp_path, monkeypatch
    ):
        """Through a primary's writes read back at once (spanning 2PC
        commits on four shards), a compaction, a replica following
        them and its promotion: every change to an instance a member
        serves — a refresh, a landed replay, a fold, a renumber — and
        to a primary's writer instances — a commit's guard and apply —
        runs on the event loop's thread."""
        store = _white_pages(kind, tmp_path)
        _, schema, registry = store
        guard = _LoopOnly(monkeypatch)

        async def run():
            guard.loop = threading.get_ident()
            primary = await _serve(store)
            replica = await _replica_of(primary, tmp_path, schema, registry)
            guard.servers += [primary, replica]
            try:
                writer = await _client(primary, dn="cn=writer")
                reader = await _client(primary)
                follower = await _client(replica)
                for index in range(6):
                    reply = await writer.txn(_add(index))
                    assert reply["applied"], reply
                    for client in (reader, follower):
                        await _read_your_write(client, reply, _records(index)[0][1])
                for client in (reader, follower):
                    assert (await client.check())["legal"]
                primary.store.compact()
                reply = await writer.txn(_delete(0))  # ships the fold
                assert reply["applied"], reply
                for client in (reader, follower):
                    await _searched_to(client, reply["position"])
                    assert (await client.check())["legal"]
                await writer.close()
                await reader.close()
                await primary.stop(drain=False)
                assert (await follower.promote())["role"] == "primary"
                reply = await follower.txn(_add(6))
                assert reply["applied"], reply
                await _read_your_write(follower, reply, _records(6)[0][1])
                await follower.close()
            finally:
                await replica.stop(drain=False)
                await primary.stop(drain=False)

        asyncio.run(run())
        assert guard.elsewhere == [], sorted(set(guard.elsewhere))
        assert guard.on_loop > 0


# ----------------------------------------------------------------------
# a message staged and not landed: reattach and promote take it whole
# ----------------------------------------------------------------------
def _journal_seqs(directory):
    """Each member's journal frame seqs, and whether its tail is clean."""
    seqs = {}
    for name, member in members(directory).items():
        with open(os.path.join(member, JOURNAL_FILE), "rb") as fh:
            scanned = wal.scan(fh.read())
        seqs[name] = ([record.seq for record in scanned.records], scanned.tail_state)
    return seqs


class TestStagedNotLanded:
    """A replica whose applier holds a message between its stage (the
    journal append, fsynced) and its land, when the member is told to
    reattach or is promoted."""

    @staticmethod
    async def _held(kind, tmp_path, monkeypatch):
        import repro.server.server as server_module

        store = _white_pages(kind, tmp_path)
        _, schema, registry = store
        io = _HoldAfterAppend()
        open_replica = server_module.open_replica
        monkeypatch.setattr(
            server_module, "open_replica",
            lambda *args, **options: open_replica(*args, io=io, **options),
        )
        primary = await _serve(store)
        replica = await _replica_of(primary, tmp_path, schema, registry)
        writer = await _client(primary, dn="cn=writer")
        client = await _client(replica)
        head = (await writer.position())["position"]
        await _searched_to(client, head)
        io.armed = True
        reply = await writer.txn(_add(0))  # spanning on four shards
        assert reply["applied"], reply
        loop = asyncio.get_running_loop()
        assert await loop.run_in_executor(None, io.reached.wait, 10)
        return io, primary, replica, writer, client, head, reply

    @pytest.mark.parametrize("kind", ["plain", "sharded"])
    def test_a_reattach_lands_it_once(self, kind, tmp_path, monkeypatch):
        """The replica converges to the primary, each frame appended
        once, with no ``sync_error`` left and no read served behind one
        served before it."""

        async def run():
            io, primary, replica, writer, client, head, reply = await self._held(
                kind, tmp_path, monkeypatch
            )
            floor = head
            try:
                probe = await _client(replica, dn="cn=probe")
                reattach = asyncio.ensure_future(
                    probe.reattach(f"127.0.0.1:{primary.port}")
                )
                for _ in range(5):  # the copy answers at the landed position
                    found = await client.search(filter="(uid=u1)")
                    assert found["position"] == head
                io.release.set()
                assert (await reattach)["upstream"] == f"127.0.0.1:{primary.port}"
                for index, expected in ((0, reply), (1, None)):
                    if expected is None:
                        expected = await writer.txn(_add(index))
                        assert expected["applied"], expected
                    while (found := await client.search(filter="(uid=u1)"))[
                        "position"
                    ] != expected["position"]:
                        read_floor_monotonic(found["position"], last_served=floor)
                        floor = found["position"]
                        await asyncio.sleep(0.02)
                    read_floor_monotonic(found["position"], last_served=floor)
                    floor = found["position"]
                    uid = _records(index)[0][1]
                    assert len((await client.search(filter=f"(uid={uid})"))["entries"]) == 1
                position = await _caught_up(probe, expected["position"])
                assert "sync_error" not in position, position
                await probe.close()
            finally:
                io.release.set()
                await replica.stop(drain=False)
                await primary.stop(drain=False)

        asyncio.run(run())
        for name, (seqs, tail) in _journal_seqs(str(tmp_path / "replica")).items():
            assert seqs == list(range(1, len(seqs) + 1)) and tail == "clean", (name, seqs)

    @pytest.mark.parametrize("kind", ["plain", "sharded"])
    def test_a_promotion_includes_it(self, kind, tmp_path, monkeypatch):
        """The promoted primary stands past the staged message, and
        serves it."""

        async def run():
            io, primary, replica, writer, client, head, reply = await self._held(
                kind, tmp_path, monkeypatch
            )
            try:
                promoting = asyncio.ensure_future(client.promote())
                await asyncio.sleep(0.1)
                io.release.set()
                promoted = await promoting
                assert promoted["role"] == "primary"
                assert Position.from_wire(promoted["position"]) >= Position.from_wire(
                    reply["position"]
                )
                for _, uid in _records(0):
                    found = await client.search(filter=f"(uid={uid})")
                    assert len(found["entries"]) == 1
                    assert found["position"] == promoted["position"]
            finally:
                io.release.set()
                await replica.stop(drain=False)
                await primary.stop(drain=False)

        asyncio.run(run())
