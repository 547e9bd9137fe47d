"""The asyncio network front-end (:mod:`repro.server`).

Covers the framing layer, the LDAP-ish operation surface (bind model,
search/check reads over the member's one served copy,
add/delete/txn/modify writes through the single store writer), the
commit-notify channel, the sharded composite surface (spanning
transactions through 2PC), graceful drain — and the concurrency
acceptance gate: N clients searching while a writer commits must each
observe only committed frontiers, never a torn spanning transaction
(in-doubt 2PC state).

No pytest-asyncio here: each test drives its own loop via
``asyncio.run`` so the suite stays dependency-free.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import errno
import json
import os
import random
import struct
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FilterSyntaxError, QueryError, StoreError, StoreLockedError
from repro.query.filter_parser import parse_filter
from repro.server import DirectoryClient, DirectoryServer, FrontDoor
from repro.server.client import ServerError
from repro.server.server import _entry_payload
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_frame,
    encode_frame,
    parse_address,
    read_frame,
)
from repro.store import DirectoryStore, StoreIO, StoreReader, open_view
from repro.store.recovery import JOURNAL_FILE
from repro.store.sharded import ShardedStore
from repro.store.txlog import TXLOG_FILE
from repro.workloads import (
    figure1_instance,
    generate_whitepages,
    whitepages_registry,
    whitepages_schema,
)
from tests.test_index import _random_filter
from invariants import instance_state

PARENT = "ou=databases,ou=attLabs,o=att"
NESTED_BASES = {"att": "o=att", "labs": "ou=attLabs,o=att"}
#: A frame body nested deeper than the JSON parser's stack.
DEEP_BODY = b'{"op":"ping","id":1,"x":' + b"[" * 200_000 + b"]" * 200_000 + b"}"


@pytest.fixture()
def plain_store(tmp_path):
    schema, registry = whitepages_schema(), whitepages_registry()
    path = str(tmp_path / "store")
    DirectoryStore.create(path, schema, figure1_instance(), registry).close()
    return path, schema, registry


@pytest.fixture()
def sharded_store(tmp_path):
    schema, registry = whitepages_schema(), whitepages_registry()
    path = str(tmp_path / "sharded")
    ShardedStore.create(
        path, schema, NESTED_BASES, figure1_instance(), registry
    ).close()
    return path, schema, registry


async def _serve(store):
    path, schema, registry = store
    server = DirectoryServer(path, schema, registry, port=0)
    await server.start()
    return server


async def _client(server, dn="cn=test") -> DirectoryClient:
    client = await DirectoryClient.connect("127.0.0.1", server.port)
    if dn is not None:
        await client.bind(dn)
    return client


def _person(index: int) -> dict:
    return {
        "dn": f"uid=w{index},{PARENT}",
        "classes": ["person", "top"],
        "attributes": {"uid": [f"w{index}"], "name": [f"w {index}"]},
    }


def _spanning_changes(index: int) -> str:
    """A ``txn`` document spanning both shards of ``NESTED_BASES``: one
    person at the root shard, one below the nested cut — the 2PC path."""
    return (
        f"dn: uid=a{index},o=att\n"
        "changetype: add\n"
        "objectClass: person\nobjectClass: top\n"
        f"uid: a{index}\nname: a {index}\n\n"
        f"dn: uid=b{index},{PARENT}\n"
        "changetype: add\n"
        "objectClass: person\nobjectClass: top\n"
        f"uid: b{index}\nname: b {index}\n"
    )


class TestFraming:
    def test_round_trip(self):
        message = {"op": "search", "id": 7, "filter": "(cn=\\2a)"}
        frame = encode_frame(message)
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4
        assert decode_frame(frame[4:]) == message

    def test_oversized_frame_refused(self):
        with pytest.raises(ProtocolError):
            encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})

    def test_non_object_refused(self):
        with pytest.raises(ProtocolError):
            decode_frame(b"[1,2,3]")

    def test_garbage_refused(self):
        with pytest.raises(ProtocolError):
            decode_frame(b"\xff\xfe not json")

    def test_body_nested_past_the_parser_stack_refused(self):
        """A 200k-deep array used to leak ``RecursionError`` past both
        connection loops; it is one more undecodable frame."""
        with pytest.raises(ProtocolError):
            decode_frame(DEEP_BODY)

    @pytest.mark.parametrize(
        "address", ["a:b", ":7", "h:", "h:-1", "h:70000", "h:0", "h", "", 7, None]
    )
    def test_unparseable_address_refused(self, address):
        with pytest.raises(ValueError):
            parse_address(address)

    def test_address_parsed(self):
        assert parse_address("127.0.0.1:389") == ("127.0.0.1", 389)


class TestBindModel:
    def test_ping_allowed_before_bind(self, plain_store):
        async def run():
            server = await _serve(plain_store)
            try:
                client = await _client(server, dn=None)
                assert (await client.ping())["ok"]
                await client.close()
            finally:
                await server.stop()

        asyncio.run(run())

    def test_operations_require_bind(self, plain_store):
        async def run():
            server = await _serve(plain_store)
            try:
                client = await _client(server, dn=None)
                with pytest.raises(ServerError) as excinfo:
                    await client.search()
                assert excinfo.value.code == "not_bound"
                await client.close()
            finally:
                await server.stop()

        asyncio.run(run())

    def test_anonymous_bind(self, plain_store):
        async def run():
            server = await _serve(plain_store)
            try:
                client = await _client(server, dn="")
                response = await client.search(filter="(objectClass=person)")
                assert len(response["entries"]) == 3
                await client.unbind()
            finally:
                await server.stop()

        asyncio.run(run())

    def test_unknown_op_is_an_error(self, plain_store):
        async def run():
            server = await _serve(plain_store)
            try:
                client = await _client(server)
                with pytest.raises(ServerError) as excinfo:
                    await client.request("frobnicate")
                assert excinfo.value.code == "unknown_op"
                await client.close()
            finally:
                await server.stop()

        asyncio.run(run())


class TestReads:
    def test_search_entries_and_position(self, plain_store):
        async def run():
            server = await _serve(plain_store)
            try:
                client = await _client(server)
                response = await client.search(filter="(uid=laks)")
                assert len(response["entries"]) == 1
                entry = response["entries"][0]
                assert entry["dn"] == "uid=laks,ou=databases,ou=attLabs,o=att"
                assert entry["attributes"]["uid"] == ["laks"]
                assert response["position"] == {"generation": 1, "seq": 0}
                await client.close()
            finally:
                await server.stop()

        asyncio.run(run())

    def test_scoped_search(self, plain_store):
        async def run():
            server = await _serve(plain_store)
            try:
                client = await _client(server)
                response = await client.search(base=PARENT, scope="base")
                assert [e["dn"] for e in response["entries"]] == [PARENT]
                with pytest.raises(ServerError) as excinfo:
                    await client.search(scope="everything")
                assert excinfo.value.code == "bad_request"
                await client.close()
            finally:
                await server.stop()

        asyncio.run(run())

    def test_size_limit_cuts_after_ordering_and_flags_truncation(
        self, plain_store
    ):
        async def run():
            server = await _serve(plain_store)
            try:
                client = await _client(server)
                full = await client.search(filter="(objectClass=person)")
                assert full["truncated"] is False
                dns = [e["dn"] for e in full["entries"]]
                assert len(dns) > 2
                cut = await client.search(
                    filter="(objectClass=person)", size_limit=2
                )
                # The cut is a prefix of the canonical ordering, and
                # the client is told results were dropped.
                assert [e["dn"] for e in cut["entries"]] == dns[:2]
                assert cut["truncated"] is True
                exact = await client.search(
                    filter="(objectClass=person)", size_limit=len(dns)
                )
                assert exact["truncated"] is False
                assert len(exact["entries"]) == len(dns)
                with pytest.raises(ServerError) as excinfo:
                    await client.search(size_limit=0)
                assert excinfo.value.code == "bad_request"
                await client.close()
            finally:
                await server.stop()

        asyncio.run(run())

    def test_filter_syntax_error_code(self, plain_store):
        async def run():
            server = await _serve(plain_store)
            try:
                client = await _client(server)
                with pytest.raises(ServerError) as excinfo:
                    await client.search(filter="(((")
                assert excinfo.value.code == "filter_syntax"
                # found by the table fuzz: this was ``internal_error``
                with pytest.raises(ServerError) as excinfo:
                    await client.search(base="ou=nowhere,o=att")
                assert excinfo.value.code == "invalid"
                await client.close()
            finally:
                await server.stop()

        asyncio.run(run())

    def test_check_extended_op(self, plain_store):
        async def run():
            server = await _serve(plain_store)
            try:
                client = await _client(server)
                response = await client.check()
                assert response["legal"] is True
                assert response["violations"] == []
                assert response["entries"] == 6
                await client.close()
            finally:
                await server.stop()

        asyncio.run(run())


class TestWrites:
    def test_add_then_visible_to_fresh_search(self, plain_store):
        async def run():
            server = await _serve(plain_store)
            try:
                client = await _client(server)
                spec = _person(0)
                response = await client.add(
                    spec["dn"], spec["classes"], spec["attributes"]
                )
                assert response["applied"] is True
                found = await client.search(filter="(uid=w0)")
                assert len(found["entries"]) == 1
                assert found["position"]["seq"] == 1
                await client.close()
            finally:
                await server.stop()

        asyncio.run(run())

    def test_illegal_add_rejected_with_violations(self, plain_store):
        async def run():
            server = await _serve(plain_store)
            try:
                client = await _client(server)
                # A person carrying mail is bounding-schema-illegal:
                # the guard rejects it and the response carries the
                # violations instead of raising.
                response = await client.add(
                    f"uid=bad0,{PARENT}", ["person", "top"],
                    {"uid": ["bad0"], "name": ["b zero"],
                     "mail": ["bad@example.com"]},
                )
                assert response["applied"] is False
                assert response["violations"]
                # A structurally impossible add (no parent entry) is a
                # request error, not a guard rejection.
                with pytest.raises(ServerError) as excinfo:
                    await client.add(
                        "uid=orphan,ou=nowhere,o=att", ["person", "top"],
                        {"uid": ["orphan"], "name": ["or phan"]},
                    )
                assert excinfo.value.code == "invalid"
                await client.close()
            finally:
                await server.stop()

        asyncio.run(run())

    def test_txn_and_delete(self, plain_store):
        async def run():
            server = await _serve(plain_store)
            try:
                client = await _client(server)
                changes = (
                    f"dn: uid=t1,{PARENT}\n"
                    "changetype: add\n"
                    "objectClass: person\nobjectClass: top\n"
                    "uid: t1\nname: t one\n\n"
                    f"dn: uid=t2,{PARENT}\n"
                    "changetype: add\n"
                    "objectClass: person\nobjectClass: top\n"
                    "uid: t2\nname: t two\n"
                )
                response = await client.txn(changes)
                assert response["applied"] is True
                assert (await client.delete(f"uid=t2,{PARENT}"))["applied"]
                found = await client.search(filter="(uid=t*)")
                assert [e["dn"] for e in found["entries"]] == [
                    f"uid=t1,{PARENT}"
                ]
                await client.close()
            finally:
                await server.stop()

        asyncio.run(run())

    def test_modify_journaled_and_visible(self, plain_store):
        async def run():
            server = await _serve(plain_store)
            try:
                client = await _client(server)
                changes = (
                    "dn: uid=laks,ou=databases,ou=attLabs,o=att\n"
                    "changetype: modify\n"
                    "replace: mail\n"
                    "mail: laks@example.edu\n"
                    "-\n"
                )
                response = await client.modify(changes)
                assert response["applied"] is True
                found = await client.search(filter="(mail=laks@example.edu)")
                assert len(found["entries"]) == 1
                await client.close()
            finally:
                await server.stop()

        asyncio.run(run())


    @pytest.mark.parametrize("kind", ["server", "door"])
    @pytest.mark.parametrize(
        "second",
        [
            "dn: uid=nobody,o=att\nchangetype: modify\nreplace: name\nname: x\n-\n",
            "dn: uid=laks,ou=databases,ou=attLabs,o=att\nchangetype: modrdn\n"
            "newrdn: uid=zz\ndeleteoldrdn: 1\n",
        ],
        ids=["no-such-entry", "modrdn"],
    )
    def test_modify_batch_keeps_what_it_committed(
        self, plain_store, tmp_path, kind, second
    ):
        """A record that cannot be staged used to raise out of the
        batch: the records before it were journaled, but the reply was a
        bare ``invalid`` with no ``results`` or ``position``, watchers
        got no ``notify`` and replicas were not woken until some later
        commit.  It is that record's ``applied: false`` now, and the
        commit is published."""
        _, schema, registry = plain_store
        first = (
            "dn: uid=laks,ou=databases,ou=attLabs,o=att\nchangetype: modify\n"
            "replace: mail\nmail: laks@example.edu\n-\n\n"
        )

        async def run():
            server, member, stop = await _member(kind, plain_store)
            replica = await _replica_of(server, tmp_path, schema, registry)
            try:
                watcher = await _client(server, dn="cn=watcher")
                await watcher.watch()
                client, probe = await _client(member), await _client(replica)
                response = await client.modify(first + second)
                assert response["applied"] is False
                committed, refused = response["results"]
                assert committed["applied"] and not committed["violations"]
                assert committed["dn"] == "uid=laks,ou=databases,ou=attLabs,o=att"
                assert not refused["applied"] and refused["violations"]
                assert response["position"] == {"generation": 1, "seq": 1}
                assert (await watcher.next_notify(timeout=5))["seq"] == 1
                # no further write: the replica hears of this one
                await _caught_up(probe, response["position"])
                found = await client.search(
                    filter="(mail=laks@example.edu)",
                    require_seq=response["position"],
                )
                assert len(found["entries"]) == 1
                for connection in (watcher, client, probe):
                    await connection.close()
            finally:
                await replica.stop(drain=False)
                await stop()

        asyncio.run(run())


    def test_modify_record_that_raises_leaves_the_primary_as_found(
        self, plain_store, tmp_path
    ):
        """Record 1's second clause raises after its first was applied.
        That is the record's refusal and the batch goes on — so the
        writer's memory must be what it was: the first clause used to
        stay applied there (journaled nowhere), and every later write
        was Δ-checked against a state no replica and no reader held."""
        path, schema, registry = plain_store
        raising = (
            "dn: uid=suciu,ou=databases,ou=attLabs,o=att\nchangetype: modify\n"
            "add: objectClass\nobjectClass: orgUnit\n-\n"
            "delete: objectClass\nobjectClass: staffMember\n-\n\n"
        )
        legal = (
            "dn: uid=laks,ou=databases,ou=attLabs,o=att\nchangetype: modify\n"
            "replace: mail\nmail: laks@example.edu\n-\n"
        )

        async def run():
            server = await _serve(plain_store)
            replica = await _replica_of(server, tmp_path, schema, registry)
            try:
                before = instance_state(server.store.instance)
                client, probe = await _client(server), await _client(replica)
                response = await client.modify(raising + legal)
                refused, committed = response["results"]
                assert not refused["applied"]
                assert "does not belong" in refused["violations"][0]
                assert committed["applied"] and not committed["violations"]
                assert response["position"] == {"generation": 1, "seq": 1}
                # the writer's memory, a fresh view and the replica agree
                ours = instance_state(server.store.instance)
                assert ours["counts"] == before["counts"]
                assert server.store.check().is_legal
                with open_view(path, schema, registry) as view:
                    assert instance_state(view.instance) == ours
                await _caught_up(probe, response["position"])
                verdict = await probe.check(require_seq=response["position"])
                assert verdict["legal"] is server.store.check().is_legal is True
                for connection in (client, probe):
                    await connection.close()
            finally:
                await replica.stop(drain=False)
                await server.stop()

        asyncio.run(run())


class TestNotifyChannel:
    def test_watcher_wakes_on_commit(self, plain_store):
        async def run():
            server = await _serve(plain_store)
            try:
                watcher = await _client(server, dn="cn=watcher")
                await watcher.watch()
                writer = await _client(server, dn="cn=writer")
                spec = _person(1)
                await writer.add(
                    spec["dn"], spec["classes"], spec["attributes"]
                )
                notify = await watcher.next_notify(timeout=5)
                assert notify["op"] == "notify"
                assert notify["seq"] == 1
                # The wakeup is the re-check trigger: the follower's
                # next read sees the commit.
                found = await watcher.search(filter="(uid=w1)")
                assert len(found["entries"]) == 1
                await watcher.close()
                await writer.close()
            finally:
                await server.stop()

        asyncio.run(run())

    def test_rejected_write_does_not_notify(self, plain_store):
        async def run():
            server = await _serve(plain_store)
            try:
                watcher = await _client(server, dn="cn=watcher")
                await watcher.watch()
                writer = await _client(server, dn="cn=writer")
                response = await writer.add(
                    f"uid=bad1,{PARENT}", ["person", "top"],
                    {"uid": ["bad1"], "name": ["b one"],
                     "mail": ["bad@example.com"]},
                )
                assert response["applied"] is False
                with pytest.raises(asyncio.TimeoutError):
                    await watcher.next_notify(timeout=0.3)
                await watcher.close()
                await writer.close()
            finally:
                await server.stop()

        asyncio.run(run())

    def test_slow_watcher_coalesces_with_drop_signal(
        self, plain_store, monkeypatch
    ):
        """A subscriber that cannot keep up must not make the server
        buffer per-commit frames: notifications coalesce in the bounded
        per-subscriber cell and the catch-up frame says how many were
        folded away (``dropped``), so the client knows to re-read
        rather than trust the gap.  The artificially slow client here
        is simulated by stalling every notify write server-side — the
        commits all land while the first frame is still in flight."""
        import repro.server.server as server_module

        real_write_frame = server_module.write_frame

        async def stalled_write_frame(writer, message):
            if message.get("op") == "notify":
                await asyncio.sleep(0.4)
            await real_write_frame(writer, message)

        async def run():
            server = await _serve(plain_store)
            try:
                watcher = await _client(server, dn="cn=watcher")
                await watcher.watch()
                writer = await _client(server, dn="cn=writer")
                monkeypatch.setattr(
                    server_module, "write_frame", stalled_write_frame
                )
                commits = 5
                for index in range(1, commits + 1):
                    spec = _person(index)
                    response = await writer.add(
                        spec["dn"], spec["classes"], spec["attributes"]
                    )
                    assert response["applied"]
                frames = []
                while sum(
                    1 + frame.get("dropped", 0) for frame in frames
                ) < commits:
                    frames.append(await watcher.next_notify(timeout=5))
                # far fewer frames than commits: no unbounded buffering
                assert len(frames) < commits
                # nothing lost silently: every folded-away notification
                # is accounted for in a dropped counter
                assert any(frame.get("dropped", 0) > 0 for frame in frames)
                # the catch-up frame points at the true latest commit
                assert frames[-1]["seq"] == commits
                # and the drop is a *resync* signal: re-reading shows
                # every commit the folded frames covered
                found = await watcher.search(filter="(uid=w*)")
                assert len(found["entries"]) == commits
                await watcher.close()
                await writer.close()
            finally:
                await server.stop()

        asyncio.run(run())


class TestShardedServing:
    def test_search_and_spanning_txn(self, sharded_store):
        async def run():
            server = await _serve(sharded_store)
            try:
                client = await _client(server)
                response = await client.search(filter="(objectClass=person)")
                assert len(response["entries"]) == 3
                assert set(response["position"]) == {"att", "labs"}
                # One transaction spanning both shards rides 2PC.
                changes = (
                    "dn: uid=root1,o=att\n"
                    "changetype: add\n"
                    "objectClass: person\nobjectClass: top\n"
                    "uid: root1\nname: r one\n\n"
                    f"dn: uid=leaf1,{PARENT}\n"
                    "changetype: add\n"
                    "objectClass: person\nobjectClass: top\n"
                    "uid: leaf1\nname: l one\n"
                )
                applied = await client.txn(changes)
                assert applied["applied"] is True
                found = await client.search(filter="(objectClass=person)")
                assert len(found["entries"]) == 5
                verdict = await client.check()
                assert verdict["legal"] is True
                await client.close()
            finally:
                await server.stop()

        asyncio.run(run())

    def test_sharded_search_is_canonically_ordered(self, sharded_store):
        async def run():
            server = await _serve(sharded_store)
            try:
                client = await _client(server)
                response = await client.search()
                dns = [e["dn"] for e in response["entries"]]
                from repro.model.dn import parse_dn

                def key(dn):
                    return tuple(
                        str(r)
                        for r in reversed(parse_dn(dn).normalized().rdns)
                    )

                assert dns == sorted(dns, key=key)
                await client.close()
            finally:
                await server.stop()

        asyncio.run(run())


class TestGracefulDrain:
    def test_stop_drains_inflight_connections(self, plain_store):
        async def run():
            server = await _serve(plain_store)
            client = await _client(server)
            response = await client.search()
            assert response["ok"]
            # stop() with live connections: in-flight work finishes,
            # the socket closes, the store lock is released.
            await server.stop(drain=True, timeout=5)
            path, schema, registry = plain_store
            store = DirectoryStore.open(path, schema, registry)
            store.close()
            await client.close()

        asyncio.run(run())


class TestDrainLatency:
    def test_stop_returns_promptly_with_idle_connections(self, plain_store):
        """Regression: ``stop(drain=True)`` used to stall for the full
        timeout whenever any connection sat idle in ``read_frame`` —
        ``_draining`` is only checked between frames and closing the
        listener does not touch accepted sockets.  The drain now nudges
        idle connections (closes their transports), so a graceful
        SIGTERM on an idle server returns promptly."""

        async def run():
            server = await _serve(plain_store)
            idlers = [await _client(server, dn=f"cn=idle{i}") for i in range(3)]
            for client in idlers:
                assert (await client.search())["ok"]  # now parked idle
            loop = asyncio.get_running_loop()
            started = loop.time()
            await server.stop(drain=True, timeout=30)
            elapsed = loop.time() - started
            assert elapsed < 5, f"idle drain took {elapsed:.1f}s"
            for client in idlers:
                await client.close()

        asyncio.run(run())


class TestModifyValidation:
    def test_empty_modify_batch_rejected(self, plain_store):
        """Regression: an empty changes document used to come back
        ``applied: true`` — ``all()`` over zero per-record results is
        vacuously true.  An empty batch is a client bug; reject it."""

        async def run():
            server = await _serve(plain_store)
            try:
                client = await _client(server)
                for empty in ("", "\n\n"):
                    with pytest.raises(ServerError) as excinfo:
                        await client.modify(empty)
                    assert excinfo.value.code == "bad_request"
                # and nothing was journaled by the refusals
                position = await client.position()
                assert position["position"] == {"generation": 1, "seq": 0}
                await client.close()
            finally:
                await server.stop()

        asyncio.run(run())

    def test_empty_txn_document_rejected(self, plain_store):
        """The same vacuous-success trap on the ``txn`` path: an empty
        changes document parses to a zero-operation transaction that
        ``apply`` accepts without committing anything — the server must
        refuse it instead of answering ``applied: true``."""

        async def run():
            server = await _serve(plain_store)
            try:
                client = await _client(server)
                for empty in ("", "\n\n"):
                    with pytest.raises(ServerError) as excinfo:
                        await client.txn(empty)
                    assert excinfo.value.code == "bad_request"
                position = await client.position()
                assert position["position"] == {"generation": 1, "seq": 0}
                await client.close()
            finally:
                await server.stop()

        asyncio.run(run())


#: Requests whose fields have the wrong JSON type (or are missing):
#: each used to raise out of ``_dispatch`` and drop the connection.
MALFORMED_REQUESTS = [
    ("add", {}),
    ("delete", {}),
    ("add", {"dn": 5}),
    ("add", {"dn": "cn=a", "classes": 5}),
    ("add", {"dn": "cn=a", "classes": ["top"], "attributes": [1]}),
    ("search", {"base": 7}),
    ("search", {"filter": 7}),
    ("txn", {"changes": 5}),
    ("modify", {"changes": None}),
    # attribute values are JSON strings, numbers or booleans: an object
    # used to be committed as its Python repr
    ("add", {"dn": "cn=a", "classes": ["top"], "attributes": {"name": [{"a": 1}]}}),
    ("add", {"dn": "cn=a", "classes": ["top"], "attributes": {"name": [["a"]]}}),
    ("add", {"dn": "cn=a", "classes": ["top"], "attributes": {"name": [None]}}),
]

#: A value no declared field accepts, and valid values for the required
#: ones (so the field under test is the first one that is off).
WRONG = [{}]
VALID = {"dn": "cn=a", "changes": "", "upstream": "127.0.0.1:9"}


def _table_cases():
    """``(op, fields, name)`` — for every op of the request table and
    every field it declares, the field wrong-typed and, where required,
    the field absent."""
    from repro.server.protocol import REQUESTS

    for op, declared in REQUESTS.items():
        required = {n: VALID[n] for n, field in declared.items() if field.required}
        for name, field in declared.items():
            yield op, {**required, name: WRONG}, name
            if field.required:
                yield op, {n: v for n, v in required.items() if n != name}, name


class _Raw:
    """A connection that writes whatever frame it is told to — no
    ``DirectoryClient``, so hostile keys and bodies can be sent."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer

    @classmethod
    async def connect(cls, port, bind=True):
        raw = cls(*await asyncio.open_connection("127.0.0.1", port))
        if bind:
            assert (await raw.ask({"op": "bind", "id": 0, "dn": "cn=raw"}))["ok"]
        return raw

    async def send_body(self, body: bytes):
        self.writer.write(struct.pack(">I", len(body)) + body)
        await self.writer.drain()

    async def ask(self, message: dict):
        self.writer.write(encode_frame(message))
        await self.writer.drain()
        return await asyncio.wait_for(read_frame(self.reader), 10.0)

    async def close(self):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _member(kind, store):
    """A server, or a front door in front of it: ``(server, member,
    stop)`` with ``member`` the one clients connect to."""
    server = await _serve(store)
    if kind == "server":
        return server, server, server.stop
    door = FrontDoor(f"127.0.0.1:{server.port}", [], probe_interval=0.05)
    await door.start()

    async def stop():
        await door.stop()
        await server.stop()

    return server, door, stop


async def _replica_of(primary, tmp_path, schema, registry):
    """A started replica server following ``primary``."""
    replica = DirectoryServer(
        str(tmp_path / "replica"), schema, registry,
        port=0, replica_of=f"127.0.0.1:{primary.port}",
    )
    await replica.start()
    return replica


async def _caught_up(probe, head, seconds=10.0):
    """Poll a member's ``position`` until it reads ``head``; returns the
    reply that did."""
    deadline = asyncio.get_event_loop().time() + seconds
    while (reply := await probe.position())["position"] != head:
        assert asyncio.get_event_loop().time() < deadline, reply
        await asyncio.sleep(0.02)
    return reply


class TestMalformedFields:
    @pytest.mark.parametrize("op,fields", MALFORMED_REQUESTS)
    def test_malformed_field_is_bad_request(self, plain_store, op, fields):
        async def run():
            server = await _serve(plain_store)
            try:
                client = await _client(server)
                with pytest.raises(ServerError) as excinfo:
                    await client.request(op, **fields)
                assert excinfo.value.code == "bad_request"
                # the connection survived and nothing was journaled
                assert (await client.ping())["ok"]
                position = await client.position()
                assert position["position"] == {"generation": 1, "seq": 0}
                await client.close()
            finally:
                await server.stop()

        asyncio.run(run())

    @pytest.mark.parametrize("kind", ["server", "door"])
    def test_every_declared_field_is_checked(self, plain_store, kind):
        """Generated from the request table, so an op or field added to
        it is covered here: the wrong type, or a required field's
        absence, is ``bad_request`` naming the field — on a server and
        through a front door — the connection stays usable and nothing
        is journaled."""

        async def run():
            server, member, stop = await _member(kind, plain_store)
            try:
                client = await _client(member)
                direct = await _client(server)
                for op, fields, name in _table_cases():
                    if op not in member.OPS:
                        continue
                    with pytest.raises(ServerError) as excinfo:
                        await client.request(op, **fields)
                    assert excinfo.value.code == "bad_request", (op, fields)
                    assert name in excinfo.value.message, (op, fields)
                    assert (await client.ping())["ok"]
                    position = await direct.position()
                    assert position["position"] == {"generation": 1, "seq": 0}
                await client.close()
                await direct.close()
            finally:
                await stop()

        asyncio.run(run())

    @pytest.mark.parametrize("kind", ["server", "door"])
    def test_hostile_frames_get_typed_answers(
        self, plain_store, kind, monkeypatch, caplog, capsys
    ):
        """Raw frames a ``DirectoryClient`` cannot send: a field named
        after a Python parameter (``self`` — the door used to splat it
        into ``client.request`` and die of the ``TypeError``), an
        unhashable ``op``, a handler that raises, a body nested past
        the parser's stack.  Each gets a typed answer or a quiet close,
        and a door does not take any of them for a dead member."""

        async def boom(self, connection, request):
            raise ZeroDivisionError("router bug")

        async def run():
            server, member, stop = await _member(kind, plain_store)
            try:
                raw = await _Raw.connect(member.port)
                added = await raw.ask(
                    {"op": "add", "id": 1, "self": 1, "op_": [], **_person(0)}
                )
                assert added["ok"] and added["applied"], added
                found = await raw.ask(
                    {"op": "search", "id": 2, "self": {}, "filter": "(uid=w0)"}
                )
                assert [e["dn"] for e in found["entries"]] == [_person(0)["dn"]]
                assert (await raw.ask({"op": "check", "id": 3, "self": 1}))["legal"]
                assert (await raw.ask({"op": [], "id": 4}))["error"] == "unknown_op"
                for bad in ("a:b", 7):
                    refused = await raw.ask({"op": "reattach", "id": 4, "upstream": bad})
                    assert refused["error"] == "bad_request", refused

                owner = FrontDoor if kind == "door" else DirectoryServer
                handler = owner.OPS["check"][0]
                with monkeypatch.context() as patched:
                    patched.setattr(owner, handler, boom)
                    failed = await raw.ask({"op": "check", "id": 5})
                assert failed["error"] == "internal_error", failed
                assert "ZeroDivisionError" in failed["message"]
                assert (await raw.ask({"op": "ping", "id": 6}))["ok"]

                await raw.send_body(DEEP_BODY)
                assert await asyncio.wait_for(raw.reader.read(), 10.0) == b""
                await raw.close()

                again = await _Raw.connect(member.port)
                assert (await again.ask({"op": "ping", "id": 7}))["ok"]
                if kind == "door":
                    await asyncio.sleep(0.2)  # a few probe rounds
                    topology = await again.ask({"op": "topology", "id": 8})
                    assert topology["primary"]["alive"]
                    assert topology["failovers"] == 0
                await again.close()
            finally:
                await stop()

        asyncio.run(run())
        assert "ZeroDivisionError: router bug" in capsys.readouterr().err
        assert not [r for r in caplog.records if r.name == "asyncio"], caplog.text

    @pytest.mark.parametrize(
        "kind,drain", [("server", True), ("server", False), ("door", True)]
    )
    def test_stop_while_connections_are_closing_logs_nothing(
        self, plain_store, kind, drain, monkeypatch, caplog
    ):
        """A member stopped while connections are half-way through
        closing (each is waiting for its socket to close, made slow here
        so that the stop always lands inside it): their tasks must end
        finished — not cancelled by the stop, nor left for the loop's
        shutdown to cancel after it.  asyncio's stream callback logs a
        cancelled connection task as an exception in a callback."""
        wait_closed = asyncio.StreamWriter.wait_closed

        async def slow_wait_closed(writer):
            await asyncio.sleep(0.15)
            await wait_closed(writer)

        monkeypatch.setattr(asyncio.StreamWriter, "wait_closed", slow_wait_closed)

        async def run():
            server, member, stop = await _member(kind, plain_store)
            try:
                raws = [await _Raw.connect(member.port) for _ in range(4)]
                for index, raw in enumerate(raws):
                    found = await raw.ask({"op": "search", "id": index})
                    assert found["ok"], found
                for raw in raws:
                    raw.writer.close()
            finally:
                if member is not server:
                    await member.stop()
                await asyncio.sleep(0.02)  # the server saw its peers hang up
                await server.stop(drain=drain)

        for _ in range(2):
            asyncio.run(run())
        assert not [r for r in caplog.records if r.name == "asyncio"], caplog.text

    def test_escaped_dispatch_failure_is_typed(
        self, plain_store, monkeypatch, capsys
    ):
        """Whatever still raises out of an operation answers
        ``internal_error`` (type in the message, traceback on stderr)
        and the connection stays usable."""

        async def boom(self, connection, request):
            raise ZeroDivisionError("checker bug")

        monkeypatch.setattr(DirectoryServer, "_op_check", boom)

        async def run():
            server = await _serve(plain_store)
            try:
                client = await _client(server)
                with pytest.raises(ServerError) as excinfo:
                    await client.check()
                assert excinfo.value.code == "internal_error"
                assert "ZeroDivisionError" in excinfo.value.message
                assert (await client.ping())["ok"]
                await client.close()
            finally:
                await server.stop()

        asyncio.run(run())
        assert "ZeroDivisionError: checker bug" in capsys.readouterr().err


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=12)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
#: Well-formed fragments, so the fuzz also gets past the table into the
#: DN, filter, LDIF and position parsers behind it.
_PLAUSIBLE = st.sampled_from([
    "o=att", f"uid=fuzz,{PARENT}", "(uid=*)", "(&(objectClass=person)(uid=l*))",
    "sub", "base", 1, 0, ["person", "top"], {"uid": ["fuzz"], "name": ["f"]},
    {"generation": 1, "seq": 0}, "127.0.0.1:1",
    f"dn: {PARENT}\nchangetype: modify\nreplace: ou\nou: x\n-\n",
    f"dn: uid=fuzz,{PARENT}\nchangetype: add\nobjectClass: person\n",
])


def _fuzz_request_table(store, kind, examples):
    """Arbitrary JSON in every declared field of every op, against a
    server or a door: each request gets ``ok`` or a typed error, and the
    same connection answers a ``ping`` afterwards."""
    from repro.server.protocol import REQUESTS

    loop = asyncio.new_event_loop()
    server, member, stop = loop.run_until_complete(_member(kind, store))
    ids = iter(range(1, 1 << 30))

    async def ask(raw, message):
        """The reply to ``message``: a subscribed connection also
        carries pushed ``notify``/``repl`` frames, which have no id."""
        reply = await raw.ask(message)
        while reply is not None and reply.get("id") != message["id"]:
            reply = await asyncio.wait_for(read_frame(raw.reader), 10.0)
        return reply

    async def one(raw, op, fields):
        reply = await ask(raw, {**fields, "op": op, "id": next(ids)})
        assert reply is not None, (op, fields, "connection closed")
        # ``internal_error`` is what a request nobody anticipated gets;
        # every other code is a typed answer.
        assert reply["ok"] or reply["error"] != "internal_error", (op, fields, reply)
        if op == "unbind":  # the one request that ends the session
            await raw.close()
            return await _Raw.connect(member.port)
        assert (await ask(raw, {"op": "ping", "id": next(ids)}))["ok"]
        return raw

    def fuzz(op, declared):
        """One connection takes every example of an op."""
        held = [loop.run_until_complete(_Raw.connect(member.port))]

        @settings(max_examples=examples, deadline=None, database=None)
        @given(st.fixed_dictionaries(
            {}, optional={name: _JSON | _PLAUSIBLE for name in declared}
        ))
        def example(fields):
            held[0] = loop.run_until_complete(one(held[0], op, fields))

        try:
            example()
        finally:
            loop.run_until_complete(held[0].close())

    try:
        for op, declared in REQUESTS.items():
            if op in member.OPS:
                fuzz(op, declared)
    finally:
        loop.run_until_complete(stop())
        loop.close()


@pytest.mark.parametrize("kind", ["server", "door"])
def test_request_table_fuzz(plain_store, kind):
    _fuzz_request_table(plain_store, kind, examples=25)


@pytest.mark.slow
@pytest.mark.parametrize("kind", ["server", "door"])
def test_request_table_fuzz_slow(plain_store, kind):
    _fuzz_request_table(plain_store, kind, examples=200)


class TestReplicatePositionValidation:
    @pytest.mark.parametrize(
        "fields",
        [
            {"generation": True, "seq": 0},
            {"generation": 0, "seq": True},
            {"generation": False, "seq": False},
            {"generation": -1, "seq": 0},
            {"generation": 0, "seq": "7"},
        ],
    )
    def test_bool_and_junk_positions_refused(self, plain_store, fields):
        """Regression: ``isinstance(True, int)`` holds, so a boolean
        ``generation``/``seq`` used to attach a follower at position
        1/0 instead of being refused like every other non-integer."""

        async def run():
            server = await _serve(plain_store)
            try:
                client = await _client(server, dn="cn=replica")
                with pytest.raises(ServerError) as excinfo:
                    await client.request("replicate", **fields)
                assert excinfo.value.code == "bad_request"
                await client.close()
            finally:
                await server.stop()

        asyncio.run(run())

    def test_sharded_subscribe_validates_shard_positions(self, sharded_store):
        async def run():
            server = await _serve(sharded_store)
            try:
                client = await _client(server, dn="cn=replica")
                for shards in (
                    {"att": [True, 0], "labs": [0, 0]},
                    {"att": [0], "labs": [0, 0]},
                    {"att": [0, -2], "labs": [0, 0]},
                    "not-a-map",
                ):
                    with pytest.raises(ServerError) as excinfo:
                        await client.request("replicate", shards=shards)
                    assert excinfo.value.code == "bad_request"
                await client.close()
            finally:
                await server.stop()

        asyncio.run(run())


class TestCommitFeedDropCounter:
    def test_publishes_coalesce_and_count(self):
        """The bounded notify cell: unconsumed publishes overwrite the
        cell and are *counted*; the next consume reports the fold."""
        from repro.server.server import _CommitFeed

        async def run():
            feed = _CommitFeed(0)
            feed.publish(1)
            feed.publish(2)
            feed.publish(3)
            seq, dropped = await feed.next()
            assert (seq, dropped) == (3, 2)
            # counter resets once consumed
            feed.publish(4)
            seq, dropped = await feed.next()
            assert (seq, dropped) == (4, 0)

        asyncio.run(run())

    def test_wake_without_commit_drops_nothing(self):
        from repro.server.server import _CommitFeed

        async def run():
            feed = _CommitFeed(7)
            feed.wake()
            seq, dropped = await feed.next()
            assert (seq, dropped) == (7, 0)

        asyncio.run(run())


class TestConcurrentClients:
    """The acceptance gate: N async clients searching while one writer
    commits — every response reflects a committed frontier and no
    client ever observes in-doubt 2PC state."""

    CLIENTS = 8
    WRITES = 12

    def test_readers_see_only_committed_prefixes(self, plain_store):
        async def run():
            server = await _serve(plain_store)
            try:
                writer = await _client(server, dn="cn=writer")
                done = asyncio.Event()

                async def write_stream():
                    for index in range(self.WRITES):
                        spec = _person(index)
                        response = await writer.add(
                            spec["dn"], spec["classes"], spec["attributes"]
                        )
                        assert response["applied"] is True
                    done.set()

                observations = []

                async def read_stream(n):
                    client = await _client(server, dn=f"cn=reader{n}")
                    while not done.is_set():
                        response = await client.search(filter="(uid=w*)")
                        observations.append(
                            (
                                response["position"]["seq"],
                                sorted(
                                    e["attributes"]["uid"][0]
                                    for e in response["entries"]
                                ),
                            )
                        )
                        await asyncio.sleep(0)
                    await client.close()

                await asyncio.gather(
                    write_stream(),
                    *(read_stream(n) for n in range(self.CLIENTS)),
                )
                await writer.close()
            finally:
                await server.stop()

            assert observations
            for seq, uids in observations:
                # The writer inserts w0, w1, ... one commit each: a
                # committed frontier at seq k shows exactly the first
                # k inserts — anything else is a torn or uncommitted
                # view leaking out.
                assert uids == [f"w{i}" for i in sorted(range(seq), key=str)]

        asyncio.run(run())

    def test_no_client_observes_in_doubt_2pc_state(self, sharded_store):
        async def run():
            server = await _serve(sharded_store)
            try:
                writer = await _client(server, dn="cn=writer")
                done = asyncio.Event()

                async def write_stream():
                    # Every transaction spans both shards: one entry at
                    # the root shard, one below the nested cut — the
                    # 2PC path, every time.
                    for index in range(self.WRITES):
                        response = await writer.txn(_spanning_changes(index))
                        assert response["applied"] is True
                    done.set()

                torn = []

                async def read_stream(n):
                    client = await _client(server, dn=f"cn=reader{n}")
                    while not done.is_set():
                        response = await client.search(
                            filter="(objectClass=person)"
                        )
                        uids = {
                            e["attributes"]["uid"][0]
                            for e in response["entries"]
                        }
                        for index in range(self.WRITES):
                            a, b = f"a{index}", f"b{index}"
                            if (a in uids) != (b in uids):
                                torn.append((n, index, a in uids,
                                             response['position'],
                                             sorted(uids)))
                        await asyncio.sleep(0)
                    await client.close()

                await asyncio.gather(
                    write_stream(),
                    *(read_stream(n) for n in range(self.CLIENTS)),
                )
                await writer.close()
            finally:
                await server.stop()

            # A spanning transaction is atomic: no reader may ever see
            # one half of a prepared-but-undecided pair.
            assert torn == []

        asyncio.run(run())


class TestReplicaSyncErrors:
    def test_schema_mismatch_is_reported_not_swallowed(
        self, plain_store, tmp_path, capsys
    ):
        """A replica started under a different schema used to bind,
        answer ``position`` with ``(0, 0)`` for ever and say nothing:
        the sync loop swallowed every exception.  Now the first failed
        attempt is printed once and carried in the ``position`` reply,
        which the front door's ``topology`` passes on."""
        from repro.server import FrontDoor

        _, _, registry = plain_store

        async def run():
            primary = await _serve(plain_store)
            upstream = f"127.0.0.1:{primary.port}"
            replica = DirectoryServer(
                str(tmp_path / "replica"), whitepages_schema(extras=True),
                registry, port=0, replica_of=upstream,
            )
            await replica.start()
            door = FrontDoor(
                upstream, [f"127.0.0.1:{replica.port}"], probe_interval=0.05
            )
            await door.start()
            try:
                probe = await _client(replica, dn=None)
                deadline = asyncio.get_event_loop().time() + 5.0
                while "sync_error" not in (reply := await probe.position()):
                    assert asyncio.get_event_loop().time() < deadline, reply
                    await asyncio.sleep(0.02)
                assert "schema fingerprint mismatch" in reply["sync_error"]
                assert reply["position"] == {"generation": 0, "seq": 0}
                await probe.close()
                await asyncio.sleep(0.5)  # two more retries, same error
                via_door = await DirectoryClient.connect("127.0.0.1", door.port)
                topology = await via_door.request("topology")
                assert "schema fingerprint mismatch" in \
                    topology["replicas"][0]["sync_error"]
                assert "sync_error" not in topology["primary"]
                await via_door.close()
            finally:
                await door.stop(drain=False)
                await replica.stop(drain=False)
                await primary.stop(drain=False)

        asyncio.run(run())
        assert capsys.readouterr().err.count("cannot follow") == 1

    def test_corrupt_coordinator_log_is_reported_not_swallowed(
        self, sharded_store, tmp_path, capsys
    ):
        """A sharded primary whose coordinator log turned corrupt used
        to stall every follower in silence: the ship loop's poll
        swallowed the ``StoreError`` and the follower kept answering
        ``consistent``, no lag, no ``sync_error`` at its old cut.  Now
        the stream ends with an ``error`` message and the follower
        reports it, printed once, while it retries.  The damaged log is
        written over the old one — a new file, as a restore from a
        damaged copy leaves it — so even a follower that has read the
        log up to its end reads it again from the start."""
        path, schema, registry = sharded_store

        async def run():
            primary = await _serve(sharded_store)
            replica = await _replica_of(primary, tmp_path, schema, registry)
            try:
                writer, probe = await _client(primary), await _client(replica)
                for index in (1, 2):
                    head = (await writer.txn(_spanning_changes(index)))["position"]
                assert head == {"att": [1, 4], "labs": [1, 4]}
                await _caught_up(probe, head)
                log = os.path.join(path, TXLOG_FILE)
                with open(log, "rb") as fh:
                    data = bytearray(fh.read())
                data[data.index(b"\n") + 3] ^= 0x01  # inside the first payload
                with open(log + ".damaged", "wb") as fh:
                    fh.write(data)
                os.replace(log + ".damaged", log)
                third = (await writer.txn(_spanning_changes(3)))["position"]
                assert third == {"att": [1, 6], "labs": [1, 6]}
                deadline = asyncio.get_event_loop().time() + 5.0
                while "sync_error" not in (reply := await probe.position()):
                    assert asyncio.get_event_loop().time() < deadline, reply
                    await asyncio.sleep(0.02)
                assert "coordinator log" in reply["sync_error"]
                assert "is corrupt at byte 0" in reply["sync_error"]
                assert reply["position"] == head
                await asyncio.sleep(0.5)  # two more retries, same error
                await writer.close()
                await probe.close()
            finally:
                await replica.stop(drain=False)
                await primary.stop(drain=False)

        asyncio.run(run())
        assert capsys.readouterr().err.count("cannot follow") == 1

    def test_reattach_rejects_unparseable_upstream(self, plain_store, tmp_path):
        """``":" in upstream`` used to be the whole check: ``"a:b"``
        answered ``ok``, after which the replica had abandoned its
        upstream and reported ``sync_error: ValueError`` for ever.  The
        refusal now comes before the sync loop is touched."""
        _, schema, registry = plain_store

        async def run():
            primary = await _serve(plain_store)
            upstream = f"127.0.0.1:{primary.port}"
            replica = await _replica_of(primary, tmp_path, schema, registry)
            try:
                raw = await _Raw.connect(replica.port)
                for index, bad in enumerate(
                    ["a:b", ":7", "h:", "h:-1", "h:70000", 7, None, ["h:1"]]
                ):
                    reply = await raw.ask(
                        {"op": "reattach", "id": index, "upstream": bad}
                    )
                    assert reply.get("error") == "bad_request", (bad, reply)
                await raw.close()
                writer, probe = await _client(primary), await _client(replica)
                head = (await writer.add(**_person(0)))["position"]
                reply = await _caught_up(probe, head)
                assert reply["upstream"] == upstream
                assert "sync_error" not in reply
                await writer.close()
                await probe.close()
            finally:
                await replica.stop(drain=False)
                await primary.stop(drain=False)

        asyncio.run(run())

    def test_replica_reconnects_to_an_upstream_back_at_the_same_address(
        self, plain_store, tmp_path
    ):
        """The upstream dies and returns on its old port.  The replica's
        sync loop used to wait for ever on a stream queue its client's
        ended receive loop no longer fed, so the reconnect-with-backoff
        never ran; the waiter is woken with ``ConnectionError`` now."""
        path, schema, registry = plain_store

        async def run():
            primary = await _serve(plain_store)
            port = primary.port
            replica = await _replica_of(primary, tmp_path, schema, registry)
            try:
                probe = await _client(replica)
                await _caught_up(probe, {"generation": 1, "seq": 0})
                await primary.stop(drain=False)
                primary = DirectoryServer(path, schema, registry, port=port)
                await primary.start()
                writer = await _client(primary)
                head = (await writer.add(**_person(0)))["position"]
                reply = await _caught_up(probe, head)
                assert "sync_error" not in reply
                await writer.close()
                await probe.close()
            finally:
                await replica.stop(drain=False)
                await primary.stop(drain=False)

        asyncio.run(run())

    def test_two_concurrent_promotes_make_one_primary(self, plain_store, tmp_path):
        """Two ``promote`` requests race to a caught-up replica: the one
        that takes the write lock first promotes it, the other finds a
        primary once it holds the lock and is refused like any promote
        of a primary — not run against an applier that is gone."""
        _, schema, registry = plain_store

        async def run():
            primary = await _serve(plain_store)
            replica = await _replica_of(primary, tmp_path, schema, registry)
            try:
                writer = await _client(primary)
                head = (await writer.add(**_person(0)))["position"]
                clients = [await _client(replica, dn=f"cn=elector{i}") for i in (0, 1)]
                await _caught_up(clients[0], head)
                replies = await asyncio.gather(
                    *(client.promote() for client in clients),
                    return_exceptions=True,
                )
                promoted = [r for r in replies if isinstance(r, dict)]
                refused = [r for r in replies if isinstance(r, ServerError)]
                assert [r["role"] for r in promoted] == ["primary"], replies
                assert [r.code for r in refused] == ["bad_request"], replies
                assert "already a primary" in str(refused[0])
                assert (await clients[1].position())["role"] == "primary"
                for client in (writer, *clients):
                    await client.close()
            finally:
                await replica.stop(drain=False)
                await primary.stop(drain=False)

        asyncio.run(run())

    @pytest.mark.parametrize("kind", ["plain", "sharded"])
    def test_promoting_an_unbootstrapped_replica_is_refused(
        self, kind, request, tmp_path
    ):
        """A replica nothing was replicated into yet — it cannot know
        its kind, let alone promote — refuses ``promote`` with
        ``store_error`` like every other unfit candidate, and keeps
        following: reattached to a live upstream it catches up."""
        store = request.getfixturevalue(f"{kind}_store")
        _, schema, registry = store

        async def run():
            replica = DirectoryServer(
                str(tmp_path / "replica"), schema, registry,
                port=0, replica_of="127.0.0.1:1",  # nobody listens there
            )
            await replica.start()
            primary = await _serve(store)
            try:
                client = await _client(replica)
                with pytest.raises(ServerError) as refused:
                    await client.promote()
                assert refused.value.code == "store_error"
                assert "nothing has been replicated" in str(refused.value)
                reply = await client.position()
                assert reply["role"] == "replica"
                assert reply["position"] == {"generation": 0, "seq": 0}
                upstream = await _client(primary)
                head = (await upstream.position())["position"]
                await upstream.close()
                await client.reattach(f"127.0.0.1:{primary.port}")
                reply = await _caught_up(client, head)
                assert reply["role"] == "replica"
                await client.close()
            finally:
                await replica.stop(drain=False)
                await primary.stop(drain=False)

        asyncio.run(run())


class TestShardedReplicaServing:
    """A ``--replica-of`` server over a sharded store: its connection
    views must follow the shipped 2PC decisions (a replica has no
    coordinator log to pin a refresh to) and must not outlive a
    promotion (a promoted server writes 2PC frames itself)."""

    @staticmethod
    async def _search_at(client, position, timeout=15.0):
        """Search until the connection's view reports ``position`` —
        the replica applies a shipped cut shortly after the primary's
        commit, and answers ``store_error`` before its first one."""
        deadline = asyncio.get_event_loop().time() + timeout
        while True:
            try:
                response = await client.search(filter="(objectClass=person)")
                if response["position"] == position:
                    return response
            except ServerError as exc:
                assert exc.code == "store_error"
                response = exc
            if asyncio.get_event_loop().time() > deadline:
                raise AssertionError(
                    f"view never reached {position}: last answer {response}"
                )
            await asyncio.sleep(0.05)

    def test_open_connection_follows_spanning_txns(
        self, sharded_store, tmp_path
    ):
        """A connection opened *before* a spanning transaction sees it
        afterwards and reports the primary's position.  Its view used
        to freeze in front of the first shipped prepare/decide pair."""
        _, schema, registry = sharded_store

        async def run():
            primary = await _serve(sharded_store)
            replica = await _replica_of(
                primary, tmp_path, schema, registry
            )
            try:
                writer = await _client(primary, dn="cn=writer")
                reader = await _client(replica, dn="cn=reader")
                base = (await writer.search(filter="(objectClass=person)"))
                before = await self._search_at(reader, base["position"])
                assert len(before["entries"]) == 3
                for index in (1, 2):  # the second pair is followed too
                    applied = await writer.txn(_spanning_changes(index))
                    assert applied["applied"] is True
                    after = await self._search_at(reader, applied["position"])
                    uids = {e["attributes"]["uid"][0] for e in after["entries"]}
                    assert {f"a{index}", f"b{index}"} <= uids
                    assert len(after["entries"]) == 3 + 2 * index
                await reader.close()
                await writer.close()
            finally:
                await replica.stop(drain=False)
                await primary.stop(drain=False)

        asyncio.run(run())

    def test_connection_open_across_promotion_sees_spanning_commits_whole(
        self, sharded_store, tmp_path
    ):
        """A view opened while following is replaced by the promotion:
        the same connection then reads the promoted server's own
        spanning commits — both halves, at the write's position —
        through a view pinned to the coordinator log."""
        _, schema, registry = sharded_store

        async def run():
            primary = await _serve(sharded_store)
            replica = await _replica_of(
                primary, tmp_path, schema, registry
            )
            try:
                writer = await _client(primary, dn="cn=writer")
                client = await _client(replica, dn="cn=survivor")
                base = (await writer.search(filter="(objectClass=person)"))
                await self._search_at(client, base["position"])
                applied = await writer.txn(_spanning_changes(1))
                await self._search_at(client, applied["position"])
                follower_view = next(
                    c.view for c in replica._connections.values()
                    if c.bound_dn == "cn=survivor"
                )
                await writer.close()
                await primary.stop(drain=False)

                promoted = await client.promote()
                assert promoted["role"] == "primary"
                for index in (2, 3):
                    applied = await client.txn(_spanning_changes(index))
                    assert applied["applied"] is True
                    found = await client.search(filter="(objectClass=person)")
                    assert found["position"] == applied["position"]
                    uids = {e["attributes"]["uid"][0] for e in found["entries"]}
                    assert {f"a{index}", f"b{index}"} <= uids
                    assert len(found["entries"]) == 3 + 2 * index
                primary_view = next(
                    c.view for c in replica._connections.values()
                    if c.bound_dn == "cn=survivor"
                )
                # the follower-mode view did not outlive the promotion
                assert primary_view is not follower_view
                with pytest.raises(StoreError, match="closed"):
                    follower_view.refresh()
                await client.close()
            finally:
                await replica.stop(drain=False)
                await primary.stop(drain=False)

        asyncio.run(run())


# ----------------------------------------------------------------------
# searches answered on the event loop
# ----------------------------------------------------------------------
FOUR_SHARDS = {f"s{i}": f"o=org{i}" for i in range(4)}
#: ``u1`` … ``u{PERSONS}`` are persons of the generated directory.
PERSONS = 40


def _white_pages(kind, tmp_path):
    """A generated white-pages store, plain or on four shards."""
    schema, registry = whitepages_schema(), whitepages_registry()
    instance = generate_whitepages(
        orgs=4, units_per_level=2, depth=1, persons_per_unit=6, seed=3,
        registry=registry,
    )
    path = str(tmp_path / kind)
    if kind == "plain":
        DirectoryStore.create(path, schema, instance, registry).close()
    else:
        ShardedStore.create(path, schema, FOUR_SHARDS, instance, registry).close()
    return path, schema, registry


class _CountingExecutor(concurrent.futures.ThreadPoolExecutor):
    """An executor that counts the jobs handed to it."""

    def __init__(self, max_workers=4) -> None:
        super().__init__(max_workers=max_workers)
        self.jobs = 0

    def submit(self, fn, /, *args, **kwargs):
        self.jobs += 1
        return super().submit(fn, *args, **kwargs)


def _count_jobs() -> _CountingExecutor:
    executor = _CountingExecutor()
    asyncio.get_running_loop().set_default_executor(executor)
    return executor


def _count_writer_jobs(server) -> _CountingExecutor:
    """Swap a started server's (still idle) writer thread for a counting
    one."""
    server._writer_pool.shutdown()
    server._writer_pool = _CountingExecutor(max_workers=1)
    return server._writer_pool


def _view_of(server, dn):
    return next(c.view for c in server._connections.values() if c.bound_dn == dn)


def _view_work(view):
    """The counters of what a view rebuilt: renumbers of its instance,
    composite stitches, shard-view bootstraps (none for a plain
    primary's served writer, which never bootstraps)."""
    if hasattr(view, "shard_map"):
        readers = [view.shard_reader(name) for name in view.shard_map.names()]
    else:
        readers = [view] if isinstance(view, StoreReader) else []
    return (
        view.instance.renumbers,
        getattr(view, "stitches", None),
        [reader.bootstraps for reader in readers],
    )


async def _lookups(client, count=50):
    for n in range(count):
        uid = f"u{1 + n % PERSONS}"
        found = await client.search(filter=f"(uid={uid})")
        assert [e["attributes"]["uid"] for e in found["entries"]] == [[uid]]


async def _searched_to(client, position, timeout=15.0):
    """Search until the connection's view reports ``position`` (a
    replica answers ``store_error`` before its first cut)."""
    deadline = asyncio.get_event_loop().time() + timeout
    while True:
        try:
            if (await client.search(filter="(uid=u1)"))["position"] == position:
                return
        except ServerError as exc:
            assert exc.code == "store_error"
        assert asyncio.get_event_loop().time() < deadline
        await asyncio.sleep(0.02)


class TestSearchOnTheLoop:
    """Every read is answered on the event loop, whatever its plan — no
    executor job, and on an idle view no refresh and nothing rebuilt —
    counted by the jobs a counting default executor sees.  A commit
    runs on the loop too, no job on the writer thread, and the read
    after it refreshes the view on the loop.  A plain primary serves
    its writer: even its first read takes no job."""

    @pytest.mark.parametrize("kind", ["plain", "sharded"])
    def test_idle_lookups_and_a_commit_take_no_job(self, kind, tmp_path):
        store = _white_pages(kind, tmp_path)

        async def run():
            executor = _count_jobs()
            server = await _serve(store)
            writes = _count_writer_jobs(server)
            try:
                client = await _client(server, dn="cn=reader")
                opened = executor.jobs
                await _lookups(client, 1)  # a sharded view opens off the loop
                assert executor.jobs - opened == (0 if kind == "plain" else 1)
                view = _view_of(server, "cn=reader")
                assert (view is server.store) == (kind == "plain")
                work, jobs = _view_work(view), executor.jobs
                await _lookups(client)
                assert executor.jobs == jobs
                assert _view_work(view) == work
                writer = await _client(server, dn="cn=writer")
                applied = await writer.add(
                    "uid=fresh,o=org1", ["person", "top"],
                    {"uid": ["fresh"], "name": ["fresh person"]},
                )
                assert applied["applied"]
                assert (executor.jobs, writes.jobs) == (jobs, 0)
                found = await client.search(filter="(uid=fresh)")
                assert executor.jobs == jobs  # refreshed on the loop
                assert len(found["entries"]) == 1
                assert found["position"] == applied["position"]
                await _lookups(client)
                assert (executor.jobs, writes.jobs) == (jobs, 0)
                await writer.close()
                await client.close()
            finally:
                await server.stop()

        asyncio.run(run())

    def test_idle_lookups_on_a_replica_cohort_take_no_job(self, tmp_path):
        store = _white_pages("sharded", tmp_path)
        _, schema, registry = store

        async def run():
            executor = _count_jobs()
            primary = await _serve(store)
            replica = await _replica_of(primary, tmp_path, schema, registry)
            try:
                probe = await _client(primary)
                head = (await probe.position())["position"]
                client = await _client(replica, dn="cn=reader")
                await _searched_to(client, head)
                view = _view_of(replica, "cn=reader")
                work, jobs = _view_work(view), executor.jobs
                await _lookups(client)
                assert executor.jobs == jobs
                assert _view_work(view) == work
                await probe.close()
                await client.close()
            finally:
                await replica.stop(drain=False)
                await primary.stop(drain=False)

        asyncio.run(run())

    @pytest.mark.parametrize("kind", ["plain", "sharded"])
    def test_a_scan_and_a_check_take_no_job(self, kind, tmp_path):
        """After a commit, an unfiltered scan (which refreshes the view)
        and a full check are each answered on the loop."""
        store = _white_pages(kind, tmp_path)

        async def run():
            executor = _count_jobs()
            server = await _serve(store)
            try:
                client = await _client(server)
                await _lookups(client, 1)
                applied = await client.add(
                    "uid=fresh,o=org1", ["person", "top"],
                    {"uid": ["fresh"], "name": ["fresh person"]},
                )
                assert applied["applied"]
                jobs = executor.jobs
                everything = await client.search()
                assert executor.jobs == jobs
                assert everything["position"] == applied["position"]
                assert len(everything["entries"]) == len(server.store.instance)
                assert (await client.check())["legal"]
                assert executor.jobs == jobs
                await client.close()
            finally:
                await server.stop()

        asyncio.run(run())


# ----------------------------------------------------------------------
# readiness is a memory fact: no lookup asks the disk where its copy is
# ----------------------------------------------------------------------
#: Every fault point a two-shard spanning commit of ``NESTED_BASES``
#: crosses, in order.
SPANNING_COMMIT_POINTS = [
    "2pc:begin", "2pc:prepared:att", "2pc:prepared:labs", "2pc:decision",
    "2pc:committed", "2pc:decided:att", "2pc:decided:labs", "2pc:complete",
]


class _HoldAfterAppend(StoreIO):
    """An applier's I/O: once armed, holds the next journal append just
    after its fsync — the message staged, not landed — until released."""

    def __init__(self):
        self.armed = False
        self.reached = threading.Event()
        self.release = threading.Event()

    def append_bytes(self, path, data):
        super().append_bytes(path, data)
        if self.armed and os.path.basename(path) == JOURNAL_FILE:
            self.armed = False
            self.reached.set()
            assert self.release.wait(30), "never released"


class _FileSystemCalls:
    """Counts snapshot-header reads and ``os.stat`` calls (which
    ``os.path.getsize`` makes too) from any thread."""

    def __init__(self, monkeypatch):
        self.calls = 0
        read_head, stat = StoreIO.read_head, os.stat

        def counted_read_head(io, path):
            self.calls += 1
            return read_head(io, path)

        def counted_stat(*args, **kwargs):
            self.calls += 1
            return stat(*args, **kwargs)

        monkeypatch.setattr(StoreIO, "read_head", counted_read_head)
        monkeypatch.setattr(os, "stat", counted_stat)


async def _settled_jobs(executor):
    """The job count once the default executor has stopped taking jobs
    (a primary's replication loop polls once more after it ships)."""
    jobs = -1
    while jobs != executor.jobs:
        jobs = executor.jobs
        await asyncio.sleep(0.1)
    return jobs


class TestReadinessInMemory:
    """Whether a search may share the served copy is decided from what
    the member holds in memory: the copy is settled and numbered, and a
    primary's stands at the frontier its writer last published.  No
    file is read or stat'ed to decide it, and a replica whose applier
    has appended a message but not landed it still answers on the loop,
    at the landed position."""

    @pytest.mark.parametrize("kind", ["plain", "sharded"])
    def test_a_replica_answers_on_the_loop_while_its_applier_stages(
        self, kind, tmp_path, monkeypatch
    ):
        import repro.server.server as server_module

        store = _white_pages(kind, tmp_path)
        _, schema, registry = store
        io = _HoldAfterAppend()
        open_replica = server_module.open_replica
        monkeypatch.setattr(
            server_module, "open_replica",
            lambda *args, **options: open_replica(*args, io=io, **options),
        )

        async def run():
            executor = _count_jobs()
            primary = await _serve(store)
            replica = await _replica_of(primary, tmp_path, schema, registry)
            try:
                writer = await _client(primary, dn="cn=writer")
                head = (await writer.position())["position"]
                client = await _client(replica, dn="cn=reader")
                await _searched_to(client, head)
                io.armed = True
                applied = await writer.add(
                    "uid=fresh,o=org1", ["person", "top"],
                    {"uid": ["fresh"], "name": ["fresh person"]},
                )
                assert applied["applied"]
                loop = asyncio.get_running_loop()
                assert await loop.run_in_executor(None, io.reached.wait, 10)
                jobs = await _settled_jobs(executor)
                for n in range(50):
                    uid = f"u{1 + n % PERSONS}"
                    found = await client.search(filter=f"(uid={uid})")
                    assert [e["attributes"]["uid"] for e in found["entries"]] \
                        == [[uid]]
                    assert found["position"] == head
                assert executor.jobs == jobs
                io.release.set()
                await _searched_to(client, applied["position"])
                found = await client.search(filter="(uid=fresh)")
                assert len(found["entries"]) == 1
                await writer.close()
                await client.close()
            finally:
                io.release.set()
                await replica.stop(drain=False)
                await primary.stop(drain=False)

        asyncio.run(run())

    @pytest.mark.parametrize("member", ["primary", "replica"])
    @pytest.mark.parametrize("kind", ["plain", "sharded"])
    def test_a_ready_lookup_makes_no_file_system_call(
        self, kind, member, tmp_path, monkeypatch
    ):
        store = _white_pages(kind, tmp_path)
        _, schema, registry = store

        async def run():
            primary = await _serve(store)
            replica = None
            try:
                writer = await _client(primary, dn="cn=writer")
                applied = await writer.add(
                    "uid=fresh,o=org1", ["person", "top"],
                    {"uid": ["fresh"], "name": ["fresh person"]},
                )
                served = primary
                if member == "replica":
                    replica = served = await _replica_of(
                        primary, tmp_path, schema, registry
                    )
                client = await _client(served, dn="cn=reader")
                await _searched_to(client, applied["position"])
                await _lookups(client, 1)
                counted = _FileSystemCalls(monkeypatch)
                await _lookups(client)
                assert counted.calls == 0
                monkeypatch.undo()
                await writer.close()
                await client.close()
            finally:
                if replica is not None:
                    await replica.stop(drain=False)
                await primary.stop(drain=False)

        asyncio.run(run())

    @pytest.mark.parametrize("opened", ["warm", "cold"])
    @pytest.mark.parametrize("point", SPANNING_COMMIT_POINTS)
    def test_a_held_spanning_commit_is_read_whole(
        self, point, opened, sharded_store, monkeypatch
    ):
        """A spanning commit held at each of its fault points.  The
        commit runs on the loop, so no search of the primary is answered
        while it is held: a view opened before it ("warm") is untouched
        at the held point, and the view a first search opens on a thread
        meanwhile ("cold"), which reads the disk mid-commit, shows both
        halves or neither.  Either way the search after the commit is
        answered at the write's position and shows the write whole."""
        loop_thread = threading.get_ident()
        reached, opened_view = threading.Event(), threading.Event()
        seen = {}

        def whole(instance):
            halves = (
                instance.find("uid=a0,o=att") is not None,
                instance.find(f"uid=b0,{PARENT}") is not None,
            )
            assert halves[0] == halves[1], (point, halves)
            return halves[0]

        class HoldAtPoint(StoreIO):
            def fault_point(self, name):
                if name != point:
                    return
                seen["thread"] = threading.get_ident()
                if opened == "warm":
                    view = server._view
                    seen["held"] = (view.position().to_wire(), whole(view.instance))
                else:
                    reached.set()
                    assert opened_view.wait(10), "the view never opened"

        open_view = DirectoryServer._open_view

        def open_mid_commit(self):
            assert reached.wait(10), "the commit never reached the point"
            view = open_view(self)
            seen["opened"] = whole(view.instance)
            opened_view.set()
            return view

        import repro.server.server as server_module

        monkeypatch.setattr(
            server_module, "open_store",
            lambda path, schema, registry: ShardedStore.open(
                path, schema, registry, io=HoldAtPoint()
            ),
        )
        monkeypatch.setattr(DirectoryServer, "_open_view", open_mid_commit)
        server = None

        async def run():
            nonlocal server
            executor = _count_jobs()
            server = await _serve(sharded_store)
            try:
                writer = await _client(server, dn="cn=writer")
                reader = await _client(server)
                before = (await reader.position())["position"]
                if opened == "warm":
                    reached.set()  # the first search opens the view now
                    await reader.search(filter="(uid=*)")
                    assert not whole(server._view.instance)
                    jobs = executor.jobs
                else:
                    search = asyncio.ensure_future(reader.search(filter="(uid=*)"))
                    while server._view_opening is None:
                        await asyncio.sleep(0.01)
                applied = await writer.txn(_spanning_changes(0))
                assert applied["applied"]
                assert seen["thread"] == loop_thread
                if opened == "warm":
                    assert seen["held"] == (before, False)
                    found = await reader.search(filter="(uid=*)")
                    assert executor.jobs == jobs  # refreshed on the loop
                else:
                    assert "opened" in seen
                    found = await search
                assert found["position"] == applied["position"]
                assert whole(server._view.instance)
                assert (await reader.check())["legal"]
                await writer.close()
                await reader.close()
            finally:
                reached.set()
                opened_view.set()
                await server.stop()

        asyncio.run(run())


class _FailsOnce(StoreIO):
    """A writer's I/O: once armed, fails the next journal append."""

    def __init__(self):
        self.armed = False

    def append_bytes(self, path, data):
        if self.armed:
            self.armed = False
            raise OSError(errno.EIO, "injected append failure")
        super().append_bytes(path, data)


class TestPoisonedWriter:
    def test_a_poisoned_primary_refuses_reads_and_answers_position(
        self, plain_store, monkeypatch
    ):
        """A failed append leaves the plain primary's writer — its served
        copy — holding a change its journal does not: the write answers
        ``store_error``, and so does every search and check after it, on
        any connection, naming the poison; ``position`` still answers,
        at the last acknowledged frontier.  No reply carries the entry
        the failed write staged."""
        import repro.server.server as server_module

        io = _FailsOnce()
        monkeypatch.setattr(
            server_module, "open_store",
            lambda path, schema, registry: DirectoryStore.open(
                path, schema, registry, io=io
            ),
        )
        lost = _person(2)

        async def run():
            server = await _serve(plain_store)
            replies = []
            try:
                client = await _client(server)
                replies.append(await client.add(**_person(1)))
                replies.append(await client.search())
                assert (await client.check())["legal"]
                head = (await client.position())["position"]
                io.armed = True
                with pytest.raises(ServerError) as failed:
                    await client.add(**lost)
                assert failed.value.code == "store_error"
                late = await _client(server)
                for connection in (client, late):
                    for read in (
                        connection.search,
                        lambda: connection.search(filter="(uid=w2)"),
                        connection.check,
                    ):
                        with pytest.raises(ServerError) as refused:
                            replies.append(await read())
                        assert refused.value.code == "store_error"
                        assert "poisoned" in refused.value.message
                    position = await connection.position()
                    assert position["position"] == head
                    replies.append(position)
                await late.close()
                await client.close()
            finally:
                await server.stop()
            return replies

        replies = asyncio.run(run())
        assert lost["dn"] not in json.dumps(replies)
        assert _person(1)["dn"] in json.dumps(replies)


class TestRelease:
    def test_a_kill_closes_the_store_after_its_held_append(
        self, plain_store, tmp_path, monkeypatch
    ):
        """A replica's stage that ``kill()`` cancels keeps running on the
        writer thread; the applier is closed behind it there, so the
        replica directory's advisory lock is not released while its
        journal append is held — and is released once it is done.  (A
        primary's write runs on the loop: a kill never finds one
        midway.)"""
        import repro.server.server as server_module

        _, schema, registry = plain_store
        io = _HoldAfterAppend()
        open_replica = server_module.open_replica
        monkeypatch.setattr(
            server_module, "open_replica",
            lambda *args, **options: open_replica(*args, io=io, **options),
        )

        def lock_is_free():
            try:
                handle = DirectoryStore._acquire_lock(str(tmp_path / "replica"))
            except StoreLockedError:
                return False
            DirectoryStore._release_lock(handle)
            return True

        async def run():
            primary = await _serve(plain_store)
            replica = await _replica_of(primary, tmp_path, schema, registry)
            try:
                writer = await _client(primary, dn="cn=writer")
                probe = await _client(replica, dn=None)
                await _caught_up(probe, (await writer.position())["position"])
                io.armed = True
                assert (await writer.add(**_person(1)))["applied"]
                loop = asyncio.get_running_loop()
                assert await loop.run_in_executor(None, io.reached.wait, 10)
                killing = asyncio.ensure_future(replica.kill())
                await asyncio.sleep(0.3)  # a kill closing at once is done by now
                assert not lock_is_free()
                io.release.set()
                await killing
                assert lock_is_free()
                await asyncio.gather(probe.close(), return_exceptions=True)
                await writer.close()
            finally:
                io.release.set()
                await primary.stop(drain=False)

        asyncio.run(run())


# ----------------------------------------------------------------------
# differential: answered on the loop ≡ answered on the executor ≡ a
# freshly opened view
# ----------------------------------------------------------------------
SCOPES = ["base", "one", "sub", "children"]
VOCABULARY = ["u1", "u7", "u33", "maria", "ari", "kim", "person", "orgUnit",
              "org2", "", 5]


def _expected(view, base, scope, filter, size_limit):
    """The reply a server owes, computed on an in-process view."""
    try:
        entries = view.search(
            base=base, scope=scope,
            filter=parse_filter(filter) if filter else None,
            size_limit=None if size_limit is None else size_limit + 1,
        )
    except FilterSyntaxError:
        return "filter_syntax"
    except QueryError:
        return "invalid"
    return {
        "entries": [_entry_payload(view.instance, e) for e in entries[:size_limit]],
        "truncated": size_limit is not None and len(entries) > size_limit,
        "position": view.position().to_wire(),
    }


def _requests(rng, instance, count=40):
    """Random filters over the four scopes, bases across the directory
    and size limits — plus root ``uid`` lookups, the planner's case."""
    dns = [instance.dn_string_of(e) for e in instance]
    bases = [None, *rng.sample(dns, 8)]
    requests = [
        dict(base=None, scope="sub", filter=f"(uid=u{n})", size_limit=None)
        for n in rng.sample(range(1, PERSONS + 1), 6)
    ]
    for _ in range(count):
        filt = _random_filter(rng, VOCABULARY, 2)
        requests.append(dict(
            base=rng.choice(bases), scope=rng.choice(SCOPES),
            filter=rng.choice([str(filt)] * 5 + [None]),
            size_limit=rng.choice([None, None, 1, 2, 5]),
        ))
    return requests


async def _answers_agree(client, reference, rng):
    """Send every request over the wire and compare each reply with the
    reference view's."""
    for request in _requests(rng, reference.instance):
        expected = _expected(reference, **request)
        try:
            reply = await client.search(**request)
            got = {key: reply[key] for key in ("entries", "truncated", "position")}
        except ServerError as exc:
            got = exc.code
        assert got == expected, request


class TestLoopEqualsExecutor:
    """Replies over the wire — every plan answered on the loop — equal a
    freshly opened view's in-process search, at open, idle, after a
    local commit, after a spanning 2PC, after a compaction and on a
    replica cohort."""

    @staticmethod
    async def _states(server, writer, kind):
        """Drive the store through its states; yields each one's name
        once the writer stands still."""
        yield "open"
        yield "idle"
        applied = await writer.add(
            "uid=local,o=org0", ["person", "top"],
            {"uid": ["local"], "name": ["local person"]},
        )
        assert applied["applied"]
        yield "local commit"
        if kind == "sharded":
            applied = await writer.txn(
                "dn: uid=span0,o=org1\nchangetype: add\n"
                "objectClass: person\nobjectClass: top\n"
                "uid: span0\nname: span zero\n\n"
                "dn: uid=span1,o=org3\nchangetype: add\n"
                "objectClass: person\nobjectClass: top\n"
                "uid: span1\nname: span one\n"
            )
            assert applied["applied"]
            yield "spanning 2PC"
        # on the loop, like every write of the primary's
        server.store.compact()
        yield "compaction"

    @pytest.mark.parametrize("kind", ["plain", "sharded"])
    def test_primary(self, kind, tmp_path):
        store = _white_pages(kind, tmp_path)
        path, schema, registry = store

        async def run():
            server = await _serve(store)
            rng = random.Random(kind)
            try:
                writer = await _client(server, dn="cn=writer")
                client = await _client(server)
                async for state in self._states(server, writer, kind):
                    with open_view(path, schema, registry) as reference:
                        await _answers_agree(client, reference, rng)
                # the compaction was read through a re-bootstrap
                renumbers, stitches, bootstraps = _view_work(
                    _view_of(server, "cn=test")
                )
                assert bootstraps == [2] * len(bootstraps)
                assert stitches in (None, 2)
                await writer.close()
                await client.close()
            finally:
                await server.stop()

        asyncio.run(run())

    def test_replica_cohort(self, tmp_path):
        """The same on a cohort following a sharded primary, whose
        served copy is the one its applier applies into: every reply
        equals the primary's own view at the head the cohort reached.
        And a cohort off its recorded cut refuses every connection —
        its one copy is whole only on a cut — until the cut is back."""
        store = _white_pages("sharded", tmp_path)
        path, schema, registry = store

        async def run():
            primary = await _serve(store)
            replica = await _replica_of(primary, tmp_path, schema, registry)
            rng = random.Random("cohort")
            try:
                writer = await _client(primary, dn="cn=writer")
                client = await _client(replica)
                async for state in self._states(primary, writer, "sharded"):
                    if state == "compaction":
                        # shipped with the next commit
                        assert (await writer.delete("uid=local,o=org0"))["applied"]
                    head = (await writer.position())["position"]
                    await _searched_to(client, head)
                    with open_view(path, schema, registry) as reference:
                        assert reference.position().to_wire() == head
                        await _answers_agree(client, reference, rng)
                # the fold swapped in member readers bootstrapped once from
                # the folded snapshots, and the copy stitched them again
                _, stitches, bootstraps = _view_work(_view_of(replica, "cn=test"))
                assert (stitches, bootstraps) == (2, [1] * len(FOUR_SHARDS))
                applier = replica._applier
                cut, applier._cut = applier._cut, None  # between cuts
                try:
                    late = await _client(replica)
                    for connection in (client, late):
                        with pytest.raises(ServerError) as refused:
                            await connection.search(filter="(uid=u1)")
                        assert refused.value.code == "store_error"
                    await late.close()
                finally:
                    applier._cut = cut
                with open_view(path, schema, registry) as reference:
                    await _answers_agree(client, reference, rng)
                await writer.close()
                await client.close()
            finally:
                await replica.stop(drain=False)
                await primary.stop(drain=False)

        asyncio.run(run())


#: org0's two units of the generated directory, the first not its
#: parent's last child, and each unit's persons.
UNIT = "ou=graphics-0.0,o=org0"
UNIT_PERSONS = [f"uid=u{n},{UNIT}" for n in range(1, 7)]
SIBLING = "ou=oss-0.1,o=org0"
SIBLING_PERSONS = [f"uid=u{n},{SIBLING}" for n in range(7, 13)]


def _deletes(*dns: str) -> str:
    return "".join(f"dn: {dn}\nchangetype: delete\n\n" for dn in dns)


class TestRejectedWritesEqualAFreshView:
    """A plain primary serves its writer, whose instance a rejected
    write changes and rolls back — a rejected subtree deletion grafts
    its subtree back among its siblings, and the indexes and path
    counts follow the undo — where a view only ever replays committed
    frames.  After each rejected write, replies over the wire equal a
    freshly opened view's, plain and sharded alike."""

    async def _rejected(self, writer):
        """Each rejected write in turn; yields its name once it is
        refused."""
        refused = await writer.add(
            f"uid=nested,{UNIT_PERSONS[0]}", ["person", "top"],
            {"uid": ["nested"], "name": ["under a person"]},
        )
        assert not refused["applied"] and refused["violations"]
        yield "add under a person"
        # the unit's persons are its first children: the unit would be
        # left with no person below it
        refused = await writer.txn(_deletes(*UNIT_PERSONS))
        assert not refused["applied"] and refused["violations"]
        yield "delete of a unit's persons"
        # both units, the first one not the last child: org0 would be
        # left with no unit
        refused = await writer.txn(_deletes(
            *UNIT_PERSONS, *SIBLING_PERSONS, UNIT, SIBLING,
        ))
        assert not refused["applied"] and refused["violations"]
        yield "delete of both units"
        refused = await writer.modify(
            f"dn: {UNIT_PERSONS[0]}\nchangetype: modify\ndelete: name\n-\n"
        )
        assert not refused["applied"]
        yield "modify dropping a required attribute"
        applied = await writer.delete(UNIT_PERSONS[0])
        assert applied["applied"]
        yield "a commit after the rejections"

    @pytest.mark.parametrize("kind", ["plain", "sharded"])
    def test_primary(self, kind, tmp_path):
        store = _white_pages(kind, tmp_path)
        path, schema, registry = store

        async def run():
            server = await _serve(store)
            rng = random.Random("rejected " + kind)
            try:
                writer = await _client(server, dn="cn=writer")
                client = await _client(server)
                await _lookups(client, 1)  # the served copy is open
                async for state in self._rejected(writer):
                    with open_view(path, schema, registry) as reference:
                        await _answers_agree(client, reference, rng)
                        checked = await client.check()
                        assert (checked["legal"], checked["entries"]) == (
                            reference.check().is_legal, len(reference.instance)
                        ), state
                await writer.close()
                await client.close()
            finally:
                await server.stop()

        asyncio.run(run())
