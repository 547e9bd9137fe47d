"""Asyncio client for the directory server.

Used by the test suite, the end-to-end benchmark's load generator and
the front door's backend pool; also the reference implementation of
the wire protocol's client side.  Requests
are matched to responses by ``id``; server-pushed ``notify`` frames
(which carry no ``id``) land in a queue consumed by
:meth:`DirectoryClient.next_notify` — so a follower ``await``\\ s a
commit instead of polling.  Replication stream messages (``op:
"repl"``, pushed after a :meth:`DirectoryClient.replicate` subscribe)
land in their own queue consumed by
:meth:`DirectoryClient.next_stream_message`;
:func:`follow_upstream` is the one loop that drives a follower applier
(:func:`repro.store.open_replica`) from it — a replica server, the
``replicate`` command and :func:`sync_replica` all run it.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Dict, Optional

from repro.server.protocol import read_frame, write_frame
from repro.store import Position, follow

__all__ = ["DirectoryClient", "ServerError", "follow_upstream", "sync_replica"]


#: Queued behind the last pushed frame when the receive loop ends, so a
#: task waiting for a ``notify`` or a stream message learns the
#: connection is gone instead of waiting on a queue nothing feeds.
_LOST = object()


class ServerError(Exception):
    """A response with ``ok: false``; carries the machine-readable code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class DirectoryClient:
    """One protocol connection.  All methods are coroutine-safe to call
    sequentially; pipelining is possible by issuing requests from
    separate tasks (responses are matched by id)."""

    def __init__(self, reader, writer) -> None:
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count(1)
        self._pending: Dict[int, asyncio.Future] = {}
        self._notifies: asyncio.Queue = asyncio.Queue()
        self._stream: asyncio.Queue = asyncio.Queue()
        self._closed = False
        self._receiver = asyncio.ensure_future(self._receive_loop())

    @classmethod
    async def connect(cls, host: str, port: int) -> "DirectoryClient":
        """Open a TCP connection to a running server."""
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def _receive_loop(self) -> None:
        try:
            while True:
                frame = await read_frame(self._reader)
                if frame is None:
                    break
                if frame.get("op") == "notify":
                    self._notifies.put_nowait(frame)
                    continue
                if frame.get("op") == "repl":
                    self._stream.put_nowait(frame)
                    continue
                future = self._pending.pop(frame.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(frame)
        except Exception as exc:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        ConnectionError(f"connection lost: {exc}")
                    )
            self._pending.clear()
        finally:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(ConnectionError("connection closed"))
            self._pending.clear()
            self._notifies.put_nowait(_LOST)
            self._stream.put_nowait(_LOST)

    @staticmethod
    async def _next_pushed(queue: asyncio.Queue, timeout: Optional[float]) -> dict:
        """The next frame the receive loop queued; ``ConnectionError``
        once it has ended and every frame before that was handed out."""
        if timeout is None:
            frame = await queue.get()
        else:
            frame = await asyncio.wait_for(queue.get(), timeout)
        if frame is _LOST:
            queue.put_nowait(_LOST)  # for every later waiter too
            raise ConnectionError("connection lost")
        return frame

    async def request(self, op: str, **fields) -> dict:
        """Send one request and await its response; raises
        :class:`ServerError` on ``ok: false``."""
        if self._closed:
            raise ConnectionError("client is closed")
        if self._receiver.done():
            # The receive loop has already unwound (peer died): a future
            # registered now would never be resolved by it.
            raise ConnectionError("connection lost")
        request_id = next(self._ids)
        message = {"op": op, "id": request_id}
        message.update(fields)
        future = asyncio.get_event_loop().create_future()
        self._pending[request_id] = future
        await write_frame(self._writer, message)
        response = await future
        if not response.get("ok"):
            raise ServerError(
                response.get("error", "unknown"),
                response.get("message", ""),
            )
        return response

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    async def ping(self) -> dict:
        """Liveness probe (allowed before bind)."""
        return await self.request("ping")

    async def bind(self, dn: str = "") -> dict:
        """Establish the session identity (``""`` = anonymous);
        required before any other operation."""
        return await self.request("bind", dn=dn)

    async def search(
        self,
        base: Optional[str] = None,
        scope: str = "sub",
        filter: Optional[str] = None,
        size_limit: Optional[int] = None,
        require_seq=None,
        max_lag: Optional[int] = None,
    ) -> dict:
        """Search the server's committed view; returns ``entries`` in
        canonical global document order, a ``truncated`` flag (true
        when ``size_limit`` cut the result), plus ``position``.

        ``require_seq`` / ``max_lag`` express the bounded-staleness
        contract to a front door (see
        :class:`~repro.server.frontdoor.FrontDoor`): ``require_seq`` is
        a ``position`` payload from an earlier response this read must
        not precede (read-your-writes); ``max_lag=0`` forces primary
        reads.  A plain server ignores both (its view is the primary's).
        """
        fields: dict = {"scope": scope}
        if base is not None:
            fields["base"] = base
        if filter is not None:
            fields["filter"] = filter
        if size_limit is not None:
            fields["size_limit"] = size_limit
        if require_seq is not None:
            fields["require_seq"] = require_seq
        if max_lag is not None:
            fields["max_lag"] = max_lag
        return await self.request("search", **fields)

    async def add(self, dn: str, classes, attributes=None) -> dict:
        """Insert one entry as a single-operation transaction."""
        return await self.request(
            "add", dn=dn, classes=list(classes),
            attributes=dict(attributes or {}),
        )

    async def delete(self, dn: str) -> dict:
        """Delete one leaf entry as a single-operation transaction."""
        return await self.request("delete", dn=dn)

    async def txn(self, changes: str) -> dict:
        """Apply an LDIF changes document as one atomic transaction."""
        return await self.request("txn", changes=changes)

    async def modify(self, changes: str) -> dict:
        """Apply an LDIF document of ``changetype: modify`` records."""
        return await self.request("modify", changes=changes)

    async def check(self, require_seq=None, max_lag: Optional[int] = None) -> dict:
        """Run the full legality check (the extended operation) on
        the connection's freshly refreshed view.  ``require_seq`` /
        ``max_lag`` carry the staleness contract through a front door,
        exactly as on :meth:`search`."""
        fields: dict = {}
        if require_seq is not None:
            fields["require_seq"] = require_seq
        if max_lag is not None:
            fields["max_lag"] = max_lag
        return await self.request("check", **fields)

    async def position(self) -> dict:
        """The server's role and committed frontier (allowed before
        bind; the front door's health-probe surface)."""
        return await self.request("position")

    async def promote(self) -> dict:
        """Ask a replica server to promote itself to a primary."""
        return await self.request("promote")

    async def reattach(self, upstream: str) -> dict:
        """Repoint a replica server's sync loop at a new upstream."""
        return await self.request("reattach", upstream=upstream)

    async def watch(self) -> dict:
        """Subscribe to commit notifications on this connection."""
        return await self.request("watch")

    async def next_notify(self, timeout: Optional[float] = None) -> dict:
        """Await the next server-pushed commit notification; raises
        ``ConnectionError`` once the connection is gone."""
        return await self._next_pushed(self._notifies, timeout)

    async def replicate(self, position: Position) -> Position:
        """Subscribe this connection as a replication follower at the
        given durable position (``(0, 0)`` = fresh: the primary ships a
        snapshot first).  Returns the primary's committed frontier as
        it acknowledged the subscription; stream messages then arrive
        via :meth:`next_stream_message`."""
        ack = await self.request("replicate", **position.to_fields())
        return Position.from_fields(ack)

    async def next_stream_message(
        self, timeout: Optional[float] = None
    ) -> dict:
        """Await the next server-pushed replication stream message;
        raises ``ConnectionError`` once the connection is gone."""
        return await self._next_pushed(self._stream, timeout)

    def received_stream_messages(self) -> list:
        """The stream messages already received and not handed out yet,
        without waiting; a lost connection is left for the next
        :meth:`next_stream_message` to report."""
        messages = []
        while not self._stream.empty():
            frame = self._stream.get_nowait()
            if frame is _LOST:  # always the last frame queued
                self._stream.put_nowait(_LOST)
                break
            messages.append(frame)
        return messages

    async def unbind(self) -> None:
        """End the session and close the connection."""
        try:
            await self.request("unbind")
        except ConnectionError:
            pass
        await self.close()

    async def close(self) -> None:
        """Tear the connection down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._receiver.cancel()
        try:
            await self._receiver
        except (asyncio.CancelledError, Exception):
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "DirectoryClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()


async def follow_upstream(
    client: DirectoryClient,
    applier,
    *,
    executor=None,
    timeout: Optional[float] = None,
    stop: Optional[asyncio.Future] = None,
):
    """The upstream-follow loop, as an async iterator of ``(applier,
    messages)``.

    Lands whatever an earlier follow left staged, subscribes ``client``
    at ``applier``'s durable position and points the applier at the
    frontier the upstream acknowledged (:func:`repro.store.follow` —
    over a fresh directory that may reopen it as the upstream's kind;
    ``applier.frontier`` is that frontier), yielding ``(applier,
    None)``.  Then, for ever: await the next pushed stream message
    (``timeout`` seconds at most), apply it together with every message
    received behind it (:func:`_apply`: the disk halves on
    ``executor``, the land here, on the event loop that reads the
    applier's served copy), and yield ``(applier, messages)``.  A
    follower that fell behind so catches up in a few landings, however
    busy the loop is.  The consumer decides when to stop; ``stop``, a
    future, ends the iteration once it completes, and only *between*
    landings.  A cancel never leaves a landing half done either: it
    waits for the one under way.
    """
    applier.land()
    applier = follow(applier, await client.replicate(applier.position()))
    yield applier, None
    loop = asyncio.get_running_loop()
    while True:
        if stop is None:
            message = await client.next_stream_message(timeout)
        else:
            incoming = asyncio.ensure_future(client.next_stream_message(timeout))
            try:
                await asyncio.wait({stop, incoming}, return_when=asyncio.FIRST_COMPLETED)
                if not incoming.done():
                    return
                message = incoming.result()
            finally:
                incoming.cancel()  # a no-op unless stopped or cancelled while waiting
        messages = [message, *client.received_stream_messages()]
        applying = asyncio.ensure_future(_apply(applier, messages, executor))
        try:
            await asyncio.shield(applying)
        except asyncio.CancelledError:
            await asyncio.wait({applying})
            if not applying.cancelled():
                applying.exception()  # the cancel is what the caller hears of
            raise
        yield applier, messages


async def _apply(applier, messages, executor) -> None:
    """Stream messages in order, whole: staged on ``executor`` in one
    job (the disk halves, which wait on the fsyncs), landed here on the
    event loop at once, and their state files recorded on ``executor``
    again when they changed any."""
    def stage():
        for message in messages:
            applier.stage(message)

    loop = asyncio.get_running_loop()
    await loop.run_in_executor(executor, stage)
    applier.land()
    if applier.unrecorded():
        await loop.run_in_executor(executor, applier.record)


async def sync_replica(
    client: DirectoryClient, applier, *, timeout: Optional[float] = 30.0
):
    """Drive a follower applier (:func:`repro.store.open_replica`) from
    a server's replication stream (:func:`follow_upstream`) until it
    reaches the committed frontier the server acknowledged at subscribe
    time, waiting ``timeout`` seconds at most for each message.

    Members compare lexicographically, so a compaction fold that bumps
    a generation past that frontier still terminates.  Returns the
    applier — over a fresh directory it may have been reopened as the
    upstream's kind.
    """
    async for applier, _ in follow_upstream(client, applier, timeout=timeout):
        if applier.position() >= applier.frontier:
            return applier
