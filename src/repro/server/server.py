"""The asyncio directory server.

Concurrency model
-----------------
*The event loop runs the Python and a primary's writes; a thread only
waits on a replica's disk, or opens, polls and closes.*

A member keeps **one served copy**, and every connection reads it.  A
plain primary serves its writer (:func:`repro.store.open_store` — the
store directory says whether it is plain or sharded): every write runs
whole on the loop (below), so when a read looks the writer's instance
stands at the committed frontier, and its verdict follows the guard
every write went through.  A poisoned writer, whose memory may be ahead
of its journal, refuses reads.  A sharded primary serves one lock-free
composite view (:func:`repro.store.open_view`; a sharded store holds no
composite of its own), opened by the first read and refreshed O(|Δ|)
before a read that finds it behind, so every response reflects a
*committed* frontier (readers withhold in-doubt 2PC prepares by
construction).  On a replica the served copy is the one its applier
applies into (:func:`repro.store.open_replica`): the plain applier's
reader, or the cohort's composite over its member readers.  Only the
applier advances a replica's copy; a read never refreshes it.

The event loop is the only thread that reads or changes a served copy.
A read runs there from plan to reply, whatever its plan, and so does a
``check``; neither yields, so the position a reply carries is the one
its answer was read at.  A sharded primary's view that is not *ready*
is refreshed there first.  Ready is a fact the member holds in memory
and never asks the disk: the view is settled (its content is exactly
its position, no 2PC transaction withheld or applied early, the
composite stitched from its members), numbered, and standing at the
primary's committed frontier.  A replica lands its stream there too:
its applier stages the messages received so far on a thread in one job
— the disk half, which never touches the copy — and the loop replays
them at once, so a replica behind a busy loop catches up in a few
landings rather than one loop turn per message.

A primary's writes run on the loop as well.  ``add``, ``delete``,
``txn`` and ``modify`` call the single owning writer
(:func:`repro.store.open_store`) directly: the guard's O(|Δ|) check,
the journal append and its fsync (a spanning transaction's whole
two-phase commit) happen between two awaits, so writes are serialized
by the loop itself and ``store.position()`` read on the loop is always
the committed frontier — no write is ever half done when a read looks.
A ``modify`` batch yields between its records, each committed whole.
The price is that a read waits out a write's fsync (well under a
millisecond on a local disk) instead of overlapping it, and a single
very large ``txn`` holds the loop for its whole guard and append.

A thread only waits on a replica's disk, opens, polls or closes, or
builds an object nothing else holds yet.  These are every
``run_in_executor`` of a member:

* the writer thread (``_writer_pool``, one thread): an applier's stage
  (append + fsync, a snapshot install or fold, the bootstrap of the
  reader it swaps in) and the record after its land (a cohort's
  ``cut.state``), a promotion, and the close of whatever store or
  applier the server holds, queued behind the last of them;
* the default executor: opening the store, an applier, or a sharded
  primary's view (one open, which every concurrent first read awaits),
  and a replication source's ``poll`` of the journal tail.

After every committed write the server publishes the new commit
sequence to a set of per-subscriber :class:`_CommitFeed` cells — bounded,
capacity-one, coalescing cells, *not* queues.  A ``watch`` connection's
fanout task blocks on its feed and pushes one ``{"op": "notify",
"seq": N}`` frame per wakeup (the push replacement for ``check
--follow``'s sleep loop); a subscriber that stalls mid-write costs the
server O(1) memory — commits landing while it is stalled coalesce into
the cell and are *counted*, and the next frame it does receive carries
``"dropped": k`` so the client knows k notifications were folded away
and it should re-read rather than trust the gap.  The ``replicate``
frame-shipping loop rides the same feeds: a slow replica simply lags
(the shipper is pull-based over the journal, nothing is buffered per
follower), it never bloats the primary.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import sys
from typing import Optional

from repro.errors import (
    LdifError,
    ModelError,
    ShardRoutingError,
    StoreError,
    UpdateError,
)
from repro.server.protocol import (
    BadRequest,
    error_response,
    ok_response,
    parse_address,
    write_frame,
)
from repro.server.service import Connection, WireService
from repro.store import (
    Position,
    open_replica,
    open_source,
    open_store,
    open_view,
    promote,
)
from repro.store.replicate import encode_error_message

__all__ = ["DirectoryServer"]


def _entry_payload(instance, entry) -> dict:
    return {
        "dn": instance.dn_string_of(entry),
        "attributes": {
            name: list(entry.values(name))
            for name in entry.attribute_names()
        },
    }


def _violations_payload(report) -> list:
    return [str(v) for v in report]


class _CommitFeed:
    """A bounded (capacity-one, coalescing) commit subscription.

    ``publish`` overwrites the cell with the newest commit seq; if the
    subscriber had not consumed the previous wakeup, the overwritten
    notification is *counted*, not queued — that count is the
    drop-and-resync signal a stalled consumer receives when it catches
    up.  Memory per subscriber is O(1) no matter how far it stalls.
    """

    def __init__(self, seq: int) -> None:
        self.latest = seq
        self.dropped = 0
        self._event = asyncio.Event()

    def publish(self, seq: int) -> None:
        if self._event.is_set():
            self.dropped += 1
        self.latest = seq
        self._event.set()

    def wake(self) -> None:
        """Wake the subscriber without a commit (drain/shutdown)."""
        self._event.set()

    async def next(self) -> "tuple[int, int]":
        """Block until published (or woken); returns ``(seq, dropped)``
        and resets the drop counter."""
        await self._event.wait()
        self._event.clear()
        dropped, self.dropped = self.dropped, 0
        return self.latest, dropped


class _Connection(Connection):
    """A server connection adds the watch/replicate fanout tasks, and
    the member's served copy its last read answered from."""

    def __init__(self, writer) -> None:
        super().__init__(writer)
        #: The served copy this connection last read (introspection:
        #: every connection of a member reads the same one).
        self.view = None
        self.watch_task: Optional[asyncio.Task] = None
        self.replicate_task: Optional[asyncio.Task] = None

    async def release(self) -> None:
        for fanout in (self.watch_task, self.replicate_task):
            if fanout is not None:
                fanout.cancel()
                try:
                    await fanout
                except asyncio.CancelledError:
                    pass


class DirectoryServer(WireService):
    """Serve a directory store (plain or sharded) over the wire protocol.

    Parameters
    ----------
    store_path:
        The store directory, plain or sharded (``create --shard``) —
        the directory says which; the server takes the writer lock for
        its whole lifetime.
    host / port:
        Bind address.  Port ``0`` binds an ephemeral port; read the
        bound one from :attr:`port` after :meth:`start`.
    replica_of:
        ``"host:port"`` of an upstream primary.  The server then runs
        as a **replica**: instead of opening the store as a writer it
        attaches a follower applier (:func:`repro.store.open_replica`;
        a fresh directory takes the upstream's kind) fed by a
        background sync loop, and serves reads from the replicated
        copy.  Writes answer
        ``not_writable``; the ``promote`` operation turns the replica
        into a full primary in place, and ``reattach`` repoints the
        sync loop at a new upstream (the failover choreography the
        front door drives).
    """

    OPS = {
        **WireService.OPS,
        "position": ("_op_position", True),
        "search": ("_op_search", False),
        "check": ("_op_check", False),
        "add": ("_op_write", False),
        "delete": ("_op_write", False),
        "txn": ("_op_write", False),
        "modify": ("_op_modify", False),
        "watch": ("_op_watch", False),
        "replicate": ("_op_replicate", False),
        "promote": ("_op_promote", False),
        "reattach": ("_op_reattach", False),
    }
    connection_class = _Connection

    def __init__(
        self,
        store_path: str,
        schema,
        registry=None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        replica_of: Optional[str] = None,
    ) -> None:
        super().__init__(host, port)
        self.store_path = store_path
        self.schema = schema
        self.registry = registry
        self.replica_of = replica_of
        self.store = None
        self._applier = None
        self._sync_task: Optional[asyncio.Task] = None
        self._sync_client = None
        self._sync_stopped = False
        #: Why the sync loop's last attempt failed, other than a broken
        #: connection (``None`` while healthy); the ``position`` reply
        #: carries it so a member that never catches up says why.
        self._sync_error: Optional[str] = None
        #: Two promotes never overlap: the second finds a primary.
        self._promote_lock = asyncio.Lock()
        self._writer_pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="store-writer"
        )
        self._commit_seq = 0
        self._feeds: set = set()
        #: A sharded primary's served copy, opened by the first read (a
        #: plain primary's is its writer, a replica's its applier's), and
        #: that open while under way.
        self._view = None
        self._view_opening: Optional[asyncio.Future] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def role(self) -> str:
        """``"replica"`` while following an upstream, else ``"primary"``."""
        return "replica" if self._applier is not None else "primary"

    async def start(self) -> None:
        """Open the store (writer lock held from here on) and bind.

        A replica (``replica_of``) opens an applier instead of a writer
        and starts the background sync loop; it accepts connections
        immediately, even before its first snapshot lands (reads answer
        ``store_error`` until then)."""
        loop = asyncio.get_running_loop()
        if self.replica_of is not None:
            self._applier = await loop.run_in_executor(
                None, self._open_applier
            )
            self._sync_task = asyncio.ensure_future(self._sync_loop())
        else:
            self.store = await loop.run_in_executor(
                None, open_store, self.store_path, self.schema, self.registry
            )
        await self._listen()

    def _open_applier(self):
        return open_replica(
            self.store_path, self.schema, self.registry,
            upstream=self.replica_of,
        )

    async def _quiesce(self) -> None:
        # Wake watch/replicate tasks so draining connections can exit.
        for feed in list(self._feeds):
            feed.wake()

    async def kill(self) -> None:
        """Die abruptly — the crash-harness stand-in for ``kill -9``.

        Aborts the listener and every connection's transport without
        drain or replies; the store is closed only to release file
        handles (a killed process drops its advisory lock the same
        way).  Clients observe a reset connection mid-operation."""
        self._draining = True
        if self._server is not None:
            self._server.close()
        await self._quiesce()
        for task, connection in list(self._connections.items()):
            transport = getattr(connection.writer, "transport", None)
            try:
                if transport is not None:
                    transport.abort()
                else:
                    connection.writer.close()
            except Exception:
                pass
            task.cancel()
        if self._connections:
            await asyncio.gather(
                *self._connections, return_exceptions=True
            )
        await self._release()

    async def _release(self) -> None:
        """Stop following and close whichever of applier and store this
        server holds (releasing the directory's advisory lock) — on the
        writer thread, behind any stage or promotion a cancel left
        running there, so the lock is never released under a journal
        append."""
        await self._stop_sync()
        held = self._applier if self._applier is not None else self.store
        self._applier = self.store = None
        view, self._view = self._view, None
        opening, self._view_opening = self._view_opening, None
        if opening is not None:
            await asyncio.wait({opening})
            if not opening.cancelled() and opening.exception() is None:
                view = opening.result()
        if view is not None:
            view.close()
        if held is not None:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(self._writer_pool, held.close)
        self._writer_pool.shutdown(wait=True)

    # ------------------------------------------------------------------
    # replica sync: pull the upstream's stream into the local applier
    # ------------------------------------------------------------------
    async def _stop_sync(self) -> None:
        self._sync_stopped = True
        client, self._sync_client = self._sync_client, None
        task, self._sync_task = self._sync_task, None
        if client is not None:
            try:
                await client.close()
            except Exception:
                pass
        if task is not None:
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)

    async def _sync_loop(self) -> None:
        """Follow the upstream primary, staging the stream messages
        received so far on the writer thread and landing them on the
        loop at once; reconnects with backoff on any break (including
        a ``reattach`` repointing the upstream).  A
        failure that is not a broken connection — a schema fingerprint
        or shard layout mismatch, a diverged position — is retried the
        same way, but recorded for the ``position`` reply and printed
        once, so the member does not idle at its old frontier in
        silence."""
        from repro.server.client import DirectoryClient, follow_upstream

        while not self._draining and not self._sync_stopped:
            client = None
            try:
                client = await DirectoryClient.connect(
                    *parse_address(self.replica_of)
                )
                self._sync_client = client
                await client.bind("cn=replica")
                if self._applier is None:
                    return
                # Invariant: this task is the only code that replaces a
                # live applier, and whoever else takes it (promote,
                # reattach, release) cancels the task first
                # (_stop_sync).  So the applier handed over here is
                # still the server's when the loop yields its successor
                # — a fresh directory is reopened as the upstream's
                # kind — and no await separates that yield from the
                # assignment below.  Messages are staged on the writer
                # thread, which also serialises them before a promote,
                # and landed on the loop.
                async for applier, messages in follow_upstream(
                    client, self._applier, executor=self._writer_pool
                ):
                    self._applier = applier
                    if messages is not None:
                        # Not on the acknowledgement: a stream that
                        # fails on its first message (every subscription
                        # opens with one) would flicker between healthy
                        # and failing.
                        self._sync_error = None
                        await self._commit_happened()
                    if self._draining or self._sync_stopped:
                        break
            except asyncio.CancelledError:
                raise
            except (ConnectionError, OSError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError):
                pass  # connection break or upstream death: retry below
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                if error != self._sync_error:
                    print(
                        f"replica {self.store_path}: cannot follow "
                        f"{self.replica_of}: {error}",
                        file=sys.stderr, flush=True,
                    )
                self._sync_error = error
            finally:
                if client is not None:
                    self._sync_client = None
                    try:
                        await client.close()
                    except Exception:
                        pass
            if self._draining or self._sync_stopped:
                return
            await asyncio.sleep(0.2)

    # ------------------------------------------------------------------
    # reads: one served copy per member, shared by every connection
    # ------------------------------------------------------------------
    async def _served(self):
        """The member's served copy, ready to read.  On a replica it is
        the copy its applier applies into, never refreshed here.  A plain
        primary serves its writer, as it stands.  A sharded primary
        serves one view: opened by the first read, on a thread
        (:meth:`_open_view`; every concurrent first read awaits the same
        open), and refreshed and numbered inline when it is not
        :meth:`_ready`."""
        while self._applier is None and self._view is None:
            if self.store is None:
                raise StoreError(
                    f"{self.store_path} is changing role (a promotion is "
                    "in progress); retry"
                )
            if hasattr(self.store, "plan_search"):
                # a plain store answers reads itself; a sharded one
                # holds no composite to answer them from
                return self.store
            if self._view_opening is None:
                self._view_opening = asyncio.get_running_loop().run_in_executor(
                    None, self._open_view
                )
                self._view_opening.add_done_callback(self._opened)
            await asyncio.shield(self._view_opening)
        if self._applier is not None:
            return self._applier.served()
        view = self._view
        if not self._ready(view):
            view.refresh()
            view.instance.ensure_numbered()
        return view

    def _open_view(self):
        """Open a sharded primary's view, and stitch and number it, on a
        thread: nothing else holds it yet."""
        view = open_view(self.store_path, self.schema, self.registry)
        view.instance.ensure_numbered()
        return view

    def _opened(self, opening: asyncio.Future) -> None:
        """Serve the view ``opening`` opened — unless the server let go
        of that open meanwhile; a failed open is tried again by the
        next read."""
        if self._view_opening is opening:
            self._view_opening = None
            if not opening.cancelled() and opening.exception() is None:
                self._view = opening.result()

    def _ready(self, copy) -> bool:
        """Whether a sharded primary's view can be read as it stands: settled
        (nothing withheld, applied early or left to stitch), numbered,
        and at the writer's committed frontier (on the loop no write is
        ever midway).  Memory only: no file is read or stat'ed."""
        return (
            copy.settled()
            and copy.position() == self.store.position()
            and copy.instance.numbered
        )

    async def _read(self, connection: _Connection, answer):
        """``answer(copy)`` from the member's served copy, and the copy's
        position, both taken on the loop with no await between them — so
        the position a reply carries is the one its answer was read at."""
        copy = await self._served()
        connection.view = copy
        return answer(copy), copy.position().to_wire()

    async def _op_search(self, connection: _Connection, request: dict) -> dict:
        """Answer a search from the member's served copy, on the loop."""
        from repro.query.filter_parser import parse_filter

        filter_text = request.get("filter")
        size_limit = request.get("size_limit")
        parsed = parse_filter(filter_text) if filter_text else None

        def answer(copy):
            # Over-fetch by one so the cut happens *after* canonical
            # ordering and the client learns whether results were
            # dropped, without ever scanning past limit + 1 matches.
            planned = copy.plan_search(
                base=request.get("base"), scope=request.get("scope", "sub"),
                filter=parsed,
                size_limit=None if size_limit is None else size_limit + 1,
            )
            entries = planned.run()
            truncated = size_limit is not None and len(entries) > size_limit
            if truncated:
                entries = entries[:size_limit]
            instance = planned.instance
            return [_entry_payload(instance, e) for e in entries], truncated

        (entries, truncated), position = await self._read(connection, answer)
        return ok_response(
            request.get("id"),
            entries=entries,
            truncated=truncated,
            position=position,
        )

    async def _op_check(self, connection: _Connection, request: dict) -> dict:
        def answer(copy):
            return copy.check(), len(copy.instance)

        (report, entries), position = await self._read(connection, answer)
        return ok_response(
            request.get("id"),
            legal=report.is_legal,
            violations=_violations_payload(report),
            entries=entries,
            position=position,
        )

    # ------------------------------------------------------------------
    # writes: the single owning writer, on the loop
    # ------------------------------------------------------------------
    def _not_writable(self, request_id) -> dict:
        return error_response(
            request_id, "not_writable",
            f"this server is a replica of {self.replica_of}; "
            "send writes to the primary",
        )

    async def _op_write(self, connection: _Connection, request: dict) -> dict:
        from repro.ldif.changes import parse_changes
        from repro.updates.operations import UpdateTransaction

        if self.store is None:
            return self._not_writable(request.get("id"))
        op = request["op"]
        if op == "add":
            transaction = UpdateTransaction().insert(
                request["dn"],
                request.get("classes", []),
                request.get("attributes", {}),
            )
        elif op == "delete":
            transaction = UpdateTransaction().delete(request["dn"])
        else:  # txn
            transaction = parse_changes(request["changes"])
            if not transaction.operations:
                # an empty changes document would "apply" vacuously —
                # the same trap as a zero-record modify batch
                raise BadRequest("txn requires at least one change record")

        outcome = self.store.apply(transaction)
        response = ok_response(
            request.get("id"),
            applied=outcome.applied,
            violations=_violations_payload(outcome.report),
            position=self.store.position().to_wire(),
        )
        if outcome.applied:
            await self._commit_happened()
        return response

    async def _op_modify(self, connection: _Connection, request: dict) -> dict:
        from repro.ldif.modify import parse_modifications

        if self.store is None:
            return self._not_writable(request.get("id"))
        records = parse_modifications(request["changes"])
        if not records:
            # all() over zero records would report a vacuous success.
            raise BadRequest("modify requires at least one modification record")

        results = []
        try:
            for record in records:
                # A record that cannot even be staged (no such entry, a
                # ``modrdn``, a DN no shard owns) is refused: like a
                # guard rejection it is that record's answer, and the
                # batch goes on.
                try:
                    outcome = self.store.modify(record)
                except (LdifError, ModelError, UpdateError, ShardRoutingError) as exc:
                    applied, violations = False, [str(exc)]
                else:
                    applied = outcome.applied
                    violations = _violations_payload(outcome.report)
                results.append(
                    {"dn": str(record.dn), "applied": applied, "violations": violations}
                )
                # Each record commits whole before the next: let reads
                # and health probes in between, as a large batch would
                # otherwise hold the loop for its whole length.
                await asyncio.sleep(0)
        finally:
            # Whatever ended the batch, what it committed is in the
            # journal: watchers and replication feeds hear of it.
            if any(r["applied"] for r in results):
                await self._commit_happened()
        return ok_response(
            request.get("id"),
            applied=all(r["applied"] for r in results),
            results=results,
            position=self.store.position().to_wire(),
        )

    async def _commit_happened(self) -> None:
        self._commit_seq += 1
        for feed in self._feeds:
            feed.publish(self._commit_seq)

    def _subscribe(self) -> _CommitFeed:
        feed = _CommitFeed(self._commit_seq)
        self._feeds.add(feed)
        return feed

    def _unsubscribe(self, feed: _CommitFeed) -> None:
        self._feeds.discard(feed)

    # ------------------------------------------------------------------
    # commit-notify fanout
    # ------------------------------------------------------------------
    async def _op_watch(self, connection: _Connection, request: dict) -> dict:
        if connection.watch_task is None:
            connection.watch_task = asyncio.ensure_future(
                self._watch_loop(connection.writer)
            )
        return ok_response(request.get("id"), seq=self._commit_seq)

    async def _watch_loop(self, writer) -> None:
        """Push one ``notify`` frame per feed wakeup.

        Commits that land while the subscriber's socket is stalled
        coalesce in the bounded feed; the frame that finally gets
        through carries the latest ``seq`` plus ``dropped`` — the
        number of notifications folded away — so a slow consumer knows
        to resync instead of trusting the gap.
        """
        seen = self._commit_seq
        feed = self._subscribe()
        try:
            while True:
                seq, dropped = await feed.next()
                if seq <= seen:
                    if self._draining:
                        return
                    continue  # spurious wake (drain probe on a live server)
                seen = seq
                frame = {"op": "notify", "seq": seq}
                if dropped:
                    frame["dropped"] = dropped
                await write_frame(writer, frame)
        except (ConnectionError, asyncio.CancelledError):
            raise
        except Exception:
            return  # the connection is going away; its handler cleans up
        finally:
            self._unsubscribe(feed)

    # ------------------------------------------------------------------
    # replication: frame shipping over the same bounded feeds
    # ------------------------------------------------------------------
    async def _op_replicate(self, connection: _Connection, request: dict) -> dict:
        """Subscribe this connection as a replication follower.

        The request carries the follower's durable position
        (:meth:`Position.from_fields`: a plain ``generation``/``seq``
        pair or a ``shards`` map of per-shard pairs); the reply
        acknowledges with the primary's committed frontier in the
        same form, then stream messages (``op:
        "repl"``) are pushed: schema frames strictly before the data
        frames of their generation, a snapshot first when the position
        cannot be served incrementally.  A sharded primary multiplexes
        per-shard streams under one coordinator cut, so a follower set
        never observes half a spanning transaction.
        """
        if self._applier is not None:
            raise BadRequest(
                f"this server is a replica of {self.replica_of}; "
                "replicate from the primary"
            )
        if connection.replicate_task is not None:
            raise BadRequest("this connection is already replicating")
        source = open_source(
            self.store_path, self.schema, Position.from_fields(request)
        )
        connection.replicate_task = asyncio.ensure_future(
            self._replicate_loop(connection.writer, source)
        )
        return ok_response(
            request.get("id"), mode="stream", **self.store.position().to_fields()
        )

    async def _replicate_loop(self, writer, source) -> None:
        """Ship stream messages until the follower disconnects.

        Pull-based: each wakeup polls the journal tail for exactly the
        committed delta past the follower's position, so a slow
        follower costs O(1) server memory — it lags on disk, not in
        RAM.  The poll's file I/O runs on the shared executor, never on
        the event loop.  A poll that fails — a corrupt coordinator log —
        ends the stream with one ``error`` message naming the cause, and
        the connection is closed: the follower records it as its
        ``sync_error`` and retries, instead of waiting in silence on a
        stream that will never move.
        """
        loop = asyncio.get_running_loop()
        feed = self._subscribe()
        try:
            while True:
                try:
                    batch = await loop.run_in_executor(None, source.poll)
                except Exception as exc:
                    await write_frame(
                        writer,
                        encode_error_message(f"{type(exc).__name__}: {exc}"),
                    )
                    writer.close()
                    return
                for message in batch:
                    await write_frame(writer, message)
                if not batch:
                    if self._draining:
                        return
                    await feed.next()
        except (ConnectionError, asyncio.CancelledError):
            raise
        except Exception:
            return  # the connection is going away; its handler cleans up
        finally:
            self._unsubscribe(feed)

    # ------------------------------------------------------------------
    # topology: role introspection, in-place promotion, re-attachment
    # ------------------------------------------------------------------
    async def _op_position(self, connection: _Connection, request: dict) -> dict:
        """Role and committed frontier — the health-probe surface the
        front door polls; answered without a bind or a serving view so
        a bootstrapping replica is still observable."""
        if self._applier is not None:
            position = self._applier.position()
        else:
            position = None if self.store is None else self.store.position()
        payload = {
            "role": self.role,
            "position": {} if position is None else position.to_wire(),
        }
        if self._applier is not None:
            payload["upstream"] = self.replica_of
            if not position.is_plain:  # a one-member frontier is its own cut
                payload["consistent"] = self._applier.consistent()
            lag = self._applier.lag_frames()
            if lag is not None:
                payload["lag_frames"] = lag
            if self._sync_error is not None:
                payload["sync_error"] = self._sync_error
        return ok_response(request.get("id"), **payload)

    async def _op_promote(self, connection: _Connection, request: dict) -> dict:
        """Promote this replica to a writable primary, in place.

        Runs under the promote lock on the writer thread: the sync loop
        is stopped, the applier closed, and
        :func:`repro.store.promote` drives the generation bump —
        refusing while any 2PC prepare is in doubt or, sharded, while
        the cohort is off its replicated cut.  On refusal the applier
        and sync loop are restarted, so a failed candidate keeps
        following its upstream.  The role is read under the lock: a
        second promote that waited for it finds a primary."""
        request_id = request.get("id")
        loop = asyncio.get_running_loop()
        async with self._promote_lock:
            if self._applier is None:
                raise BadRequest(
                    "this server is already a primary; only a replica can "
                    "be promoted"
                )
            await self._stop_sync()
            applier, self._applier = self._applier, None

            def run():
                applier.close()
                return promote(self.store_path, self.schema, self.registry)

            try:
                self.store = await loop.run_in_executor(self._writer_pool, run)
            except (StoreError, OSError) as exc:
                # Refused or failed: go back to being a follower of the
                # same upstream so the elector can try another candidate.
                self._applier = await loop.run_in_executor(
                    None, self._open_applier
                )
                self._sync_stopped = False
                self._sync_task = asyncio.ensure_future(self._sync_loop())
                return error_response(request_id, "store_error", str(exc))
        self.replica_of = None
        await self._commit_happened()  # wake feeds: the world changed
        return ok_response(
            request_id, role="primary", position=self.store.position().to_wire()
        )

    async def _op_reattach(self, connection: _Connection, request: dict) -> dict:
        """Repoint the sync loop at a new upstream (post-failover); the
        request table has already refused an unparseable one, so a
        refusal never costs the replica its current upstream."""
        upstream = request["upstream"]
        if self._applier is None:
            raise BadRequest(
                "this server is a primary; only a replica can reattach"
            )
        await self._stop_sync()
        self.replica_of = upstream
        self._applier.upstream = upstream
        self._sync_error = None  # the old upstream's refusal, if any
        self._sync_stopped = False
        self._sync_task = asyncio.ensure_future(self._sync_loop())
        return ok_response(request.get("id"), upstream=upstream)
