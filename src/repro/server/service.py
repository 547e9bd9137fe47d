"""The wire service: the one connection loop both members run.

:class:`~repro.server.server.DirectoryServer` and
:class:`~repro.server.frontdoor.FrontDoor` speak the same protocol to
their clients, so they share the code that speaks it.
:class:`WireService` owns the listen socket, the per-connection loop
(read a frame → mark busy → dispatch → write the reply), the session
preamble (``ping``/``bind``/``unbind`` and the ``not_bound`` gate), the
one check of a request against the protocol's request table
(:func:`repro.server.protocol.checked_request`), the map from what a
handler raises to the error code the client reads — ending in the typed
``internal_error`` — and the drain.  A member supplies its op table
(:attr:`WireService.OPS`), its connection state
(:attr:`WireService.connection_class`) and two stop hooks.

Every request of either member passes through
:meth:`WireService._dispatch`: it is the one place to time a request,
count it, or refuse it for load.
"""

from __future__ import annotations

import asyncio
import traceback
from typing import Dict, Optional, Tuple

from repro.errors import (
    FilterSyntaxError,
    LdifError,
    ModelError,
    QueryError,
    ShardRoutingError,
    StoreError,
    UpdateError,
)
from repro.server.protocol import (
    BadRequest,
    ProtocolError,
    checked_request,
    error_response,
    ok_response,
    read_frame,
    write_frame,
)

__all__ = ["Connection", "WireService"]


class Connection:
    """What the loop keeps per client: the socket writer (so a drain can
    nudge an idle peer), the bound identity, and whether a frame is
    being dispatched right now.  Members subclass it for their own
    per-connection state."""

    def __init__(self, writer) -> None:
        self.writer = writer
        self.bound_dn: Optional[str] = None
        self.busy = False

    def nudge(self) -> None:
        """Close the transport under an idle reader so its blocked
        ``read_frame`` wakes with EOF instead of sitting out a drain
        timeout.  A busy connection is left alone: it finishes its
        in-flight frame and exits at the loop's drain check."""
        try:
            self.writer.close()
        except Exception:
            pass

    async def release(self) -> None:
        """Give back what the connection holds besides its socket."""


class WireService:
    """Listen, serve connections from an op table, drain."""

    #: ``{op: (handler method name, allowed before bind)}``.  A handler
    #: is ``async handler(connection, request) -> response``, looked up
    #: on the instance at dispatch time; ``request`` is what
    #: :func:`checked_request` made of the client's frame.  Returning
    #: ``None`` ends the connection (the handler has already replied).
    OPS: Dict[str, Tuple[str, bool]] = {
        "ping": ("_op_ping", True),
        "bind": ("_op_bind", True),
        "unbind": ("_op_unbind", True),
    }
    connection_class = Connection

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self._requested_port = port
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: "dict[asyncio.Task, Connection]" = {}
        self._draining = False

    @property
    def port(self) -> int:
        """The bound TCP port (ephemeral ports resolved at start)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def _listen(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )

    async def stop(self, *, drain: bool = True, timeout: float = 10.0) -> None:
        """Stop accepting, optionally drain in-flight connections, then
        release what the member holds.  ``drain=True`` is the graceful
        SIGTERM path: every connection finishes (or is cancelled after
        ``timeout``) first."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._quiesce()
        # Nudge connections sitting idle in read_frame: _draining is
        # only checked between frames, so without the EOF they would
        # ride out the whole drain timeout.
        for connection in list(self._connections.values()):
            if not connection.busy:
                connection.nudge()
        pending = {t for t in self._connections if not t.done()}
        if pending and drain:
            _, pending = await asyncio.wait(pending, timeout=timeout)
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        await self._release()

    async def _quiesce(self) -> None:
        """Stop hook, listener closed and connections still open: end
        the member's background work that would keep them busy."""

    async def _release(self) -> None:
        """Stop hook, every connection gone: close what the member holds."""

    # ------------------------------------------------------------------
    # the connection loop
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        connection = self.connection_class(writer)
        self._connections[task] = connection
        try:
            while not self._draining:
                request = await read_frame(reader)
                if request is None:
                    break
                connection.busy = True
                try:
                    response = await self._dispatch(connection, request)
                    if response is None:  # unbind: reply already sent
                        break
                    await write_frame(writer, response)
                finally:
                    connection.busy = False
        except (ProtocolError, ConnectionError, asyncio.IncompleteReadError):
            pass  # a broken client is its own problem; drop the connection
        except asyncio.CancelledError:
            # A stop or kill cancels connection tasks; swallowing here
            # keeps asyncio's stream callback from logging the retrieval.
            pass
        finally:
            # The close has to end this task finished, not cancelled —
            # asyncio's stream callback logs a cancelled connection task
            # as an exception — and keep it registered until it has, so
            # that stop() waits for a connection that is closing instead
            # of leaving it for the loop's shutdown to cancel.
            try:
                await connection.release()
            except asyncio.CancelledError:
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass
            self._connections.pop(task, None)

    async def _dispatch(self, connection: Connection, request: dict) -> Optional[dict]:
        op, request_id = request.get("op"), request.get("id")
        handler, before_bind = (
            self.OPS.get(op, (None, False)) if isinstance(op, str) else (None, False)
        )
        if connection.bound_dn is None and not before_bind:
            return error_response(
                request_id, "not_bound", f"operation {op!r} requires a prior bind"
            )
        if handler is None:
            return error_response(request_id, "unknown_op", f"unknown operation {op!r}")
        try:
            return await getattr(self, handler)(connection, checked_request(request))
        except BadRequest as exc:
            return error_response(request_id, "bad_request", str(exc))
        except FilterSyntaxError as exc:
            return error_response(request_id, "filter_syntax", str(exc))
        except ShardRoutingError as exc:
            return error_response(request_id, "unroutable", str(exc))
        except (LdifError, ModelError, QueryError, UpdateError) as exc:
            # QueryError past the filter parser: a search base that is
            # not in the directory.
            return error_response(request_id, "invalid", str(exc))
        except StoreError as exc:
            return error_response(request_id, "store_error", str(exc))
        except (ConnectionError, ProtocolError, asyncio.IncompleteReadError):
            raise  # the connection itself broke: the loop drops it
        except Exception as exc:
            # A bug or a request shape nothing above refused.  The
            # connection survives and the failure is typed, so a front
            # door never mistakes a bad request for a dead member.
            traceback.print_exc()
            return error_response(
                request_id, "internal_error", f"{type(exc).__name__}: {exc}"
            )

    # ------------------------------------------------------------------
    # the session preamble
    # ------------------------------------------------------------------
    async def _op_ping(self, connection: Connection, request: dict) -> dict:
        return ok_response(request["id"])

    async def _op_bind(self, connection: Connection, request: dict) -> dict:
        connection.bound_dn = request.get("dn", "")
        return ok_response(request["id"], dn=connection.bound_dn)

    async def _op_unbind(self, connection: Connection, request: dict) -> None:
        await write_frame(connection.writer, ok_response(request["id"]))
