"""The read-balancing front door: one write route, N read routes.

A :class:`FrontDoor` is an asyncio proxy that owns a client's view of
a replicated topology — one primary :class:`DirectoryServer` and N
followers running with ``replica_of`` — and gives wire-protocol
clients a single address that scales reads with hardware:

* ``add`` / ``delete`` / ``txn`` / ``modify`` go to the primary, and
  the reply's ``position`` payload (committed atomically with the
  write) feeds the staleness contract below;
* ``search`` / ``check`` spread across the followers under a
  **bounded-staleness contract**: the client may pass ``require_seq``
  (a ``position`` payload an earlier response carried — the router
  serves the read from a follower it knows holds that position, and
  from the primary when it knows of none) or ``max_lag`` (frames of
  acceptable lag; ``0`` means primary reads).  Every reply still
  carries ``position``, so requests chain.

What the door knows of a member's position is the member's latest
report: the ``position`` of its last forwarded reply or health probe.
Nothing is pushed to the door, so a follower that lands a write after
its last report is not read at that write until its next reply or
probe says so.  A belief is not a guarantee either: every reply's
position is checked against the requirement, and a staler answer is
discarded (and counted) before the next candidate is tried.

Per connection the front door additionally enforces **monotonic
reads**: the largest position any response on that connection carried
becomes an implicit ``require_seq`` floor for every later read — a
client never observes its own history running backwards, not even
across a failover.

Failover is automatic: a health-probe loop pings every backend and
polls its frontier; when the primary stops answering, the most
advanced follower is elected and driven through the server's
``promote`` operation (PR 9's promotion path — it refuses while a 2PC
prepare is in doubt or a sharded cohort sits off its replicated cut,
in which case the next candidate is tried), the write route is
repointed, and the surviving followers are re-attached to the new
primary's stream behind the generation bump.  The elected follower's
pre-promotion frontier is recorded as a **lost floor**: a later
``require_seq`` pointing past it — a position only the dead primary
ever acknowledged — answers a typed ``position_lost`` error instead of
silently serving older state.

Why reads scale this way at all is Theorem 4.1: legality under a
bounding schema decomposes into per-entry (modular) verdicts over a
committed instance, so any replica holding a committed prefix answers
``search``/``check`` exactly as the primary would have at that
position — the front door only has to pick a replica whose position
satisfies the caller.
"""

from __future__ import annotations

import asyncio
from typing import List, Optional

from repro.server.client import DirectoryClient, ServerError
from repro.server.protocol import (
    BadRequest,
    error_response,
    ok_response,
    parse_address,
)
from repro.server.service import Connection, WireService
from repro.store import Position

__all__ = ["FrontDoor", "position_geq", "position_max"]


def _parse(payload: Optional[dict]) -> Optional[Position]:
    """A member's ``position`` payload; nothing yet (absent, or the
    ``{}`` of a cohort before its shard map) is ``None``."""
    return Position.from_wire(payload) if payload else None


def _merge(a: Optional[Position], b: Optional[Position]) -> Optional[Position]:
    if a is None or b is None:
        return a if b is None else b
    return a.max(b)


def position_geq(position: Optional[dict], require: Optional[dict]) -> bool:
    """Whether ``position`` satisfies ``require`` (both ``position``
    payloads): at least as far on every member ``require`` mentions,
    see :class:`~repro.store.position.Position`."""
    if require is None:
        return True
    held = _parse(position)
    return held is not None and held >= _parse(require)


def position_max(a: Optional[dict], b: Optional[dict]) -> Optional[dict]:
    """The pointwise-larger of two ``position`` payloads (the monotonic
    floor a connection accumulates)."""
    merged = _merge(_parse(a), _parse(b))
    return None if merged is None else merged.to_wire()


class _Backend:
    """One member server as the front door sees it."""

    def __init__(self, address: str) -> None:
        self.address = address
        #: Forwards client requests.  The member answers one
        #: connection's requests in order, so health probes ride their
        #: own connection (``prober``): queued behind a slow read they
        #: would time out, and the read would pay for it.
        self.client: Optional[DirectoryClient] = None
        self.prober: Optional[DirectoryClient] = None
        self.alive = True
        self.fails = 0
        #: The member's latest reported frontier (not the largest ever
        #: seen: a re-created follower reports a smaller one).
        self.position: Optional[Position] = None
        #: Read replies returned to clients, and read replies discarded
        #: as staler than the read's requirement.
        self.served = 0
        self.stale = 0
        #: Why a replica member's sync loop is failing, as its last
        #: probe reported it (``None``: following, or the primary).
        self.sync_error: Optional[str] = None

    def payload(self) -> dict:
        payload = {
            "address": self.address,
            "alive": self.alive,
            "position": (
                None if self.position is None else self.position.to_wire()
            ),
            "served": self.served,
            "stale": self.stale,
        }
        if self.sync_error is not None:
            payload["sync_error"] = self.sync_error
        return payload

    def heard(self, payload: Optional[dict]) -> Optional[Position]:
        """Take the ``position`` a reply of this member carried as what
        the door knows of it; a reply without one (``{}``) changes
        nothing."""
        position = _parse(payload)
        if position is not None:
            self.position = position
        return position


class _FrontConnection(Connection):
    """A door connection adds the monotonic read floor."""

    def __init__(self, writer) -> None:
        super().__init__(writer)
        self.floor: Optional[Position] = None


def _forwarded(request: dict) -> dict:
    """The fields of a checked request a member is sent: what the
    request table declares for the op, minus what addresses the door
    itself.  A key the client made up never gets this far, so it cannot
    collide with a parameter of ``DirectoryClient.request``."""
    return {
        key: value
        for key, value in request.items()
        if key not in ("op", "id", "require_seq", "max_lag")
    }


class FrontDoor(WireService):
    """Proxy one primary and N follower endpoints behind one address.

    Parameters
    ----------
    primary:
        ``"host:port"`` of the writable member server.
    replicas:
        ``"host:port"`` addresses of the follower servers.
    probe_interval / probe_timeout / fail_after:
        Health loop tuning: probe every ``probe_interval`` seconds with
        ``probe_timeout`` per probe; ``fail_after`` consecutive failed
        probes of the primary trigger failover.
    """

    OPS = {
        **WireService.OPS,
        "topology": ("_op_topology", True),
        **dict.fromkeys(("add", "delete", "txn", "modify"), ("_forward_write", False)),
        **dict.fromkeys(("search", "check"), ("_forward_read", False)),
        **dict.fromkeys(
            ("watch", "replicate", "promote", "reattach"), ("_op_member_only", False)
        ),
    }
    connection_class = _FrontConnection

    def __init__(
        self,
        primary: str,
        replicas: List[str],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        probe_interval: float = 0.5,
        probe_timeout: float = 2.0,
        fail_after: int = 2,
    ) -> None:
        super().__init__(host, port)
        self.probe_interval = probe_interval
        self.probe_timeout = probe_timeout
        self.fail_after = fail_after
        self._primary = _Backend(primary)
        self._replicas = [_Backend(address) for address in replicas]
        self._lost_floors: List[Position] = []
        self.failovers = 0
        self._rotation = 0
        self._health_task: Optional[asyncio.Task] = None
        self._probe_now = asyncio.Event()
        self._failover_lock = asyncio.Lock()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listen socket and start the health-probe loop."""
        await self._listen()
        self._health_task = asyncio.ensure_future(self._health_loop())

    async def _quiesce(self) -> None:
        if self._health_task is not None:
            self._health_task.cancel()
            await asyncio.gather(self._health_task, return_exceptions=True)
            self._health_task = None

    async def _release(self) -> None:
        for backend in self._backends():
            await self._drop_client(backend)
            await self._drop_prober(backend)

    def _backends(self) -> List[_Backend]:
        return [self._primary] + list(self._replicas)

    # ------------------------------------------------------------------
    # backend pool
    # ------------------------------------------------------------------
    async def _connect(self, backend: _Backend) -> DirectoryClient:
        client = await asyncio.wait_for(
            DirectoryClient.connect(*parse_address(backend.address)),
            self.probe_timeout,
        )
        try:
            await client.bind("cn=frontdoor")
        except BaseException:
            await client.close()
            raise
        return client

    async def _ensure_client(self, backend: _Backend) -> DirectoryClient:
        if backend.client is None:
            backend.client = await self._connect(backend)
        return backend.client

    @staticmethod
    async def _close(client: Optional[DirectoryClient]) -> None:
        if client is not None:
            try:
                await client.close()
            except Exception:
                pass

    async def _drop_client(self, backend: _Backend) -> None:
        client, backend.client = backend.client, None
        await self._close(client)

    async def _drop_prober(self, backend: _Backend) -> None:
        prober, backend.prober = backend.prober, None
        await self._close(prober)

    async def _mark_dead(self, backend: _Backend) -> None:
        backend.alive = False
        backend.fails = self.fail_after
        await self._drop_client(backend)

    # ------------------------------------------------------------------
    # client-facing protocol
    # ------------------------------------------------------------------
    async def _op_member_only(self, connection, request: dict) -> dict:
        raise BadRequest(
            f"{request['op']} is not served through the front door; connect "
            "to a member server directly"
        )

    async def _op_topology(self, connection, request: dict) -> dict:
        """The routing table: who serves writes, who serves reads, at
        which frontiers — ``fsck --frontdoor`` and the harness's
        oracle both read it here."""
        return ok_response(
            request.get("id"),
            primary=self._primary.payload(),
            replicas=[backend.payload() for backend in self._replicas],
            lost_floors=[floor.to_wire() for floor in self._lost_floors],
            failovers=self.failovers,
        )

    # ------------------------------------------------------------------
    # write route
    # ------------------------------------------------------------------
    async def _forward_write(
        self, connection: _FrontConnection, request: dict
    ) -> dict:
        request_id = request.get("id")
        backend = self._primary
        if not backend.alive:
            return error_response(
                request_id, "unavailable",
                "the primary is down; failover in progress — retry",
            )
        try:
            client = await self._ensure_client(backend)
            response = await client.request(request["op"], **_forwarded(request))
        except ServerError as exc:
            return error_response(request_id, exc.code, exc.message)
        except (ConnectionError, OSError, asyncio.TimeoutError,
                asyncio.IncompleteReadError):
            # A write that died in flight is ambiguous — it may or may
            # not have committed — so it is NOT retried elsewhere; the
            # client decides, with idempotence it can reason about.
            await self._mark_dead(backend)
            self._probe_now.set()
            return error_response(
                request_id, "unavailable",
                "lost the primary mid-write; the write may or may not "
                "have committed — verify and retry after failover",
            )
        position = backend.heard(response.get("position"))
        connection.floor = _merge(connection.floor, position)
        response["id"] = request_id
        return response

    # ------------------------------------------------------------------
    # read route
    # ------------------------------------------------------------------
    async def _forward_read(
        self, connection: _FrontConnection, request: dict
    ) -> dict:
        request_id = request.get("id")
        require = _parse(request.get("require_seq"))
        max_lag = request.get("max_lag")
        # The lost-floor check runs on the caller's *explicit*
        # requirement: a connection floor raised by post-failover
        # responses would otherwise dominate the (older-generation)
        # lost position in the merge and silently mask the loss.
        if require is not None and any(
            require.lost_beyond(floor) for floor in self._lost_floors
        ):
            return error_response(
                request_id, "position_lost",
                f"required position {require.to_wire()} exceeds what survived "
                "failover; the acknowledging primary died before any "
                "follower replicated it",
            )
        # The connection's floor rides along: reads are monotonic even
        # when the caller never asks for read-your-writes explicitly.
        require = _merge(connection.floor, require)
        fields = _forwarded(request)
        for backend in self._read_candidates(require, max_lag):
            try:
                client = await self._ensure_client(backend)
                response = await client.request(request["op"], **fields)
            except ServerError as exc:
                if exc.code == "store_error" and backend is not self._primary:
                    continue  # replica not serving yet; next candidate
                return error_response(request_id, exc.code, exc.message)
            except (ConnectionError, OSError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError):
                # Reads are side-effect-free: a member dying mid-search
                # retries transparently on the next route.  After a
                # primary, those are the followers not known to hold
                # the requirement: one may have caught up unheard.
                if backend is self._primary:
                    self._probe_now.set()
                await self._mark_dead(backend)
                continue
            position = backend.heard(response.get("position"))
            if require is not None and (
                position is None or not position >= require
            ):
                backend.stale += 1
                continue  # served, but staler than the contract allows
            backend.served += 1
            connection.floor = _merge(connection.floor, position)
            response["id"] = request_id
            return response
        return error_response(
            request_id, "unavailable",
            "no backend can serve this read at the required position "
            "right now; retry",
        )

    def _read_candidates(
        self, require: Optional[Position], max_lag: Optional[int]
    ) -> List[_Backend]:
        """The members to try, in order.

        ``max_lag=0`` is the primary alone.  Otherwise the live
        followers within ``max_lag`` take turns (one rotation per
        read).  A read without a requirement tries them all, then the
        primary.  A read with one tries first the followers known to
        hold it, then the primary, and only then the rest: those are
        reached when the primary does not answer, as in a failover."""
        if max_lag == 0:
            return [self._primary]
        followers = [b for b in self._replicas if b.alive]
        if not followers:
            return [self._primary]
        self._rotation += 1
        offset = self._rotation % len(followers)
        followers = followers[offset:] + followers[:offset]
        head = self._primary.position
        if max_lag is not None and head is not None:
            def within_lag(backend: _Backend) -> bool:
                # No comparable lag (nothing cached, or a member in
                # another generation than the head's) is out too.
                if backend.position is None:
                    return False
                lag = backend.position.lag_frames(head)
                return lag is not None and lag <= max_lag

            followers = [b for b in followers if within_lag(b)]
        if require is None:
            return followers + [self._primary]
        known = [
            b for b in followers
            if b.position is not None and b.position >= require
        ]
        unknown = [b for b in followers if b not in known]
        return known + [self._primary] + unknown

    # ------------------------------------------------------------------
    # health and failover
    # ------------------------------------------------------------------
    async def _health_loop(self) -> None:
        while not self._draining:
            try:
                await asyncio.wait_for(
                    self._probe_now.wait(), self.probe_interval
                )
            except asyncio.TimeoutError:
                pass
            self._probe_now.clear()
            if self._draining:
                return
            for backend in self._backends():
                await self._probe(backend)
            if not self._primary.alive:
                async with self._failover_lock:
                    if not self._primary.alive:
                        await self._failover()

    async def _probe(self, backend: _Backend) -> None:
        """Ask ``backend`` for its frontier on the probe connection.

        A failed or timed-out probe costs only that connection: the
        forwarding connection, and whatever request is in flight on it,
        is closed only once ``fail_after`` consecutive failures declare
        the member dead."""
        try:
            if backend.prober is None:
                backend.prober = await self._connect(backend)
            response = await asyncio.wait_for(
                backend.prober.position(), self.probe_timeout
            )
        except Exception:
            backend.fails += 1
            await self._drop_prober(backend)
            if backend.fails >= self.fail_after:
                await self._mark_dead(backend)
            return
        backend.fails = 0
        backend.alive = True
        backend.heard(response.get("position"))
        backend.sync_error = response.get("sync_error")

    async def _failover(self) -> None:
        """Elect the most advanced live follower and promote it.

        A candidate that refuses (in-doubt 2PC state, an inconsistent
        sharded cut) or dies mid-promotion is skipped and the next most
        advanced follower is tried.  On success the write route is
        repointed, the elected follower's pre-promotion frontier is
        recorded as a lost floor, and every surviving follower is
        re-attached to the new primary's stream."""

        candidates = sorted(
            (b for b in self._replicas if b.alive),
            key=lambda b: b.position.sort_key() if b.position else (),
            reverse=True,
        )
        for backend in candidates:
            try:
                client = await self._ensure_client(backend)
                probe = await asyncio.wait_for(
                    client.position(), self.probe_timeout
                )
                elected_floor = _parse(probe.get("position"))
                promoted = await client.promote()
            except ServerError:
                continue  # refused (in doubt / off-cut): next candidate
            except (ConnectionError, OSError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError):
                await self._mark_dead(backend)
                continue
            if elected_floor is not None:
                self._lost_floors.append(elected_floor)
            self._replicas = [b for b in self._replicas if b is not backend]
            backend.position = _parse(promoted.get("position"))
            backend.sync_error = None
            backend.alive = True
            backend.fails = 0
            self._primary = backend
            self.failovers += 1
            for survivor in self._replicas:
                try:
                    surviving = await self._ensure_client(survivor)
                    await asyncio.wait_for(
                        surviving.reattach(self._primary.address),
                        self.probe_timeout,
                    )
                except Exception:
                    await self._mark_dead(survivor)
            return
