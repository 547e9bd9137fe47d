"""Wire protocol: length-prefixed JSON frames, LDAP-ish operations.

Framing
-------
Every message — request, response, or server-pushed notification — is
one *frame*: a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON encoding one object.  Frames larger than
:data:`MAX_FRAME_BYTES` are refused on both ends (a malformed or
malicious length prefix must not buffer gigabytes).

Requests and responses
----------------------
A request object carries ``op`` (the operation name), ``id`` (an
integer the response echoes, so a client can pipeline), and
operation-specific fields.  A response carries the echoed ``id``,
``ok`` (boolean), and either result fields or ``error``/``message``.
Server-pushed commit notifications have ``op: "notify"`` and *no*
``id`` — they are not responses to anything.

The shape of every request — per operation, each field's name, JSON
type and whether it is required — is stated once, in :data:`REQUESTS`
below, and enforced once (:func:`checked_request`) by the connection
loop both members run (:mod:`repro.server.service`) before any handler
sees the request: a field of the wrong type, or a required field
missing, answers ``bad_request`` naming the field.  A field the table
does not declare is **ignored** (and not forwarded by a front door), so
an older member tolerates a newer client; a declared field that is
``null`` counts as absent.

Operations
----------
``bind``
    ``dn`` (may be ``""`` for anonymous).  Every other operation
    requires a prior bind on the connection — the LDAP model, minus
    authentication (there are no credentials to check yet; the bind
    establishes *who* the connection claims to be and gates the rest
    of the protocol).
``unbind``
    Ends the session; the server closes the connection after replying.
``ping``
    Liveness probe; allowed before bind.
``search``
    ``base`` (optional DN string), ``scope`` (``base``/``one``/``sub``/
    ``children``), ``filter`` (RFC 4515 string, optional),
    ``size_limit`` (optional positive int).  Returns ``entries`` — a
    list of ``{"dn": ..., "attributes": {name: [values...]}}`` in
    canonical global document order — a ``truncated`` flag (true when
    ``size_limit`` cut the result after canonical ordering, i.e. at
    least one further match exists), and the ``position`` the serving
    reader's view sat at (always a committed frontier).  Two optional
    fields address a front door (a member server checks their shape
    and otherwise ignores them):
    ``require_seq`` — a ``position`` payload the serving replica's
    frontier must have reached (read-your-writes) — and ``max_lag``
    (``0`` forces primary reads).
``add`` / ``delete`` / ``txn``
    Mutations as update transactions.  ``add`` carries ``dn``,
    ``classes`` (a list of strings), ``attributes`` (an object mapping
    each name to a list of values — JSON strings, numbers or booleans;
    an object, array or ``null`` as a value is refused); ``delete``
    carries ``dn``; ``txn``
    carries ``changes`` — an LDIF changes document (multiple
    add/delete records, one transaction, atomic; a document spanning
    shards rides the two-phase commit path unchanged).  The response
    carries ``applied`` and, on rejection, ``violations``.
``modify``
    ``changes`` — an LDIF document of ``changetype: modify`` records,
    each applied (and journaled) individually.  The response carries
    ``results`` — per record its ``dn``, ``applied`` and ``violations``
    — ``applied`` (all of them) and the ``position`` after the batch.  A
    record that cannot be staged at all (no such entry, a ``modrdn``)
    is refused the same way, its error text as the violation: the
    records around it still commit.
``check``
    The extended operation: run the full Figure 4 legality check on
    the connection's freshly refreshed view.  Returns ``legal``,
    ``violations``, ``entries`` (count), and ``position``.
``watch``
    Subscribe this connection to commit notifications: after each
    committed write the server pushes ``{"op": "notify", "seq": N}``
    frames — the push replacement for ``check --follow`` polling.
    Notifications to a stalled subscriber coalesce in a bounded
    per-subscriber cell (the server never buffers per-commit frames);
    when the subscriber catches up, the next frame carries
    ``"dropped": k`` — k notifications were folded away, so re-read
    rather than trust the gap.
``position``
    The server's role (``primary``/``replica``) and committed frontier
    as a ``position`` payload — ``{"generation": g, "seq": s}`` for a
    plain store, ``{shard: [g, s], ...}`` for a sharded one.  Allowed
    before bind: it is the front door's health-probe surface.  Replica
    servers add ``upstream``, (sharded) ``consistent`` — whether the
    cohort sits exactly on its last replicated cut —
    ``lag_frames`` once the upstream's frontier is known,
    and ``sync_error`` while the sync loop cannot follow its upstream
    for a reason other than a broken connection.
``promote``
    Ask a replica server to promote its local replica tree to a
    primary in place (:func:`repro.store.promote`,
    including its refusals: an in-doubt 2PC prepare, or a sharded
    cohort off its cut).  On success the server starts serving writes
    and returns ``role: "primary"`` plus its new ``position``.
``reattach``
    Repoint a replica server's sync loop at a new ``upstream``
    (``"host:port"``) — how a front door re-homes survivors behind the
    generation bump after failover.
``replicate``
    Subscribe this connection as a WAL-shipping replication follower.
    Against a plain store the request carries the follower's durable
    ``generation``/``seq``; against a sharded store it carries
    ``shards`` — a map of per-shard ``[generation, seq]`` pairs — and
    the stream multiplexes every shard's frames tagged with ``shard``,
    punctuated by ``kind: "cut"`` messages marking coordinator-
    consistent frontiers (see below).  The response acknowledges with
    the primary's committed frontier.  The server then pushes stream
    messages with ``op: "repl"`` and no ``id``:

    * ``kind: "snapshot"`` — the snapshot file verbatim (sent when the
      position cannot be served incrementally; a snapshot bigger than
      :data:`MAX_FRAME_BYTES` cannot be shipped — seed such a replica
      from a file copy and subscribe at its position instead);
    * ``kind: "schema"`` — announces a generation (schema fingerprint,
      resume seq, optional compaction ``folds`` frontier) and MUST
      precede that generation's data frames — the schema-before-data
      ordering replication promises;
    * ``kind: "frames"`` — a raw committed byte slice of the journal
      (``generation``, ``start_seq``, ``data``, ``crc``).  In-doubt
      2PC prepares never ship; decided pairs ship whole.
    * ``kind: "shardmap"`` / ``kind: "cut"`` — sharded streams only:
      the shard layout file, and the per-shard frontier the batch just
      shipped lands on (a coordinator-consistent cut — the follower
      applies everything since the last cut atomically, so it never
      observes half a spanning transaction);
    * ``kind: "error"`` — the last message of a stream the server cannot
      go on shipping (``error``: why, e.g. a corrupt coordinator log);
      the connection closes after it, and a replica reports the text as
      its ``sync_error`` and retries.

    See :mod:`repro.store.replicate` for the exact stream contract.
``topology``
    Served by the front door (:mod:`repro.server.frontdoor`) only, and
    allowed before bind: the routing table with every member's
    address, liveness, cached frontier, and the recorded lost floors.
    The door serves ``ping``/``bind``/``unbind``, the reads and the
    writes besides; ``watch``/``replicate``/``promote``/``reattach``
    address one member and are refused there.  A read whose required
    position died with a failed primary answers a typed
    ``position_lost`` error.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from repro.store.position import Position

__all__ = [
    "MAX_FRAME_BYTES",
    "REQUESTS",
    "BadRequest",
    "ProtocolError",
    "checked_request",
    "parse_address",
    "encode_frame",
    "decode_frame",
    "read_frame",
    "write_frame",
    "error_response",
    "ok_response",
]

#: Refuse frames above this size on both ends (16 MiB — far above any
#: legitimate request, far below what a hostile length prefix could ask
#: the peer to buffer).
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class ProtocolError(Exception):
    """A malformed frame or message (framing layer, not business logic)."""


class BadRequest(Exception):
    """A decodable request the protocol refuses — a field off the shape
    :data:`REQUESTS` declares, or an operation that makes no sense on
    this member.  The connection loop answers it ``bad_request``."""


def parse_address(address) -> Tuple[str, int]:
    """``"host:port"`` → ``(host, port)``; :class:`ValueError` unless the
    host is non-empty and the port a decimal in 1..65535.  The one
    parser of member addresses: CLI flags, ``reattach`` and every
    connect go through it."""
    if isinstance(address, str):
        host, _, port = address.rpartition(":")
        if host and port.isascii() and port.isdigit() and 0 < int(port) < 65536:
            return host, int(port)
    raise ValueError(f"an address is host:port, got {address!r}")


# ----------------------------------------------------------------------
# the request table: the protocol's own bounding-schema
# ----------------------------------------------------------------------
_SCOPES = ("base", "one", "sub", "children")


def _string(value) -> None:
    if not isinstance(value, str):
        raise ValueError(f"must be a string, got {value!r}")


def _strings(value) -> None:
    if not isinstance(value, list) or not all(
        isinstance(item, str) for item in value
    ):
        raise ValueError(f"must be a list of strings, got {value!r}")


def _attributes(value) -> None:
    # bool is an int: strings, numbers and booleans pass, nothing else.
    if not isinstance(value, dict) or not all(
        isinstance(values, list)
        and all(isinstance(item, (str, int, float)) for item in values)
        for values in value.values()
    ):
        raise ValueError(
            "must map names to lists of strings, numbers or booleans, "
            f"got {value!r}"
        )


def _scope(value) -> None:
    if value not in _SCOPES:
        raise ValueError(f"must be one of {_SCOPES}, got {value!r}")


def _integer(minimum: int) -> Callable:
    def check(value) -> None:
        # ``type(...) is int``, not isinstance: True and False are ints.
        if type(value) is not int or value < minimum:
            raise ValueError(f"must be an integer >= {minimum}, got {value!r}")

    return check


class Field(NamedTuple):
    """One declared request field: ``check(value)`` raises
    :class:`ValueError` on a value of the wrong shape."""

    check: Callable
    required: bool = False


_REQUIRED_STRING = Field(_string, required=True)
_STALENESS = {
    "require_seq": Field(Position.from_wire),
    "max_lag": Field(_integer(0)),
}

#: ``{op: {field: Field}}`` — every operation either member serves, and
#: every field a handler may read.  What a class *must* and *may* carry,
#: said once and enforced by one checker (:func:`checked_request`), as
#: the paper's class schema does for directory entries.
REQUESTS: Dict[str, Dict[str, Field]] = {
    "ping": {},
    "bind": {"dn": Field(_string)},
    "unbind": {},
    "search": {
        "base": Field(_string),
        "scope": Field(_scope),
        "filter": Field(_string),
        "size_limit": Field(_integer(1)),
        **_STALENESS,
    },
    "check": _STALENESS,
    "add": {
        "dn": _REQUIRED_STRING,
        "classes": Field(_strings),
        "attributes": Field(_attributes),
    },
    "delete": {"dn": _REQUIRED_STRING},
    "txn": {"changes": _REQUIRED_STRING},
    "modify": {"changes": _REQUIRED_STRING},
    "watch": {},
    "position": {},
    "promote": {},
    "reattach": {"upstream": Field(parse_address, required=True)},
    # The follower's durable position, inline: each field is checked
    # through the one parser of that shape.
    "replicate": {
        name: Field(lambda value, name=name: Position.from_fields({name: value}))
        for name in Position.FIELDS
    },
    "topology": {},
}


def checked_request(request: dict) -> dict:
    """``request`` (its ``op`` one of :data:`REQUESTS`) reduced to
    ``op``, ``id`` and the fields the table declares for that op, each
    checked; :class:`BadRequest` names the first field that is off.
    Undeclared fields are dropped, ``null`` is absent."""
    op = request["op"]
    checked = {"op": op, "id": request.get("id")}
    for name, field in REQUESTS[op].items():
        value = request.get(name)
        if value is None:
            if field.required:
                raise BadRequest(f"{op} requires {name}")
            continue
        try:
            field.check(value)
        except ValueError as exc:
            raise BadRequest(f"{op} {name}: {exc}") from None
        checked[name] = value
    return checked


def encode_frame(message: dict) -> bytes:
    """One wire frame: big-endian length prefix + UTF-8 JSON body."""
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES} limit"
        )
    return _LENGTH.pack(len(body)) + body


def decode_frame(body: bytes) -> dict:
    """Decode a frame *body* (the bytes after the length prefix)."""
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: a body nested deeper than the parser's stack.
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame must encode an object, got {type(message).__name__}"
        )
    return message


async def read_frame(reader: asyncio.StreamReader) -> Optional[dict]:
    """Read one frame; ``None`` on a clean EOF at a frame boundary.

    Raises
    ------
    ProtocolError
        On an oversized length prefix, a truncated frame, or an
        undecodable body.
    """
    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between frames
        raise ProtocolError("connection closed mid-length-prefix") from exc
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"peer announced a {length}-byte frame "
            f"(limit {MAX_FRAME_BYTES}); refusing to buffer it"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    return decode_frame(body)


async def write_frame(writer: asyncio.StreamWriter, message: dict) -> None:
    """Encode and send one frame, honouring flow control."""
    writer.write(encode_frame(message))
    await writer.drain()


def ok_response(request_id, **fields) -> dict:
    """A success response echoing the request's ``id``."""
    response = {"id": request_id, "ok": True}
    response.update(fields)
    return response


def error_response(request_id, code: str, message: str) -> dict:
    """A failure response: ``error`` is a stable machine-readable code
    (e.g. ``"filter_syntax"``, ``"not_bound"``), ``message`` the human
    explanation."""
    return {"id": request_id, "ok": False, "error": code, "message": message}
