"""Asyncio network front-end: the directory as a service.

The paper's algorithms run in-process; this package puts them behind a
socket.  :mod:`repro.server.protocol` defines a small LDAP-ish wire
subset (bind, search, add/delete/modify as transactions, unbind, plus a
``check`` extended operation) over length-prefixed JSON framing;
:mod:`repro.server.server` serves it from one copy per member, read
by every connection — a plain primary's writer, a sharded primary's
lock-free view (:func:`repro.store.open_view`, refreshed O(|Δ|) before
a read that finds it behind), a replica's the copy its applier applies
into — and a single write path through the owning store
(:func:`repro.store.open_store`) — plain or sharded, whichever the
directory holds;
:mod:`repro.server.client` is the asyncio client used by the tests,
the end-to-end benchmark and the front door's backend pool;
:mod:`repro.server.frontdoor` is the read-balancing proxy that routes
writes to a primary and spreads ``search``/``check`` across replica
servers under a bounded-staleness contract, with automatic failover.
Server and front door are the same :mod:`repro.server.service` — one
connection loop, one check of each request against the protocol's
request table — with different op tables.
"""

from repro.server.client import DirectoryClient
from repro.server.frontdoor import FrontDoor
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_frame,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.server.server import DirectoryServer

__all__ = [
    "DirectoryClient",
    "DirectoryServer",
    "FrontDoor",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "decode_frame",
    "encode_frame",
    "read_frame",
    "write_frame",
]
