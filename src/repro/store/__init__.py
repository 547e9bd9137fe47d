"""Crash-safe, schema-guarded directory storage (snapshot + WAL).

* :class:`DirectoryStore` — the store engine (locking, degraded mode);
* :class:`StoreReader` — lock-free read-only views that follow the
  writer's WAL incrementally (:mod:`repro.store.reader`);
* :mod:`repro.store.wal` — checksummed journal frames, the snapshot
  header, and the :class:`~repro.store.wal.StoreIO` indirection layer;
* :mod:`repro.store.recovery` — WAL scan, quarantine, verification;
* :mod:`repro.store.faults` — deterministic fault injection for tests.

A plain store directory (and each member of a sharded one) holds
``snapshot.ldif``, ``journal.ldif`` and ``lock`` (with ``lock.guard``,
which serializes stale-lock reclaim), plus ``replica.state`` while it
follows an upstream.  The snapshot's first line —
``# repro-store snapshot gen=N format=1``, with ``folds=S`` when a
compaction wrote it — is the one place a generation describes itself.

One position, one opener
------------------------
A store directory is plain or sharded, and says so itself
(:func:`~repro.store.shardmap.is_sharded`: a ``shardmap`` file, else a
snapshot).  The openers below pick the class from that, and the two
classes of each pair answer the same names — above all ``position()``,
a :class:`Position` whose plain case is the one-member frontier — so
code above this package never asks, or is told, which kind it holds:

======================  ==================  ======================
opener                  plain               sharded
======================  ==================  ======================
:func:`open_store`      ``DirectoryStore``  ``ShardedStore``
:func:`open_view`       ``StoreReader``     ``CompositeReader``
:func:`open_source`     ``FrameSource``     ``ShardedFrameSource``
:func:`open_replica`    ``ReplicaApplier``  ``ShardedReplicaApplier``
:func:`promote`         ``DirectoryStore``  ``ShardedStore``
======================  ==================  ======================

Maintenance (``fsck``, ``recover``) walks :func:`members` instead: the
member directories, keyed like a :class:`Position`.
"""

import contextlib

from repro.store.journal import DirectoryStore
from repro.store.position import Position
from repro.store.reader import ReaderLag, RefreshResult, StoreReader
from repro.store.recovery import RecoveryReport, recover
from repro.store.replicate import (
    FrameSource,
    ReplicaApplier,
    ShardedFrameSource,
    ShardedReplicaApplier,
    follow,
    promote,
)
from repro.store.sharded import CompositeReader, ShardedStore
from repro.store.shardmap import is_sharded, members
from repro.store.wal import StoreIO

__all__ = [
    "DirectoryStore",
    "StoreReader",
    "RefreshResult",
    "ReaderLag",
    "RecoveryReport",
    "recover",
    "StoreIO",
    "Position",
    "is_sharded",
    "members",
    "lock_members",
    "open_store",
    "open_view",
    "open_source",
    "open_replica",
    "follow",
    "promote",
]


def lock_members(paths):
    """Take the writer's advisory lock on every member store of a
    :func:`members` map, or on none
    (:class:`~repro.errors.StoreLockedError` names a live holder); the
    returned stack releases them when closed."""
    locks = contextlib.ExitStack()
    try:
        for path in paths.values():
            locks.enter_context(DirectoryStore._acquire_lock(path))
    except BaseException:
        locks.close()
        raise
    return locks


def open_store(directory, schema, registry=None, **options):
    """Open the writable store ``directory`` holds (writer lock taken,
    recovery run): ``store.apply`` / ``modify`` / ``check`` /
    ``position()`` / ``instance`` / ``close()``."""
    kind = ShardedStore if is_sharded(directory) else DirectoryStore
    return kind.open(directory, schema, registry, **options)


def open_view(directory, schema, registry=None, **options):
    """Open a lock-free read-only view of the store ``directory``
    holds: ``view.refresh()`` / ``search`` / ``check`` / ``position()``
    / ``instance`` / ``close()``.  A sharded primary's view pins each
    refresh to the coordinator log.  A replica is read from the copy
    its applier applies into instead (``applier.served()``, on the
    thread that lands its messages), which no read refreshes."""
    kind = CompositeReader if is_sharded(directory) else StoreReader
    return kind.open(directory, schema, registry, **options)


def open_source(directory, schema, position):
    """A replication frame source over the store ``directory`` holds,
    attached at a follower's durable ``position`` (``source.poll()``).
    A position of the other kind attaches nowhere — the follower gets
    the full state and settles the mismatch against the acknowledgement
    (:func:`~repro.store.replicate.follow`)."""
    if is_sharded(directory):
        source = ShardedFrameSource(directory, schema)
        source.attach(position)
    else:
        source = FrameSource(directory, schema)
        source.attach(*position.get(None))
    return source


def open_replica(directory, schema, registry=None, **options):
    """Open the follower applier for ``directory``:
    ``applier.apply_message`` (= ``stage``, the disk half, ``land``,
    the memory half, then ``record``, the state files the land changed)
    / ``position()`` / ``lag_frames()`` /
    ``consistent()`` / ``served()`` (the replica's one served copy, read
    on the thread that lands) / ``close()``.  A fresh
    directory opens plain until :func:`~repro.store.replicate.follow`
    has the upstream's acknowledgement to go by."""
    kind = ShardedReplicaApplier if is_sharded(directory) else ReplicaApplier
    return kind(directory, schema, registry, **options)
