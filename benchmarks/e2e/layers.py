"""The traced run: where one request's milliseconds go, layer by layer.

Layers are measured from outside, by timing calls into their public
functions; spans inside the program are a later change.  Two replays of
the same op prefix give the numbers:

(a) **live** — single connection against the running topology, ops of
    each kind alternating *through the door* and *direct to the member*
    that serves them, plus a background poll of follower positions
    after every write;
(b) **in-process** — the same ops pushed through a benchmark-owned
    pipeline over a twin store, every stage inside a span
    ``(name, start, end, parent, op_id)``.  Single-threaded over fixed
    ops, so every count it produces repeats exactly.

For each op kind the stage medians of (b), ``server.unattributed_*``
(= direct median - sum of stage medians: sockets, asyncio, executor
hops) and ``frontdoor.hop_*`` (= door median - direct median) sum to
the through-door median of (a) by construction.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import statistics
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

import loadgen
from topology import Topology, tree_bytes
from workloads import WRITE_KINDS, Op

from repro.ldif.changes import parse_changes, serialize_changes
from repro.ldif.modify import parse_modifications, serialize_modification
from repro.legality.checker import LegalityChecker
from repro.query.filter_parser import parse_filter
from repro.server.protocol import decode_frame, encode_frame, ok_response
from repro.store import DirectoryStore
from repro.store.reader import StoreReader
from repro.store.replicate import (
    FrameSource,
    ReplicaApplier,
    ShardedFrameSource,
    ShardedReplicaApplier,
)
from repro.store.sharded import CompositeReader, ShardedStore
from repro.store.txlog import TXLOG_FILE
from repro.store.wal import StoreIO, encode_record
from repro.updates.incremental import IncrementalChecker
from repro.updates.operations import UpdateTransaction

#: Ops replayed per connection.  The issue asks for 1,000; the driver's
#: time cap per run leaves room for this many.
TRACE_OPS = 200
#: Share of ``--seconds`` the traced run spends on a loaded phase, for
#: the per-kind latencies under load and the generator's CPU share.
LOADED_SHARE = 0.3
KINDS = ("search", "write", "ryw_search", "check")


def kind_of(op: Op) -> str:
    return "write" if op.kind in WRITE_KINDS else op.kind


def p50_ms(seconds: List[float]) -> float:
    return 1e3 * statistics.median(seconds) if seconds else 0.0


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans ``[name, start, end, parent, op_id]``; ``parent``
    is an index into :attr:`spans` or -1."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._open: List[int] = []
        self.op_id = -1

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else -1, self.op_id])
        self._open.append(index)
        self.spans[index][1] = time.perf_counter()
        try:
            yield self.spans[index]
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def self_seconds(self) -> List[tuple]:
        """``(name, op_id, self time)`` per span: its duration minus the
        part of it its child spans cover."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [
            (name, op_id, (end - start) - covered[index])
            for index, (name, start, end, _parent, op_id) in enumerate(self.spans)
        ]

    def overhead_us(self, rounds: int = 20000) -> float:
        probe = Tracer()
        began = time.perf_counter()
        for _ in range(rounds):
            with probe.span("empty"):
                pass
        return 1e6 * (time.perf_counter() - began) / rounds


# ----------------------------------------------------------------------
# (a) the live replay
# ----------------------------------------------------------------------
async def live_replay(topo: Topology, ops: List[tuple], twin: dict) -> dict:
    """``ops`` is ``[(connection, op), ...]``.  Returns per-kind door and
    direct latencies, the follower lag samples and the oracle's verdict."""
    # one door connection per stream, as under load: the door keeps a
    # monotonic read floor per connection, and A's writes must not raise B's
    doors = await loadgen.connect(topo.door.port)
    primary, *replicas = [
        (await loadgen.connect(member.port, 1))[0]
        for member in [topo.primary, *topo.replicas]
    ]
    taken = {kind: 0 for kind in KINDS}
    latency = {(via, kind): [] for via in ("door", "direct") for kind in KINDS}
    lags: List[float] = []
    polls: List[asyncio.Task] = []
    positions: Dict[int, Optional[dict]] = {0: None, 1: None}
    failed, problems = 0, []

    async def visible(position: dict) -> None:
        lags.append(max([
            await topo.wait_position(member, position, timeout=30.0)
            for member in topo.replicas
        ]))

    try:
        for connection, op in ops:
            kind = kind_of(op)
            through_door = taken[kind] % 2 == 0
            taken[kind] += 1
            fields = dict(op.request)
            if kind in ("ryw_search", "check") and positions[connection]:
                fields["require_seq"] = positions[connection]
            if through_door:
                client = doors[connection]
            elif kind == "search" and replicas:
                client = replicas[taken[kind] // 2 % len(replicas)]
            else:
                client = primary
            sent = time.perf_counter()
            reply = await client.request(op.wire_op, **fields)
            latency[("door" if through_door else "direct", kind)].append(
                time.perf_counter() - sent
            )
            problem = loadgen.verify(op, reply)
            if problem is not None:
                failed += 1
                problems.append(f"live {op.kind} {op.request}: {problem}")
            elif kind == "write" and reply.get("applied"):
                positions[connection] = reply["position"]
                loadgen.apply_effect(twin, op.effect)
                if topo.replicas:
                    polls.append(asyncio.ensure_future(visible(reply["position"])))
        await asyncio.gather(*polls)
    finally:
        for poll in polls:
            poll.cancel()
        for client in [*doors, primary, *replicas]:
            await client.close()
    return {"latency": latency, "lags": lags, "failed": failed, "problems": problems[:20]}


# ----------------------------------------------------------------------
# (b) the in-process pipeline over a twin store
# ----------------------------------------------------------------------
def _payload(instance, entry) -> dict:
    # what server.server builds per result entry, from public accessors
    return {
        "dn": instance.dn_string_of(entry),
        "attributes": {n: list(entry.values(n)) for n in entry.attribute_names()},
    }


class TracedIO(StoreIO):
    """The store's own I/O seam, with the journal append inside a span."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def append_bytes(self, path: str, data: bytes) -> None:
        with self.tracer.span("wal.append_fsync"):
            super().append_bytes(path, data)


@contextmanager
def traced_delta_checks(tracer: Tracer):
    """Wrap the incremental checker's two public entry points in spans
    for the length of the replay: the stores build their guard
    themselves, so there is no instance to hand a traced one to."""
    originals = {
        name: getattr(IncrementalChecker, name)
        for name in ("apply_transaction", "try_modify")
    }

    def traced(original):
        def call(self, *args, **kwargs):
            with tracer.span("incremental.check") as span:
                outcome = original(self, *args, **kwargs)
                if not outcome.applied:
                    span[0] = "incremental.reject"
                return outcome
        return call

    for name, original in originals.items():
        setattr(IncrementalChecker, name, traced(original))
    try:
        yield
    finally:
        for name, original in originals.items():
            setattr(IncrementalChecker, name, original)


class Pipeline:
    """A twin of the primary (store, serving view, replica) in ``work``
    and one method per op kind that walks the layers in serving order."""

    def __init__(self, work: str, spec, baseline) -> None:
        self.spec = spec
        self.sharded = bool(spec.shard_bases)
        self.schema, self.registry = spec.schema(), spec.registry()
        self.tracer = Tracer()
        self.counts: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        os.makedirs(work)
        self.store_dir = os.path.join(work, "primary")
        self.replica_dir = os.path.join(work, "replica")
        self.baseline_size = len(baseline)
        io = TracedIO(self.tracer)
        if self.sharded:
            self.store = ShardedStore.create(
                self.store_dir, self.schema, dict(spec.shard_bases), baseline,
                self.registry, io=io,
            )
        else:
            self.store = DirectoryStore.create(
                self.store_dir, self.schema, baseline, self.registry, io=io
            )
        # one serving view per connection, as the servers keep them: a
        # shared one would let B's reads absorb the replay of A's frames
        reader = CompositeReader if self.sharded else StoreReader
        self.views = []
        for _connection in range(loadgen.CONNECTIONS):
            began = time.perf_counter()
            view = reader.open(self.store_dir, self.schema, self.registry)
            len(view.instance)  # a composite view stitches on first use
            self.sample("reader.open", time.perf_counter() - began)
            self.views.append(view)
        self.view = self.views[0]

        if self.sharded:
            self.source = ShardedFrameSource(self.store_dir, self.schema)
            self.source.attach({})
            self.applier = ShardedReplicaApplier(self.replica_dir, self.schema, self.registry)
        else:
            self.source = FrameSource(self.store_dir, self.schema)
            self.source.attach(0, 0)
            self.applier = ReplicaApplier(self.replica_dir, self.schema, self.registry)
        self.ship(record=False)  # bootstrap snapshot
        self.disk_before = tree_bytes(self.store_dir) + tree_bytes(self.replica_dir)

    def close(self) -> None:
        for view in self.views:
            view.close()
        self.applier.close()
        self.store.close()

    # -- helpers ---------------------------------------------------------
    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def sample(self, name: str, seconds: float) -> None:
        self.samples.setdefault(name, []).append(seconds)

    def frame_round_trip(self, message: dict, direction: str) -> dict:
        with self.tracer.span("protocol.encode"):
            frame = encode_frame(message)
        with self.tracer.span("protocol.decode"):
            decoded = decode_frame(frame[4:])
        self.add(f"protocol.bytes_{direction}", len(frame))
        return decoded

    def refresh(self) -> None:
        began = time.perf_counter()
        with self.tracer.span("reader.refresh"):
            result = self.view.refresh()
        took = time.perf_counter() - began
        if self.sharded:
            frames = sum(r.frames_replayed for r in result.per_shard.values())
        else:
            frames = result.frames_replayed
        if frames:
            self.sample("reader.refresh", took)
            self.add("reader.frames", frames)
            self.add("reader.refreshes", 1)
        else:
            self.sample("reader.refresh_idle", took)

    def ship(self, record: bool = True) -> None:
        """One poll of the frame source and its application on the replica."""
        began = time.perf_counter()
        batch = self.source.poll()
        polled = time.perf_counter()
        before = self.applier.frames_applied
        for message in batch:
            self.applier.apply_message(message)
        applied = time.perf_counter()
        if record and batch:
            self.sample("replicate.poll", polled - began)
            self.sample("replicate.apply", applied - polled)
            self.add("replicate.bytes", sum(len(encode_frame(m)) for m in batch))
            self.add("replicate.frames", self.applier.frames_applied - before)

    def txlog_bytes(self) -> int:
        log = os.path.join(self.store_dir, TXLOG_FILE)
        return os.path.getsize(log) if os.path.exists(log) else 0

    # -- one method per kind ---------------------------------------------
    def run(self, op_id: int, connection: int, op: Op) -> Optional[str]:
        self.tracer.op_id = op_id
        self.view = self.views[connection]
        kind = kind_of(op)
        with self.tracer.span(kind):
            request = self.frame_round_trip(
                {"op": op.wire_op, "id": op_id, **op.request}, "in"
            )
            if kind == "write":
                reply = self.write(op, request)
            elif kind == "check":
                reply = self.check(request)
            else:
                reply = self.search(request)
            reply = self.frame_round_trip(reply, "out")
        if kind == "write":
            self.ship()
        return loadgen.verify(op, reply)

    def search(self, request: dict) -> dict:
        self.refresh()
        with self.tracer.span("filter.parse"):
            parsed = parse_filter(request["filter"])
        limit = request.get("size_limit")
        indexes = getattr(self.view.instance, "indexes", None)
        before = indexes.counters() if indexes is not None else (0, 0, 0)
        with self.tracer.span("reader.search"):
            entries = self.view.search(
                base=request.get("base"), scope=request["scope"], filter=parsed,
                size_limit=None if limit is None else limit + 1,
            )
        if indexes is not None:
            probes, hits, candidates = (
                after - was for after, was in zip(indexes.counters(), before)
            )
            self.add("index.probes", probes)
            self.add("index.hits", hits)
            self.add("index.candidates", candidates)
        self.add("index.searches", 1)
        self.add("index.results", len(entries))
        truncated = limit is not None and len(entries) > limit
        with self.tracer.span("server.payload"):
            instance = self.view.instance
            payload = [_payload(instance, e) for e in entries[:limit]]
        return ok_response(request["id"], entries=payload, truncated=truncated, position={})

    def check(self, request: dict) -> dict:
        self.refresh()
        with self.tracer.span("legality.check"):
            report = self.view.check()
        began = time.perf_counter()
        self.view.check()  # unchanged view: the memoized path
        self.sample("legality.warm_check", time.perf_counter() - began)
        return ok_response(
            request["id"], legal=report.is_legal, violations=[str(v) for v in report],
            entries=len(self.view.instance), position={},
        )

    def write(self, op: Op, request: dict) -> dict:
        log_before = self.txlog_bytes()
        if op.kind == "modify":
            with self.tracer.span("ldif.parse"):
                records = parse_modifications(request["changes"])
            with self.tracer.span("journal.apply"):
                outcomes = [self.store.modify(record) for record in records]
            journaled = [(serialize_modification, record) for record in records]
        else:
            with self.tracer.span("ldif.parse"):
                if op.kind == "txn":
                    transaction = parse_changes(request["changes"])
                elif op.kind == "add":
                    transaction = UpdateTransaction().insert(
                        request["dn"], request["classes"], request["attributes"]
                    )
                else:
                    transaction = UpdateTransaction().delete(request["dn"])
            applying = time.perf_counter()
            with self.tracer.span("journal.apply"):
                outcomes = [self.store.apply(transaction)]
            if self.sharded:
                spanning = any("2pc" in line for line in outcomes[0].checks)
                which = "spanning" if spanning else "local"
                self.sample(f"sharded.apply_{which}", time.perf_counter() - applying)
                self.add(f"txlog.{which}_bytes", self.txlog_bytes() - log_before)
                self.add(f"txlog.{which}_txns", 1)
            journaled = [(serialize_changes, transaction)]
        for outcome in outcomes:
            stats = outcome.stats
            if stats is not None:
                self.add("incremental.content_checks", stats.entries_checked)
                self.add("incremental.cache_hits", stats.cache_hits)
                self.add("incremental.cache_misses", stats.cache_misses)
                self.add("incremental.query_work", stats.queries_evaluated)
        self.add("incremental.writes", 1)

        # the two pure steps between the delta-check and the append, run
        # again here to be timed alone (off this op's clock); their
        # medians come off journal.apply's self time
        for (serialize, payload), outcome in zip(journaled, outcomes):
            if not outcome.applied:
                continue
            began = time.perf_counter()
            text = serialize(payload)
            serialized = time.perf_counter()
            frame = encode_record(1, 1, text)
            self.sample("ldif.serialize", serialized - began)
            self.sample("wal.encode", time.perf_counter() - serialized)
            self.add("wal.frame_bytes", len(frame))
            self.add("wal.user_bytes", len(text.encode("utf-8")))
            self.add("disk.writes", 1)
        violations = [str(v) for outcome in outcomes for v in outcome.report]
        return ok_response(
            request["id"], applied=all(o.applied for o in outcomes),
            violations=violations, position={},
        )


def one_off_measurements(pipeline: Pipeline, baseline) -> None:
    """Costs paid once per process rather than per request."""
    checker = LegalityChecker(pipeline.schema, structure="batched")
    began = time.perf_counter()
    report = checker.check(baseline)
    pipeline.samples["legality.full_check"] = [time.perf_counter() - began]
    checker.close()
    if not report.is_legal:
        raise RuntimeError("the baseline instance is not legal")

    pipeline.close()
    opener = ShardedStore if pipeline.sharded else DirectoryStore
    began = time.perf_counter()
    store = opener.open(pipeline.store_dir, pipeline.schema, pipeline.registry)
    pipeline.samples["recovery.open"] = [time.perf_counter() - began]
    instance = store.composite_instance() if pipeline.sharded else store.instance
    pipeline.counts["recovery.entries"] = len(instance)
    store.close()


# ----------------------------------------------------------------------
# putting the two replays together
# ----------------------------------------------------------------------
def stage_table(pipeline: Pipeline, live: dict, ops: List[tuple]) -> Dict[str, dict]:
    """Per op kind: the in-process stage medians (per-op self time), then
    ``server.unattributed`` and ``frontdoor.hop`` so the rows sum to the
    through-door median."""
    kind_by_op = {index: kind_of(op) for index, (_conn, op) in enumerate(ops)}
    per_op: Dict[tuple, float] = {}
    for name, op_id, self_time in pipeline.tracer.self_seconds():
        if name not in KINDS:  # the kind span's own self time is loop glue
            key = (kind_by_op[op_id], name, op_id)
            per_op[key] = per_op.get(key, 0.0) + self_time
    table: Dict[str, dict] = {}
    for kind in KINDS:
        door = live["latency"][("door", kind)]
        direct = live["latency"][("direct", kind)]
        if not door or not direct:
            continue
        of_kind = [op_id for op_id, k in kind_by_op.items() if k == kind]
        names = sorted({name for (k, name, _op) in per_op if k == kind})
        # an op that skips a stage (a rejected write appends nothing)
        # counts as zero, so a stage few ops reach does not pad the sum
        rows = {
            name: p50_ms([per_op.get((kind, name, op_id), 0.0) for op_id in of_kind])
            for name in names
        }
        if kind == "write":
            for name in ("ldif.serialize", "wal.encode"):
                rows[name] = p50_ms(pipeline.samples.get(name, []))
                rows["journal.apply"] -= rows[name]
            rows["journal.apply_self"] = rows.pop("journal.apply")
        rows["server.unattributed"] = p50_ms(direct) - sum(rows.values())
        rows["frontdoor.hop"] = p50_ms(door) - p50_ms(direct)
        rows["= through the door"] = p50_ms(door)
        table[kind] = rows
    return table


def layer_metrics(pipeline: Pipeline, live: dict, loaded: dict, table: dict) -> dict:
    counts, samples = pipeline.counts, pipeline.samples

    def ratio(top: str, bottom: str) -> float:
        return counts.get(top, 0.0) / counts[bottom] if counts.get(bottom) else 0.0

    def stage(kind: str, name: str) -> float:
        return table.get(kind, {}).get(name, 0.0)

    calls: Dict[str, List[float]] = {}
    for name, start, end, _parent, _op in pipeline.tracer.spans:
        calls.setdefault(name, []).append(end - start)

    def span(name: str) -> float:
        """Median whole duration of one call of a traced stage."""
        return p50_ms(calls.get(name, []))

    def sample(name: str) -> float:
        """Median of the stopwatch samples taken beside the replay."""
        return p50_ms(samples.get(name, []))

    def load(kind: str) -> float:
        return loaded["detail"].get(f"load.{kind}_p50_ms", (0.0,))[0]

    full_s = samples["legality.full_check"][0]
    open_s = samples["recovery.open"][0]
    replayed = len({span[4] for span in pipeline.tracer.spans})
    metrics = {
        "protocol.encode_ms": statistics.median(
            [table[k]["protocol.encode"] for k in table] or [0.0]),
        "protocol.decode_ms": statistics.median(
            [table[k]["protocol.decode"] for k in table] or [0.0]),
        "protocol.bytes_in": counts.get("protocol.bytes_in", 0.0) / replayed,
        "protocol.bytes_out": counts.get("protocol.bytes_out", 0.0) / replayed,
        "filter.parse_ms": stage("search", "filter.parse"),
        "reader.refresh_idle_ms": sample("reader.refresh_idle"),
        "reader.refresh_ms": sample("reader.refresh"),
        "reader.frames_per_refresh": ratio("reader.frames", "reader.refreshes"),
        "reader.search_ms": stage("search", "reader.search"),
        "reader.open_ms": sample("reader.open"),
        "server.payload_ms": stage("search", "server.payload"),
        "index.probes_per_search": ratio("index.probes", "index.searches"),
        "index.candidates_per_result": ratio("index.candidates", "index.results"),
        "index.hit_share": ratio("index.hits", "index.probes"),
        "ldif.parse_ms": stage("write", "ldif.parse"),
        "ldif.serialize_ms": sample("ldif.serialize"),
        "incremental.check_ms": span("incremental.check"),
        "incremental.reject_ms": span("incremental.reject"),
        "incremental.content_checks": ratio("incremental.content_checks", "incremental.writes"),
        "incremental.cache_hit_share": (
            counts.get("incremental.cache_hits", 0.0)
            / max(1.0, counts.get("incremental.cache_hits", 0.0)
                  + counts.get("incremental.cache_misses", 0.0))),
        "incremental.query_work": ratio("incremental.query_work", "incremental.writes"),
        "wal.encode_ms": sample("wal.encode"),
        "wal.append_fsync_ms": span("wal.append_fsync"),
        "wal.bytes_per_user_byte": ratio("wal.frame_bytes", "wal.user_bytes"),
        "journal.apply_ms": span("journal.apply"),
        "journal.apply_self_ms": stage("write", "journal.apply_self"),
        "sharded.apply_local_ms": sample("sharded.apply_local"),
        "sharded.apply_spanning_ms": sample("sharded.apply_spanning"),
        "txlog.bytes_per_spanning_txn": ratio("txlog.spanning_bytes", "txlog.spanning_txns"),
        "txlog.bytes_per_local_txn": ratio("txlog.local_bytes", "txlog.local_txns"),
        "replicate.poll_ms": sample("replicate.poll"),
        "replicate.apply_ms": sample("replicate.apply"),
        "replicate.bytes_per_frame": ratio("replicate.bytes", "replicate.frames"),
        "replicate.visible_lag_ms": p50_ms(live["lags"]),
        "legality.full_check_ms": 1e3 * full_s,
        "legality.entries_per_s": pipeline.baseline_size / full_s,
        "legality.delta_check_ms": stage("check", "legality.check"),
        "legality.warm_check_ms": sample("legality.warm_check"),
        "recovery.open_ms": 1e3 * open_s,
        "recovery.entries_per_s": counts["recovery.entries"] / open_s,
        "disk.bytes_per_write": ratio("disk.grown", "disk.writes"),
        "server.writer_wait_ms": (
            load("write") - stage("write", "= through the door")
            if stage("write", "= through the door") else 0.0),
        "frontdoor.ryw_penalty_ms": (
            stage("ryw_search", "= through the door") - stage("search", "= through the door")
            if "ryw_search" in table and "search" in table else 0.0),
        "trace.span_overhead_us": pipeline.tracer.overhead_us(),
        "loadgen.cpu_share": loaded["detail"]["loadgen.cpu_share"][0],
        "load.peer_tail_ms": loaded["detail"]["load.peer_tail_ms"][0],
    }
    for kind in KINDS:
        metrics[f"door.{kind}_p50_ms"] = stage(kind, "= through the door")
        metrics[f"frontdoor.hop_{kind}_ms"] = stage(kind, "frontdoor.hop")
        metrics[f"server.unattributed_{kind}_ms"] = stage(kind, "server.unattributed")
        metrics[f"load.{kind}_p50_ms"] = load(kind)
    return metrics


UNITS = {"_ms": "ms", "_us": "us", "_per_s": "1/s", "_share": "ratio"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    if "bytes" in name:
        return "B"
    return "count"


async def traced_run(
    topo: Topology, spec, baseline, seed: int, seconds: float, trace_ops: int, work: str
) -> dict:
    sharded = bool(spec.shard_bases)
    tables = spec.tables(baseline, sharded)
    twin = loadgen.twin_of(baseline)

    streams = spec.streams(tables, seed, spec.name)
    firsts = [list(itertools.islice(stream, trace_ops)) for stream in streams]
    ops = [(conn, op) for pair in zip(*firsts) for conn, op in enumerate(pair)]
    live = await live_replay(topo, ops, twin)

    # a short loaded phase continues the streams where the replay stopped
    phase = await loadgen.timed_phase(topo, streams, twin, max(1.0, seconds * LOADED_SHARE))
    loaded = loadgen.summarise([phase], [1.0])  # as measured, like the replays

    pipeline = Pipeline(work, spec, baseline)
    failed = live["failed"] + loaded["failed"]
    problems = live["problems"] + loaded["problems"]
    with traced_delta_checks(pipeline.tracer):
        for op_id, (connection, op) in enumerate(ops):
            problem = pipeline.run(op_id, connection, op)
            if problem is not None:
                failed += 1
                problems.append(f"in-process {op.kind} {op.request}: {problem}")
    pipeline.counts["disk.grown"] = (
        tree_bytes(pipeline.store_dir) + tree_bytes(pipeline.replica_dir)
        - pipeline.disk_before
    )
    one_off_measurements(pipeline, baseline)

    table = stage_table(pipeline, live, ops)
    metrics = layer_metrics(pipeline, live, loaded, table)
    return {
        "attempted": 2 * len(ops) + loaded["attempted"],
        "failed": failed,
        "problems": problems[:20],
        "metrics": {
            name: (value, unit_of(name), len(ops)) for name, value in metrics.items()
        },
        "detail": {},
        "table": table,
        "spans": pipeline.tracer.spans,
    }


def write_spans(path: str, spans: List[list]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"columns": ["name", "start", "end", "parent", "op_id"],
                   "spans": spans}, handle)


def render_tables(document: dict) -> str:
    """The README's layer table, as markdown, from a results document."""
    lines = []
    for workload, result in document["workloads"].items():
        table = result.get("layer_table") or {}
        if not table:
            continue
        kinds = [k for k in KINDS if k in table]
        names: List[str] = []
        for kind in kinds:
            names += [n for n in table[kind] if n not in names]
        tail = ["server.unattributed", "frontdoor.hop", "= through the door"]
        names = [n for n in names if n not in tail] + tail
        lines += ["", f"**{workload}** (ms, median per op)", "",
                  "| layer | " + " | ".join(kinds) + " |",
                  "|---|" + "---:|" * len(kinds)]
        for name in names:
            cells = [f"{table[k][name]:.3f}" if name in table[k] else "" for k in kinds]
            lines.append(f"| `{name}` | " + " | ".join(cells) + " |")
    return "\n".join(lines)
