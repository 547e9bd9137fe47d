"""Closed-loop load generator, oracle twin and end-of-run verification.

Two connections through the front door, each sending its next request
only after the previous reply: directory clients wait for their answer,
so throughput at a fixed client count is what is reported, not a
maximum rate under a latency limit.
"""

from __future__ import annotations

import asyncio
import hashlib
import statistics
import time
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional

from topology import Topology
from workloads import READ_KINDS, WRITE_KINDS, Op, is_baseline_dn

from repro.server.client import DirectoryClient, ServerError
from repro.store import DirectoryStore
from repro.store.sharded import ShardedStore

#: Fixed at 2 = ``nproc`` of the box the bounds were set on; never
#: scaled with the host, so numbers stay comparable.
CONNECTIONS = 2
WARMUP_S = 1.5
SEGMENTS = 5
#: The percentile ``load.peer_tail_ms`` reports, one for every workload:
#: the highest of p90/p95/p99 that leaves at least ten samples beyond it
#: in each of the ``SEGMENTS`` slices of the traced run's loaded phase
#: at the slowest workload's rate (about 100 peer requests per slice).
TAIL_Q = 0.90
#: A reply later than this is a failed op (and ends the connection's loop).
OP_TIMEOUT_S = 30.0


# ----------------------------------------------------------------------
# the twin: dn -> {attribute: sorted string values}
# ----------------------------------------------------------------------
def canonical(attributes: Dict[str, Iterable]) -> Dict[str, List[str]]:
    return {name: sorted(str(v) for v in values) for name, values in attributes.items()}


def twin_of(instance) -> Dict[str, Dict[str, List[str]]]:
    return {
        instance.dn_string_of(entry): canonical(
            {name: entry.values(name) for name in entry.attribute_names()}
        )
        for entry in instance
    }


def twin_of_reply(entries: List[dict]) -> Dict[str, Dict[str, List[str]]]:
    return {e["dn"]: canonical(e["attributes"]) for e in entries}


def apply_effect(twin: dict, effect: tuple) -> None:
    for step in effect:
        if step[0] == "add":
            _tag, dn, classes, attributes = step
            twin[dn] = canonical({"objectClass": classes, **attributes})
        elif step[0] == "delete":
            del twin[step[1]]
        else:
            _tag, dn, attribute, values = step
            twin[dn][attribute] = sorted(values)


def twin_digest(twin: dict) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for dn in sorted(twin):
        digest.update(repr((dn, sorted(twin[dn].items()))).encode("utf-8"))
    return digest.hexdigest()


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------
def verify(op: Op, reply: dict) -> Optional[str]:
    """``None`` when ``reply`` is what ``op`` expects, else what is wrong."""
    what = op.expect[0]
    if what == "dns":
        _what, expected, limit, raced = op.expect
        got = [entry["dn"] for entry in reply["entries"]]
        if raced:
            # the other connection's entries come and go; the baseline
            # subset of the answer does not
            kept = [dn for dn in got if is_baseline_dn(dn)]
            if limit is not None and len(got) == limit:
                return None if tuple(kept) == expected[: len(kept)] else "baseline prefix differs"
            got = kept
        want = expected if limit is None else expected[:limit]
        if tuple(got) != tuple(want):
            return f"expected {len(want)} DNs, got {len(got)} (or another order)"
        if limit is not None and reply["truncated"] != (len(expected) > limit):
            return "truncated flag is wrong"
        return None
    if what == "applied":
        return None if reply.get("applied") is True else f"not applied: {reply}"
    if what == "rejected":
        if reply.get("applied") is not False:
            return "an illegal write was applied"
        violations = list(reply.get("violations", []))
        for result in reply.get("results", []):
            violations += result["violations"]
        if not any(op.expect[1] in text for text in violations):
            return f"rejected for another reason: {violations}"
        return None
    if what == "legal":
        if reply.get("legal") is not True:
            return f"check says illegal: {reply.get('violations')}"
        if reply.get("entries") != op.expect[1]:
            return f"check saw {reply.get('entries')} entries, expected {op.expect[1]}"
        return None
    raise ValueError(f"unknown expectation {what!r}")


class Request(NamedTuple):
    kind: str
    connection: int
    sent: float  #: ``perf_counter`` at send
    seconds: float
    ok: bool
    common: bool


class Samples:
    """Latencies of one phase: one :class:`Request` per request and
    ``(sent, seconds)`` per lead unit on connection A."""

    def __init__(self) -> None:
        self.requests: List[Request] = []
        self.units: List[tuple] = []
        self.problems: List[str] = []

    def fail(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)


async def drive(
    client: DirectoryClient,
    connection: int,
    stream: Iterator[Op],
    twin: dict,
    samples: Samples,
    stop_at: Optional[float] = None,
    count: Optional[int] = None,
) -> None:
    """Send ``stream`` over ``client`` one request at a time, until the
    clock passes ``stop_at`` or ``count`` requests were sent."""
    position = None
    unit_began = None
    sent_count = 0
    clock = time.perf_counter
    while (stop_at is None or clock() < stop_at) and (
        count is None or sent_count < count
    ):
        op = next(stream)
        sent_count += 1
        fields = dict(op.request)
        if op.kind in ("ryw_search", "check") and position is not None:
            fields["require_seq"] = position
        sent = clock()
        if unit_began is None:
            unit_began = sent
        reply, lost = None, False
        try:
            reply = await asyncio.wait_for(
                client.request(op.wire_op, **fields), OP_TIMEOUT_S
            )
            problem = verify(op, reply)
        except ServerError as exc:
            problem = f"error reply {exc}"
        except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
            # a late reply would desynchronise the loop: give the connection up
            problem, lost = f"{type(exc).__name__}: {exc}", True
        done = clock()
        if problem is not None:
            samples.fail(f"connection {connection} {op.kind} {op.request}: {problem}")
        elif op.kind in WRITE_KINDS and reply.get("applied"):
            position = reply["position"]
            apply_effect(twin, op.effect)
        samples.requests.append(
            Request(op.kind, connection, sent, done - sent, problem is None, op.common)
        )
        if op.unit_end:
            if connection == 0:
                samples.units.append((unit_began, done - unit_began))
            unit_began = None
        if lost:
            break


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def segmented_tail(samples: List[tuple], began: float, seconds: float, q: float) -> float:
    """Median over ``SEGMENTS`` equal consecutive slices of the phase of
    each slice's ``q`` percentile: one scheduler stall on a shared box
    lands in one slice and does not set the number."""
    slices: List[List[float]] = [[] for _ in range(SEGMENTS)]
    for sent, latency in samples:
        index = int((sent - began) / seconds * SEGMENTS)
        if 0 <= index < SEGMENTS:
            slices[index].append(latency)
    return statistics.median(percentile(s, q) for s in slices if s)


async def connect(port: int, count: int = CONNECTIONS) -> List[DirectoryClient]:
    clients = []
    for index in range(count):
        client = await DirectoryClient.connect("127.0.0.1", port)
        await client.bind(f"cn=bench-{index}")
        clients.append(client)
    return clients


class Phase(NamedTuple):
    """What one timed phase on one topology measured."""

    samples: Samples
    began: float  #: ``perf_counter`` when the warm-up ended
    ended: float
    cpu_share: float  #: the generator's CPU time / wall time
    peak_rss_mb: float


async def timed_phase(topo: Topology, streams: list, twin: dict, seconds: float) -> Phase:
    """Warm up, then measure ``seconds`` of closed-loop traffic through
    the door."""
    clients = await connect(topo.door.port)
    samples = Samples()
    try:
        cpu_began = time.process_time()
        began = time.perf_counter() + WARMUP_S
        ended = began + seconds
        await asyncio.gather(*(
            drive(client, index, stream, twin, samples, stop_at=ended)
            for index, (client, stream) in enumerate(zip(clients, streams))
        ))
        wall = time.perf_counter() - (began - WARMUP_S)
        cpu_share = (time.process_time() - cpu_began) / wall
        peak_rss = topo.peak_rss_mb()
    finally:
        for client in clients:
            await client.close()
    return Phase(samples, began, ended, cpu_share, peak_rss)


def summarise(phases: List[Phase], factors: List[float]) -> dict:
    """The end-to-end numbers and the per-kind detail of a run's phases.
    ``factors[i]`` is how much slower than the reference speed the box
    ran during phase ``i`` (``speed.SpeedMeter.factor``): every latency
    of that phase is divided by it before the phases are pooled, and its
    count of finished requests is multiplied by it."""
    requests: List[Request] = []  # of the timed part, at reference speed
    units: List[float] = []
    tails: List[float] = []
    finished = 0.0
    for phase, factor in zip(phases, factors):
        raw = [r for r in phase.samples.requests if r.sent >= phase.began and r.ok]
        finished += factor * sum(1 for r in raw if r.sent + r.seconds <= phase.ended)
        timed = [r._replace(seconds=r.seconds / factor) for r in raw]
        requests += timed
        units += [lat / factor for sent, lat in phase.samples.units if sent >= phase.began]
        tails.append(segmented_tail(
            [(r.sent, r.seconds) for r in timed if r.connection == 1],
            phase.began, phase.ended - phase.began, TAIL_Q,
        ))
    seconds = sum(phase.ended - phase.began for phase in phases)
    attempted = [r for phase in phases for r in phase.samples.requests]
    # one request class, not the mix: the classes differ tenfold.  The
    # mean, not the median: where A's work blocks the member B reads
    # from, about half of B's requests queue behind it, and the median of
    # two humps of near-equal weight flips between them from run to run.
    common = [r.seconds for r in requests if r.connection == 1 and r.common]
    result = {
        # warm-up requests are checked like any other; only their
        # latencies are left out
        "attempted": len(attempted),
        "failed": sum(1 for r in attempted if not r.ok),
        "problems": [p for phase in phases for p in phase.samples.problems][:20],
        "metrics": {
            "ops_per_s": (finished / seconds, "1/s", len(requests)),
            "lead_p50_ms": (1e3 * statistics.median(units), "ms", len(units)),
            "peer_mean_ms": (1e3 * statistics.fmean(common), "ms", len(common)),
            "peak_rss_mb": (max(p.peak_rss_mb for p in phases), "MB", len(phases)),
        },
        "detail": {
            "speed.factor": (statistics.fmean(factors), "ratio", len(factors)),
            "loadgen.cpu_share": (
                statistics.fmean(p.cpu_share for p in phases), "ratio", len(phases)),
            "load.peer_tail_ms": (
                1e3 * statistics.median(tails), "ms",
                sum(1 for r in requests if r.connection == 1)),
        },
    }
    for kind in READ_KINDS + ("write",):
        kinds = WRITE_KINDS if kind == "write" else (kind,)
        of_kind = [r.seconds for r in requests if r.kind in kinds]
        if of_kind:
            result["detail"][f"load.{kind}_p50_ms"] = (
                1e3 * statistics.median(of_kind), "ms", len(of_kind))
    return result


# ----------------------------------------------------------------------
# end-of-run verification
# ----------------------------------------------------------------------
async def full_digest(port: int) -> str:
    async with await DirectoryClient.connect("127.0.0.1", port) as client:
        await client.bind("cn=bench-verify")
        reply = await client.search(scope="sub")
        return twin_digest(twin_of_reply(reply["entries"]))


async def verify_topology(topo: Topology, twin: dict) -> List[str]:
    """Primary legal; primary, every replica and the reopened store all
    hold exactly the twin.  Returns one line per check that failed.  The
    last check SIGKILLs the primary: acknowledged writes must be in the
    journal (the fsync-level proof stays with the crash matrices in
    ``tests/``)."""
    problems = []
    want = twin_digest(twin)
    async with await DirectoryClient.connect("127.0.0.1", topo.primary.port) as client:
        await client.bind("cn=bench-verify")
        verdict = await client.check()
        frontier = (await client.position())["position"]
    if not verdict["legal"] or verdict["entries"] != len(twin):
        problems.append(
            f"primary check: legal={verdict['legal']} entries={verdict['entries']} "
            f"(twin has {len(twin)}): {verdict['violations'][:3]}"
        )
    for member in [topo.primary, *topo.replicas]:
        if member is not topo.primary:
            await topo.wait_position(member, frontier, timeout=30.0)
        if await full_digest(member.port) != want:
            problems.append(f"{member.name} does not hold the twin's entries")

    topo.door.kill()  # or it would start a failover
    topo.primary.kill()
    spec = topo.spec
    if spec.shard_bases:
        with_store = ShardedStore.open(topo.primary_dir, spec.schema(), spec.registry())
        instance = with_store.composite_instance()
    else:
        with_store = DirectoryStore.open(topo.primary_dir, spec.schema(), spec.registry())
        instance = with_store.instance
    try:
        if twin_digest(twin_of(instance)) != want:
            problems.append("the store reopened after SIGKILL lost or changed entries")
    finally:
        with_store.close()
    return problems
