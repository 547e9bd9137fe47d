"""Extension benchmark — the sharded store behind the composite view.

Claim under test: Theorem 4.1's subtree modularity makes the routing
cut *pay*.  Shards are independent store directories, so whole-store
legality checking runs one worker **process** per shard
(:func:`repro.store.sharded.check_shards_parallel`) with no shared
state — at full scale (~100k entries, ``BENCH_SHARD_SCALE=1.0``) the
K-shard parallel check must beat a single union store checked through
one lock-free reader, end to end (bootstrap + check in both arms).

CI smoke runs a small fraction of the scale where process start-up
dominates, and a single-CPU box serializes the workers (the check is
CPU-bound, so K processes on one core do the same work as one, plus
fork overhead).  The beats-single-store gate is therefore asserted
only at ``BENCH_SHARD_SCALE >= 1.0`` on a multi-core machine; the
ratio is always recorded in ``extra_info``.

The read side has its own work-unit gate, armed at every scale: one
open :class:`~repro.store.sharded.CompositeReader` stitches its
composite **once** and then *follows* commits — every change a shard
view replays is replayed onto the composite too, nothing is stitched
again — so the search after a commit costs O(|Δ|), not O(|D|).
"""

import gc
import os
import statistics
import time

from repro.store import DirectoryStore
from repro.store.reader import StoreReader
from repro.store.sharded import (
    CompositeReader,
    ShardedStore,
    check_shards_parallel,
)
from repro.updates.operations import UpdateTransaction
from repro.workloads import (
    generate_whitepages,
    random_transaction,
    whitepages_registry,
    whitepages_schema,
)

from _helpers import print_series

SCALE = float(os.environ.get("BENCH_SHARD_SCALE", "1.0"))
SHARDS = 4
try:
    CPUS = len(os.sched_getaffinity(0))
except AttributeError:  # pragma: no cover - non-Linux
    CPUS = os.cpu_count() or 1
GATE_ARMED = SCALE >= 1.0 and CPUS >= 2


def _union_instance():
    """~100k entries at SCALE=1.0, split evenly over SHARDS org roots."""
    target = max(200, int(100_000 * SCALE))
    per_org_units = max(2, int((target / (SHARDS * 11)) ** 0.5))
    return generate_whitepages(
        orgs=SHARDS,
        units_per_level=per_org_units,
        depth=2,
        persons_per_unit=10,
        seed=42,
    )


def _build_stores(tmp_path):
    """One union store and one K-shard store over the same instance."""
    schema = whitepages_schema()
    registry = whitepages_registry()
    instance = _union_instance()
    union_dir = str(tmp_path / "union")
    sharded_dir = str(tmp_path / "sharded")
    DirectoryStore.create(union_dir, schema, instance, registry).close()
    bases = {f"org{i}": f"o=org{i}" for i in range(SHARDS)}
    ShardedStore.create(sharded_dir, schema, bases, instance, registry).close()
    entries = len(instance)
    # Drop the build-time instance before measuring: the parallel arm
    # forks worker processes, and copy-on-write faults against a ~100k
    # entry parent heap would bill store construction to the check.
    del instance
    gc.collect()
    return schema, registry, union_dir, sharded_dir, entries


def _median(fn, repeats=3):
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def test_parallel_shard_check_vs_single_store(benchmark, tmp_path):
    """End-to-end whole-store check: K worker processes (one per shard)
    vs one reader over the union store."""
    schema, registry, union_dir, sharded_dir, entries = _build_stores(tmp_path)

    def check_union():
        reader = StoreReader.open(union_dir, schema, registry)
        try:
            assert reader.check().is_legal
        finally:
            reader.close()

    def check_sharded():
        report, checked = check_shards_parallel(
            sharded_dir, schema, registry, jobs=SHARDS
        )
        assert report.is_legal and checked == entries
        # Work units, armed at every scale: the merged report's summed
        # engine stats account for every entry of every shard.
        stats = report.stats
        assert stats.cache_hits + stats.cache_misses == entries

    single_time = _median(check_union)
    parallel_time = _median(check_sharded)
    ratio = parallel_time / single_time
    print_series(
        f"SHARD: whole-store check, {entries} entries, {SHARDS} shards",
        [
            ("single store", f"{single_time:.3f}s"),
            (f"{SHARDS}-shard parallel", f"{parallel_time:.3f}s"),
            (f"ratio={ratio:.2f}x ({CPUS} cpus, "
             f"gate {'armed' if GATE_ARMED else 'recorded only'})",),
        ],
    )
    benchmark.extra_info["entries"] = entries
    benchmark.extra_info["cpus"] = CPUS
    benchmark.extra_info["ratio"] = round(ratio, 3)
    if GATE_ARMED:
        assert ratio < 1.0, (
            f"{SHARDS}-shard parallel check should beat the single store "
            f"at ~100k entries on {CPUS} cpus: {ratio:.2f}x"
        )
    benchmark(check_sharded)


def test_open_reader_follows_commits_without_restitching(benchmark, tmp_path):
    """N commit → refresh → search rounds on one open reader: the
    composite is stitched once, and the changes replayed onto it are
    exactly the changes replayed onto the shard views.  The wall-clock
    cost of the search after a commit is printed beside what it costs
    when the composite is stitched again for it (every commit, before
    the reader followed), for the record."""
    schema = whitepages_schema()
    registry = whitepages_registry()
    # ``wp_provision``'s 2,358-entry directory at SCALE=1.0
    units = max(2, int(4 * SCALE ** 0.5))
    instance = generate_whitepages(
        orgs=SHARDS, units_per_level=units, depth=3, persons_per_unit=6, seed=8
    )
    bases = {f"org{i}": f"o=org{i}" for i in range(SHARDS)}
    path = str(tmp_path / "followed")
    store = ShardedStore.create(path, schema, bases, instance, registry)
    followed = CompositeReader.open(path, schema, registry)
    restitched = CompositeReader.open(path, schema, registry)
    rounds = 60
    shard_changes = [0]
    for name in followed.shard_map.names():
        shard = followed.shard_reader(name)

        def counted(change, forward=shard.on_replay):
            shard_changes[0] += 1
            forward(change)

        shard.on_replay = counted

    def provision(index):
        """Every fifth round spans two shards (2PC), the rest stay in
        one — the mix ``wp_provision`` drives through the servers."""
        tx = UpdateTransaction()
        for org in ((index % SHARDS, (index + 1) % SHARDS)
                    if index % 5 == 0 else (index % SHARDS,)):
            unit = f"ou=n{index},o=org{org}"
            tx.insert(unit, ["orgUnit", "orgGroup", "top"], {"ou": [f"n{index}"]})
            tx.insert(
                f"uid=n{index}o{org},{unit}", ["person", "top"],
                {"uid": [f"n{index}o{org}"], "name": [f"n {index}"]},
            )
        return tx

    def search_after_commit(reader, index):
        """Read-your-writes: refresh, then find the person just added."""
        began = time.perf_counter()
        reader.refresh()
        found = reader.search(
            base=f"ou=n{index},o=org{index % SHARDS}",
            filter="(objectClass=person)",
        )
        assert len(found) == 1
        return time.perf_counter() - began

    try:
        assert len(followed.instance) == len(instance)
        assert followed.stitches == 1
        followed_s, restitched_s = [], []
        for index in range(rounds):
            assert store.apply(provision(index)).applied
            followed_s.append(search_after_commit(followed, index))
            restitched._composite = None  # what every commit used to cost
            restitched_s.append(search_after_commit(restitched, index))
        # The gate: one stitch for the whole run, and the composite
        # replayed exactly what the shard views replayed.
        assert followed.stitches == 1, followed.stitches
        assert restitched.stitches == rounds
        assert followed.followed == shard_changes[0] >= rounds
        followed_ms = statistics.median(followed_s) * 1e3
        restitched_ms = statistics.median(restitched_s) * 1e3
        print_series(
            f"SHARD: search after a commit, {len(instance)} entries, "
            f"{SHARDS} shards, {rounds} commits on one open reader",
            [
                ("re-stitched per commit", f"{restitched_ms:.2f}ms"),
                ("stitched once, followed", f"{followed_ms:.2f}ms"),
                (f"stitches={followed.stitches} "
                 f"changes followed={followed.followed} "
                 f"(= changes the shard views replayed)",),
            ],
        )
        benchmark.extra_info["entries"] = len(instance)
        benchmark.extra_info["stitches"] = followed.stitches
        benchmark.extra_info["restitched_ms"] = round(restitched_ms, 3)
        benchmark.extra_info["followed_ms"] = round(followed_ms, 3)
        counter = [rounds]

        def one_round():
            counter[0] += 1
            assert store.apply(provision(counter[0])).applied
            search_after_commit(followed, counter[0])

        benchmark(one_round)
        assert followed.stitches == 1
    finally:
        followed.close()
        restitched.close()
        store.close()


def test_routed_commit_overhead(benchmark, tmp_path):
    """One guarded commit through the routing + composite layer vs a
    plain store — the tax of shard routing on the write path."""
    schema = whitepages_schema()
    registry = whitepages_registry()
    instance = generate_whitepages(
        orgs=SHARDS, units_per_level=2, depth=1, persons_per_unit=2, seed=8
    )
    plain = DirectoryStore.create(
        str(tmp_path / "plain"), schema, instance, registry
    )
    bases = {f"org{i}": f"o=org{i}" for i in range(SHARDS)}
    sharded = ShardedStore.create(
        str(tmp_path / "routed"), schema, bases, instance, registry
    )
    counter = [0]

    def routed_commit():
        counter[0] += 1
        tx = random_transaction(
            sharded.shard("org0").instance, inserts=1, seed=counter[0]
        )
        assert sharded.apply(tx).applied

    try:
        plain_time = _median(
            lambda: plain.apply(
                random_transaction(plain.instance, inserts=1,
                                   seed=10_000 + counter[0])
            )
        )
        routed_time = _median(routed_commit)
        ratio = routed_time / max(plain_time, 1e-9)
        print_series(
            "SHARD: routed commit vs plain commit",
            [
                ("plain", f"{plain_time * 1e3:.2f}ms"),
                ("routed", f"{routed_time * 1e3:.2f}ms"),
                (f"ratio={ratio:.2f}x",),
            ],
        )
        benchmark.extra_info["ratio"] = round(ratio, 3)
        benchmark(routed_commit)
    finally:
        plain.close()
        sharded.close()
