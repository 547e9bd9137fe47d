"""Extension benchmark — two-phase commit across the routing cut.

Claims under test: (1) lifting the spanning-transaction refusal must
not tax the common case.  A transaction owned by a single shard still
takes the fast path — staged in memory, composite-checked, then one
ordinary WAL frame, with **zero** coordinator-log I/O — and must stay
within 10% of the PR 5 sequence it replaced (reconstructed here as a
direct shard commit followed by the same composite check; PR 5
checked *after* committing and compensated on violation).  (2) The
spanning 2PC commit's overhead — a prepare and a decide frame on
every participant plus three coordinator-log records — is recorded
for tracking, not gated: it buys the atomicity the old path refused
to offer at any price.

CI smoke runs a small fraction of the scale, where per-commit fsync
noise dominates; the <10% gate is asserted only at
``BENCH_2PC_SCALE >= 1.0`` on a multi-core machine, and the ratios
are always recorded in ``extra_info``.
"""

import os
import statistics
import time

from repro.legality.report import LegalityReport
from repro.store.sharded import ShardedStore, _composite_report, _members
from repro.store.txlog import TXLOG_FILE
from repro.updates.operations import UpdateTransaction
from repro.workloads import (
    generate_whitepages,
    random_transaction,
    whitepages_registry,
    whitepages_schema,
)

from _helpers import print_series

SCALE = float(os.environ.get("BENCH_2PC_SCALE", "1.0"))
SHARDS = 2
try:
    CPUS = len(os.sched_getaffinity(0))
except AttributeError:  # pragma: no cover - non-Linux
    CPUS = os.cpu_count() or 1
GATE_ARMED = SCALE >= 1.0 and CPUS >= 2


def _instance():
    """~20k entries at SCALE=1.0, split over SHARDS org roots.  A flat
    map keeps shard-local DNs equal to global DNs, so per-shard
    ``random_transaction`` output routes unchanged."""
    target = max(100, int(20_000 * SCALE))
    per_org_units = max(2, int((target / (SHARDS * 11)) ** 0.5))
    return generate_whitepages(
        orgs=SHARDS,
        units_per_level=per_org_units,
        depth=2,
        persons_per_unit=10,
        seed=11,
    )


def _build(tmp_path, name):
    schema = whitepages_schema()
    registry = whitepages_registry()
    bases = {f"org{i}": f"o=org{i}" for i in range(SHARDS)}
    return ShardedStore.create(
        str(tmp_path / name), schema, bases, _instance(), registry
    )


def _median(fn, repeats=5):
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _txlog_size(directory):
    path = os.path.join(directory, TXLOG_FILE)
    return os.path.getsize(path) if os.path.exists(path) else 0


def test_single_shard_fast_path_vs_pr5_sequence(benchmark, tmp_path):
    """One routed single-shard commit through the 2PC-capable apply
    vs the PR 5 commit-then-check sequence on an identical store."""
    new = _build(tmp_path, "new")
    old = _build(tmp_path, "old")
    counter = [0]

    def fast_path():
        counter[0] += 1
        tx = random_transaction(
            new.shard("org0").instance, inserts=1, seed=counter[0]
        )
        assert new.apply(tx).applied

    def pr5_sequence():
        # PR 5's fast path: commit to the owning shard immediately,
        # *then* run the composite check (and compensate on violation
        # — never taken here, the transactions are legal).
        counter[0] += 1
        tx = random_transaction(
            old.shard("org0").instance, inserts=1, seed=10_000 + counter[0]
        )
        assert old.shard("org0").apply(tx).applied
        old._composite_cache = None
        report = _composite_report(
            old.scope,
            _members(
                old.shard_map, old.scope,
                lambda name: (old.shard(name).instance, LegalityReport()),
            ),
            old.composite_instance,
        )
        assert report.is_legal

    try:
        txlog_before = _txlog_size(str(tmp_path / "new"))
        new_time = _median(fast_path)
        old_time = _median(pr5_sequence)
        # The fast path must not touch the coordinator log at all: a
        # rejected or committed single-shard transaction has exactly
        # PR 5's durable footprint.
        assert _txlog_size(str(tmp_path / "new")) == txlog_before
        ratio = new_time / max(old_time, 1e-9)
        print_series(
            "2PC: single-shard fast path vs PR 5 sequence",
            [
                ("pr5 commit+check", f"{old_time * 1e3:.2f}ms"),
                ("fast path", f"{new_time * 1e3:.2f}ms"),
                (f"ratio={ratio:.2f}x ({CPUS} cpus, "
                 f"gate {'armed' if GATE_ARMED else 'recorded only'})",),
            ],
        )
        benchmark.extra_info["cpus"] = CPUS
        benchmark.extra_info["ratio"] = round(ratio, 3)
        if GATE_ARMED:
            assert ratio < 1.10, (
                "the single-shard fast path must stay within 10% of the "
                f"PR 5 commit-then-compensate sequence: {ratio:.2f}x"
            )
        benchmark(fast_path)
    finally:
        new.close()
        old.close()


def test_spanning_2pc_commit_overhead(benchmark, tmp_path):
    """A two-shard 2PC commit vs a single-shard commit of the same
    operation count — the price of atomicity across the cut
    (recorded, never gated)."""
    store = _build(tmp_path, "span")
    counter = [0]

    def single_shard():
        counter[0] += 1
        tx = random_transaction(
            store.shard("org0").instance, inserts=2, seed=counter[0]
        )
        assert store.apply(tx).applied

    def spanning():
        counter[0] += 1
        tx = UpdateTransaction()
        for name in ("org0", "org1"):
            part = random_transaction(
                store.shard(name).instance, inserts=1,
                seed=20_000 + counter[0],
            )
            tx.operations.extend(part.operations)
        outcome = store.apply(tx)
        assert outcome.applied
        assert any("2pc: committed" in check for check in outcome.checks)

    try:
        single_time = _median(single_shard)
        spanning_time = _median(spanning)
        ratio = spanning_time / max(single_time, 1e-9)
        print_series(
            "2PC: spanning commit vs single-shard commit (2 ops each)",
            [
                ("single-shard", f"{single_time * 1e3:.2f}ms"),
                ("spanning 2pc", f"{spanning_time * 1e3:.2f}ms"),
                (f"ratio={ratio:.2f}x (recorded only)",),
            ],
        )
        benchmark.extra_info["ratio"] = round(ratio, 3)
        benchmark(spanning)
    finally:
        store.close()
