"""Extension benchmark — the durable store (snapshot + WAL journal).

Claims under test: guarded-commit throughput is dominated by the
incremental check plus one fsync (flat in |D|), recovery replay is
linear in journal length, the checksummed WAL frame format costs
less than 2x the seed's bare ``# commit`` marker format per append,
a lock-free reader's ``refresh()`` costs O(|Δ|) in the WAL tail —
independent of snapshot size — and so does the legality verdict of a
reader that has checked once: it follows the frames (Theorem 4.2).

``BENCH_STORE_SCALE`` scales the reader-refresh store (1.0 -> ~100k
entries; CI smoke uses a small fraction).
"""

import os
import random
import statistics
import time
from functools import lru_cache

from repro.store import DirectoryStore
from repro.store.reader import StoreReader
from repro.store.recovery import SNAPSHOT_FILE
from repro.store.wal import encode_record
from repro.updates.operations import UpdateTransaction
from repro.workloads import (
    generate_whitepages,
    random_transaction,
    whitepages_registry,
    whitepages_schema,
)
from repro.workloads.update_streams import insertion_points

from _helpers import fit_growth, print_series

SCALE = float(os.environ.get("BENCH_STORE_SCALE", "1.0"))


def fresh_store(tmp_path, name, orgs=1):
    schema = whitepages_schema()
    instance = generate_whitepages(orgs=orgs, units_per_level=2, depth=1,
                                   persons_per_unit=2, seed=8)
    return DirectoryStore.create(str(tmp_path / name), schema, instance)


def test_guarded_commit(benchmark, tmp_path):
    """One transaction end-to-end: check + WAL append + fsync."""
    store = fresh_store(tmp_path, "commit")
    counter = [0]

    def commit():
        counter[0] += 1
        tx = random_transaction(store.instance, inserts=1, seed=counter[0])
        outcome = store.apply(tx)
        assert outcome.applied

    try:
        benchmark(commit)
    finally:
        store.close()


def test_recovery_replay(benchmark, tmp_path):
    """Reopening a store with a 20-transaction journal."""
    store = fresh_store(tmp_path, "replay")
    for seed in range(20):
        assert store.apply(
            random_transaction(store.instance, inserts=1, seed=1000 + seed)
        ).applied
    live_size = len(store.instance)
    store.close()  # release the advisory lock before the reopen loop
    schema = whitepages_schema()
    path = str(tmp_path / "replay")
    observed = {}

    def reopen():
        with DirectoryStore.open(
            path, schema, registry=whitepages_registry()
        ) as reopened:
            observed["journal"] = reopened.journal_length
            observed["entries"] = len(reopened.instance)

    benchmark(reopen)
    assert observed["journal"] == 20
    assert observed["entries"] == live_size


def test_compaction(benchmark, tmp_path):
    """Journal-into-snapshot folding."""
    store = fresh_store(tmp_path, "compact")
    counter = [0]

    def fill_and_compact():
        counter[0] += 1
        assert store.apply(
            random_transaction(store.instance, inserts=1, seed=5000 + counter[0])
        ).applied
        store.compact()
        assert store.journal_length == 0

    try:
        benchmark(fill_and_compact)
    finally:
        store.close()


def _median_append_time(path, frames, repeats=5):
    """Median wall time to append ``frames`` (bytes) with one fsync each."""
    samples = []
    for _ in range(repeats):
        if os.path.exists(path):
            os.unlink(path)
        start = time.perf_counter()
        for frame in frames:
            with open(path, "ab") as handle:
                handle.write(frame)
                handle.flush()
                os.fsync(handle.fileno())
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def test_wal_append_overhead(benchmark, tmp_path):
    """The checksummed WAL frame format vs the seed's bare commit marker.

    Both variants append the same LDIF payloads with one fsync per
    record; the only difference is the framing (header + CRC + trailer
    vs ``\\n# commit\\n\\n``).  The WAL format must stay within 2x.
    """
    payloads = [
        (
            f"dn: ou=bench{i},o=att\nchangetype: add\n"
            f"objectClass: orgUnit\nobjectClass: orgGroup\nou: bench{i}\n"
        )
        for i in range(50)
    ]
    seed_frames = [(p + "\n# commit\n\n").encode("utf-8") for p in payloads]
    wal_frames = [
        encode_record(i + 1, 1, p) for i, p in enumerate(payloads)
    ]

    seed_time = _median_append_time(str(tmp_path / "seed.journal"), seed_frames)
    wal_time = _median_append_time(str(tmp_path / "wal.journal"), wal_frames)
    ratio = wal_time / seed_time
    print_series(
        "STORE: WAL append overhead vs seed marker format (50 records)",
        [
            ("seed markers", f"{seed_time * 1e3:.2f}ms"),
            ("wal frames", f"{wal_time * 1e3:.2f}ms"),
            (f"ratio={ratio:.2f}x",),
        ],
    )
    benchmark.extra_info["ratio"] = round(ratio, 3)
    assert ratio < 2.0, f"WAL framing should cost < 2x the seed format: {ratio:.2f}x"

    wal_path = str(tmp_path / "kernel.journal")
    counter = [0]

    def append_one():
        counter[0] += 1
        frame = encode_record(counter[0], 1, payloads[counter[0] % len(payloads)])
        with open(wal_path, "ab") as handle:
            handle.write(frame)
            handle.flush()
            os.fsync(handle.fileno())

    benchmark(append_one)


def test_replay_linear_in_journal_length(benchmark, tmp_path):
    schema = whitepages_schema()
    sizes, times = [], []
    for n in (5, 10, 20, 40):
        store = fresh_store(tmp_path, f"lin{n}")
        for seed in range(n):
            assert store.apply(
                random_transaction(store.instance, inserts=1, seed=7000 + seed)
            ).applied
        store.close()
        path = str(tmp_path / f"lin{n}")
        start = time.perf_counter()
        DirectoryStore.open(path, schema, registry=whitepages_registry()).close()
        times.append(time.perf_counter() - start)
        sizes.append(n)
    exponent = fit_growth(sizes, [int(t * 1e9) for t in times])
    print_series(
        "STORE: recovery time vs journal length",
        [(f"txs={s}", f"{t:.4f}s") for s, t in zip(sizes, times)]
        + [(f"exponent={exponent:.2f}",)],
    )
    benchmark.extra_info["exponent"] = round(exponent, 3)
    assert exponent < 1.6, f"replay should be ~linear: {exponent:.2f}"

    store = fresh_store(tmp_path, "kernel")
    assert store.apply(random_transaction(store.instance, inserts=1, seed=9)).applied
    store.close()
    path = str(tmp_path / "kernel")

    def reopen():
        DirectoryStore.open(path, schema, registry=whitepages_registry()).close()

    benchmark(reopen)


# ----------------------------------------------------------------------
# reader-refresh gate: O(|Δ|) in the WAL tail, not snapshot size
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def _big_instance():
    """A ~100k-entry legal instance at SCALE=1.0 (cached per process)."""
    orgs = max(1, int(300 * SCALE))
    return generate_whitepages(
        orgs=orgs, units_per_level=5, depth=2, persons_per_unit=10, seed=42,
    )


def _median_refresh_time(store, reader, rounds, seed_base):
    """Median wall time of a one-frame ``refresh()``: commit one
    transaction, then time only the reader's catch-up."""
    samples = []
    for i in range(rounds):
        assert store.apply(
            random_transaction(store.instance, inserts=1, seed=seed_base + i)
        ).applied
        start = time.perf_counter()
        result = reader.refresh(strict=True)
        samples.append(time.perf_counter() - start)
        assert result.advanced and result.frames_replayed == 1
    return statistics.median(samples)


def test_reader_refresh_scales_with_tail(benchmark, tmp_path):
    """``refresh()`` cost tracks the tail length |Δ|, not the snapshot.

    Against a ~100k-entry store (at SCALE=1.0) the reader replays
    exactly the ``t`` frames the writer appended since its last
    refresh, scanning only the new journal suffix — asserted via the
    machine-independent ``frames_replayed`` / ``bytes_scanned``
    counters, plus a lenient wall-clock comparison against a toy store
    three orders of magnitude smaller.
    """
    schema = whitepages_schema()
    registry = whitepages_registry()
    big_path = str(tmp_path / "big")
    big = DirectoryStore.create(big_path, schema, _big_instance(), registry)
    reader = StoreReader.open(big_path, schema, registry)
    small = fresh_store(tmp_path, "small")
    small_reader = StoreReader.open(str(tmp_path / "small"), schema, registry)
    try:
        snapshot_bytes = os.path.getsize(os.path.join(big_path, SNAPSHOT_FILE))
        tails = [1, 2, 4, 8, 16]
        scanned = []
        seed = 0
        for t in tails:
            for _ in range(t):
                seed += 1
                assert big.apply(
                    random_transaction(big.instance, inserts=1, seed=seed)
                ).applied
            result = reader.refresh(strict=True)
            assert result.advanced and not result.rebootstrapped
            assert result.frames_replayed == t, (
                f"tail of {t} frames replayed {result.frames_replayed}"
            )
            # The refresh never re-reads the snapshot: the scanned
            # suffix is a sliver of the (≈100k-entry) snapshot file.
            assert result.bytes_scanned * 20 < snapshot_bytes, (
                f"refresh scanned {result.bytes_scanned}B against a "
                f"{snapshot_bytes}B snapshot — not O(|Δ|)"
            )
            scanned.append(result.bytes_scanned)
        exponent = fit_growth(tails, scanned)
        big_median = _median_refresh_time(big, reader, 9, seed_base=10_000)
        small_median = _median_refresh_time(
            small, small_reader, 9, seed_base=20_000
        )
        ratio = big_median / small_median if small_median else 1.0
        print_series(
            f"STORE: reader refresh vs tail length ({len(big.instance)} entries)",
            [(f"tail={t}", f"{b}B scanned") for t, b in zip(tails, scanned)]
            + [(f"bytes exponent={exponent:.2f}",),
               (f"1-frame refresh big/small ratio={ratio:.2f}x",)],
        )
        benchmark.extra_info["exponent"] = round(exponent, 3)
        benchmark.extra_info["ratio"] = round(ratio, 3)
        assert 0.5 < exponent < 1.5, (
            f"bytes scanned should grow ~linearly with the tail: {exponent:.2f}"
        )
        # Wall clock: a one-frame refresh on the big store must be in
        # the same league as on the toy store (lenient — the bound only
        # catches an accidental full-snapshot re-read, which would be
        # ~1000x at full scale).
        assert ratio < 10.0, (
            f"1-frame refresh is {ratio:.1f}x slower on the big store — "
            "refresh cost should not depend on snapshot size"
        )

        counter = [30_000]

        def commit_and_refresh():
            counter[0] += 1
            assert big.apply(
                random_transaction(big.instance, inserts=1, seed=counter[0])
            ).applied
            assert reader.refresh(strict=True).frames_replayed == 1

        benchmark(commit_and_refresh)
    finally:
        small_reader.close()
        small.close()
        reader.close()
        big.close()


def test_reader_verdict_follows_commits_in_delta_work(tmp_path):
    """Work-unit gate: a reader's answer to a commit is O(|Δ|).

    60 one-entry commits against a reader that has checked once cost it
    one full check in total, one content check per committed entry
    (inside ``refresh()``, where the frame's Δ-check now runs), no
    session work at all in the ``check()`` after each refresh, and no
    renumbering of the document order beyond the first.  The same
    commits against a reader nobody asked for a verdict cost no
    Δ-checks: it replays blind, as ever."""
    schema = whitepages_schema()
    registry = whitepages_registry()
    path = str(tmp_path / "followed")
    store = DirectoryStore.create(path, schema, _big_instance(), registry)
    checked = StoreReader.open(path, schema, registry)
    unasked = StoreReader.open(path, schema, registry)
    try:
        assert checked.check().is_legal
        armed = checked.session.stats.copy()
        rng = random.Random(5)
        points = insertion_points(store.instance)
        commits = 60
        for i in range(commits):
            uid = f"gate{i}"
            assert store.apply(UpdateTransaction().insert(
                f"uid={uid},{rng.choice(points)}", ["person", "top"],
                {"uid": [uid], "name": [f"gate {i}"]},
            )).applied
            for reader in (checked, unasked):
                assert reader.refresh(strict=True).frames_replayed == 1
                # index-planned, so it sorts by document order
                assert len(reader.search(filter=f"(uid={uid})")) == 1
            before = checked.session.stats.copy()
            assert checked.check().is_legal
            idle = checked.session.stats.since(before)
            assert idle.queries_evaluated == 0 and idle.structure_checks == 0
            assert idle.cache_hits + idle.cache_misses + idle.entries_checked == 0
        followed = checked.session.stats.since(armed)
        assert followed.entries_checked == commits  # Σ|Δ|
        assert followed.queries_evaluated > 0  # the Figure 5 Δ-queries did run
        assert (checked.full_checks, checked.followed_checks) == (1, commits)
        assert (unasked.full_checks, unasked.followed_checks) == (0, 0)
        assert unasked.session.stats.entries_checked == 0
        assert unasked.session.stats.queries_evaluated == 0
        assert checked.instance.renumbers == unasked.instance.renumbers == 1
    finally:
        unasked.close()
        checked.close()
        store.close()
