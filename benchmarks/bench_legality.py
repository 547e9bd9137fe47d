"""Experiment LEG — the parallel, memoized legality engine.

Gates for :class:`repro.legality.engine.CheckSession`:

* **Parallel speedup** — sharding the Section 3.1 content check over a
  4-worker pool must beat the sequential pass by >= 1.5x on a ~100k
  entry instance.  (The per-entry checks are independent, so the check
  is embarrassingly parallel; the gate guards the sharding overhead.)
  Skipped on machines with fewer than 4 cores, where the bound is
  physically unreachable — verdict agreement is still asserted.
* **Warm-cache re-check ∝ |Δ|** — after mutating ``k`` entries, a
  re-check must re-run content checks on exactly the ``k``-entry dirty
  set (machine-independent work-counter gate, per the benchmark
  conventions in ``_helpers``).
* **Differential** — the session (process pool, thread fallback, warm
  cache) agrees verdict-for-verdict with the sequential reference
  (``tests/oracle.py``: one Figure 4 query at a time, and the naive
  quadratic baseline) on legal and corrupted instances.

There is one checking path and no engine knobs: cold timings call
``clear_cache()`` first, the pool is reached by input size (the smoke
scale patches ``engine.MIN_PARALLEL`` down), and the thread fallback by
making process pools unavailable.

``BENCH_LEGALITY_SCALE`` scales the instance (1.0 -> ~100k entries;
CI smoke uses a small fraction).
"""

import os
import random
import time
from functools import lru_cache

import pytest

from repro.legality import engine
from repro.legality.engine import CheckSession

from _helpers import (
    cold_check,
    oracle_check,
    print_series,
    whitepages_instance,
    wp_schema,
)

SCALE = float(os.environ.get("BENCH_LEGALITY_SCALE", "1.0"))


def _verdicts(report):
    """A report as an order-independent multiset of verdicts."""
    return sorted((v.kind, v.message, v.dn or "", v.element or "") for v in report.violations)


@lru_cache(maxsize=None)
def _big_instance():
    """A ~100k-entry legal instance at SCALE=1.0 (cached per process)."""
    from repro.workloads import generate_whitepages

    orgs = max(1, int(300 * SCALE))
    return generate_whitepages(
        orgs=orgs, units_per_level=5, depth=2, persons_per_unit=10, seed=42,
    )


def _corrupt(instance, rng, count):
    """Inject ``count`` content violations; returns the mutated copy."""
    mutated = instance.copy()
    persons = sorted(mutated.entries_with_class("person"))
    for eid in rng.sample(persons, min(count, len(persons))):
        entry = mutated.entry(eid)
        value = next(iter(entry.values("name")))
        entry.remove_value("name", value)
    return mutated


# ----------------------------------------------------------------------
# gate 1: parallel speedup
# ----------------------------------------------------------------------
def test_parallel_speedup(benchmark, monkeypatch):
    """4 workers >= 1.5x over the sequential content pass at ~100k
    entries; verdicts must agree regardless."""
    schema = wp_schema()
    instance = _big_instance()
    if len(instance) < engine.MIN_PARALLEL:  # smoke scale: still use the pool
        monkeypatch.setattr(engine, "MIN_PARALLEL", 1)
    sequential = CheckSession(schema, parallelism=1)
    parallel = CheckSession(schema, parallelism=4)
    try:
        seq_report = sequential.check(instance)
        par_report = parallel.check(instance)
        assert _verdicts(seq_report) == _verdicts(par_report)
        assert seq_report.is_legal, "generator output must be legal"
        assert par_report.stats.workers == 4

        seq_time = min(_timed_cold(sequential, instance) for _ in range(3))
        par_time = min(_timed_cold(parallel, instance) for _ in range(3))
    finally:
        sequential.close()
        parallel.close()

    speedup = seq_time / par_time if par_time else float("inf")
    print_series(
        "LEG: parallel speedup",
        [
            (f"|D|={len(instance)}",),
            (f"sequential={seq_time * 1e3:.1f}ms",),
            (f"parallel(4)={par_time * 1e3:.1f}ms",),
            (f"speedup={speedup:.2f}x",),
        ],
    )
    benchmark.extra_info["entries"] = len(instance)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark(lambda: None)  # timing captured above; keep the fixture happy

    cores = os.cpu_count() or 1
    if cores < 4:
        pytest.skip(f"speedup gate needs >= 4 cores (have {cores})")
    assert speedup >= 1.5, f"expected >= 1.5x on 4 workers, got {speedup:.2f}x"


def _timed_cold(session, instance):
    start = time.perf_counter()
    cold_check(session, instance)
    return time.perf_counter() - start


# ----------------------------------------------------------------------
# gate 2: warm-cache re-check cost ∝ |Δ|
# ----------------------------------------------------------------------
def test_warm_recheck_cost_tracks_dirty_set(benchmark):
    """After mutating k entries, re-check work is exactly k content
    checks — independent of |D|."""
    schema = wp_schema()
    instance = _big_instance().copy()
    total = len(instance)
    rows = []
    with CheckSession(schema) as session:
        cold = session.check(instance)
        assert cold.stats.entries_checked == total
        assert cold.stats.cache_hits == 0

        persons = sorted(instance.entries_with_class("person"))
        rng = random.Random(9)
        for k in (1, 8, 32):
            for i, eid in enumerate(rng.sample(persons, k)):
                # unique new value -> unique fresh fingerprint
                instance.entry(eid).add_value("name", f"dirty {k}-{i}")
            report = session.check(instance)
            assert report.is_legal
            rows.append((f"|Δ|={k}", f"checked={report.stats.entries_checked}",
                         f"hits={report.stats.cache_hits}"))
            assert report.stats.entries_checked == k, (
                f"warm re-check after {k} mutations re-ran "
                f"{report.stats.entries_checked} content checks"
            )
            assert report.stats.cache_hits == total - k

        print_series(f"LEG: warm re-check work vs |Δ| (|D|={total})", rows)
        benchmark.extra_info["entries"] = total
        benchmark(lambda: session.check(instance).is_legal)


# ----------------------------------------------------------------------
# gate 3: differential — session vs the sequential reference
# ----------------------------------------------------------------------
def _no_process_pools(*args, **kwargs):
    raise OSError("no process pools on this platform")


@pytest.mark.parametrize("bad", [0, 7])
def test_engine_sequential_naive_agree(benchmark, bad, monkeypatch):
    """The session — process pool, thread fallback, warm cache — agrees
    verdict-for-verdict with both sequential oracles, on a legal
    instance and on one with injected content violations."""
    schema = wp_schema()
    rng = random.Random(bad)
    instance = whitepages_instance("large")
    if bad:
        instance = _corrupt(instance, rng, bad)

    sequential = _verdicts(oracle_check(schema, instance, structure="query"))
    naive = _verdicts(oracle_check(schema, instance, structure="naive"))
    monkeypatch.setattr(engine, "MIN_PARALLEL", 1)
    with CheckSession(schema, parallelism=2) as session:
        engine_cold = _verdicts(session.check(instance))
        engine_warm = _verdicts(session.check(instance))
    with monkeypatch.context() as patch:
        patch.setattr(engine, "ProcessPoolExecutor", _no_process_pools)
        with CheckSession(schema, parallelism=2) as session:
            engine_thread = _verdicts(session.check(instance))

    assert engine_cold == sequential
    assert engine_warm == sequential
    assert engine_thread == sequential
    assert naive == sequential
    assert bool(sequential) == bool(bad)

    benchmark.extra_info["entries"] = len(instance)
    benchmark.extra_info["violations"] = len(sequential)
    with CheckSession(schema) as session:
        benchmark(lambda: cold_check(session, instance))
