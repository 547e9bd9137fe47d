"""Experiment LEG — the memoized legality engine.

Gates for :class:`repro.legality.engine.CheckSession`:

* **Warm-cache re-check ∝ |Δ|** — after mutating ``k`` entries, a
  re-check must re-run content checks on exactly the ``k``-entry dirty
  set (machine-independent work-counter gate, per the benchmark
  conventions in ``_helpers``).
* **Differential** — the session, cold and warm, agrees
  verdict-for-verdict with the sequential reference
  (``tests/oracle.py``: one Figure 4 query at a time, and the naive
  quadratic baseline) on legal and corrupted instances.

There is one checking path, sequential and memoized, and no engine
knobs: cold timings call ``clear_cache()`` first.

``BENCH_LEGALITY_SCALE`` scales the instance (1.0 -> ~100k entries;
CI smoke uses a small fraction).
"""

import os
import random
from functools import lru_cache

import pytest

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
# gate 1: warm-cache re-check cost ∝ |Δ|
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
# gate 2: differential — session vs the sequential reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad", [0, 7])
def test_engine_sequential_naive_agree(benchmark, bad):
    """The session, cold and warm, agrees verdict-for-verdict with both
    sequential oracles, on a legal instance and on one with injected
    content violations."""
    schema = wp_schema()
    rng = random.Random(bad)
    instance = whitepages_instance("large")
    if bad:
        instance = _corrupt(instance, rng, bad)

    sequential = _verdicts(oracle_check(schema, instance, structure="query"))
    naive = _verdicts(oracle_check(schema, instance, structure="naive"))
    with CheckSession(schema) as session:
        engine_cold = _verdicts(session.check(instance))
        engine_warm = _verdicts(session.check(instance))

    assert engine_cold == sequential
    assert engine_warm == sequential
    assert naive == sequential
    assert bool(sequential) == bool(bad)

    benchmark.extra_info["entries"] = len(instance)
    benchmark.extra_info["violations"] = len(sequential)
    with CheckSession(schema) as session:
        benchmark(lambda: cold_check(session, instance))
