"""Experiment THM41 — update-transaction modularity.

Theorem 4.1 licenses checking any transaction as subtree insertions
followed by subtree deletions.  This bench measures:

* decomposition overhead (grouping single-entry operations into maximal
  subtrees) — linear in transaction length;
* guarded transaction application (decompose + per-subtree incremental
  checks) versus the naive alternative (apply everything, then full
  re-check) — the modular path must win and widen with |D|.
"""

import pytest

from repro.legality.checker import LegalityChecker
from repro.updates.incremental import IncrementalChecker
from repro.updates.transactions import decompose
from repro.workloads import random_transaction

from _helpers import (
    WHITEPAGES_TIERS,
    fit_growth,
    print_series,
    whitepages_instance,
    wp_schema,
)


@pytest.mark.parametrize("ops", [4, 16, 64])
def test_decomposition(benchmark, ops):
    """Grouping a transaction of ``2*ops`` operations into subtrees."""
    instance = whitepages_instance("medium")
    tx = random_transaction(instance, inserts=ops, seed=3)
    benchmark.extra_info["operations"] = len(tx)
    steps = benchmark(lambda: decompose(tx, instance))
    assert len(steps) == ops  # each unit+person pair is one subtree


def test_decomposition_linear_in_transaction_size(benchmark):
    """Decomposition work grows linearly with operation count."""
    import time

    instance = whitepages_instance("medium")
    sizes, times = [], []
    for ops in (8, 16, 32, 64, 128):
        tx = random_transaction(instance, inserts=ops, seed=11)
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            decompose(tx, instance)
            best = min(best, time.perf_counter() - start)
        sizes.append(len(tx))
        times.append(best)
    exponent = fit_growth(sizes, [int(t * 1e9) for t in times])
    print_series(
        "THM41: decomposition time vs |U|",
        [(f"|U|={s}", f"{t:.5f}s") for s, t in zip(sizes, times)]
        + [(f"exponent={exponent:.2f}",)],
    )
    benchmark.extra_info["exponent"] = round(exponent, 3)
    assert exponent < 1.5, f"decomposition should be ~linear, got {exponent:.2f}"

    tx = random_transaction(instance, inserts=32, seed=11)
    benchmark(lambda: decompose(tx, instance))


@pytest.mark.parametrize("tier", ["small", "medium", "large"])
def test_guarded_transaction(benchmark, tier):
    """Modular path: decompose + incremental per-subtree checks.
    Applied to a private copy each round (setup excluded from timing)."""
    schema = wp_schema()

    def setup():
        instance = whitepages_instance(tier).copy()
        guard = IncrementalChecker(schema, instance, assume_legal=True)
        tx = random_transaction(instance, inserts=3, seed=21)
        return (guard, tx), {}

    def run(guard, tx):
        outcome = guard.apply_transaction(tx)
        assert outcome.applied

    benchmark.extra_info["entries"] = len(whitepages_instance(tier))
    benchmark.pedantic(run, setup=setup, rounds=10)


def test_modular_beats_apply_then_recheck(benchmark):
    """Guarded (incremental) application does asymptotically less work
    than apply-everything-then-full-recheck."""
    import time

    schema = wp_schema()
    full = LegalityChecker(schema)
    sizes, guarded_times, recheck_times = [], [], []
    for tier in WHITEPAGES_TIERS:
        base = whitepages_instance(tier)

        # guarded path
        instance = base.copy()
        guard = IncrementalChecker(schema, instance, assume_legal=True)
        tx = random_transaction(instance, inserts=3, seed=33)
        start = time.perf_counter()
        assert guard.apply_transaction(tx).applied
        guarded = time.perf_counter() - start

        # naive path: apply blindly, then full re-check
        instance2 = base.copy()
        tx2 = random_transaction(instance2, inserts=3, seed=33)
        start = time.perf_counter()
        for step in decompose(tx2, instance2):
            from repro.updates.transactions import apply_subtree_update

            apply_subtree_update(instance2, step)
        assert full.check(instance2).is_legal
        recheck = time.perf_counter() - start

        sizes.append(len(base))
        guarded_times.append(guarded)
        recheck_times.append(recheck)

    guarded_exp = fit_growth(sizes, [int(t * 1e9) for t in guarded_times])
    recheck_exp = fit_growth(sizes, [int(t * 1e9) for t in recheck_times])
    print_series(
        "THM41: guarded vs apply+full-recheck (seconds)",
        [
            (f"|D|={s}", f"guarded={g:.5f}", f"recheck={r:.5f}",
             f"ratio={r / g:.1f}x")
            for s, g, r in zip(sizes, guarded_times, recheck_times)
        ]
        + [(f"exponents: guarded={guarded_exp:.2f}", f"recheck={recheck_exp:.2f}")],
    )
    benchmark.extra_info["guarded_exponent"] = round(guarded_exp, 3)
    benchmark.extra_info["recheck_exponent"] = round(recheck_exp, 3)
    assert recheck_times[-1] > guarded_times[-1], "modular path should win at scale"
    assert recheck_exp > guarded_exp, "re-check should grow faster"

    instance = whitepages_instance("medium").copy()
    guard = IncrementalChecker(schema, instance, assume_legal=True)

    def kernel():
        tx = random_transaction(instance, inserts=1, seed=44)
        assert guard.apply_transaction(tx).applied

    benchmark(kernel)
