"""Experiment FIG5 — incremental legality testing under updates.

Reproduces the payoff of Figure 5 / Theorem 4.2: on a legal instance,
checking a subtree *insertion* incrementally (Δ-scoped queries) costs
work proportional to |Δ|, independent of |D| — while a full re-check
costs Θ(|D|).  Deletion splits by row: the ``∅``-scoped rows are free,
the required-child/descendant rows fall back to a full pass.

Series produced: per-tier incremental-vs-full work counters and the
speedup factor, plus wall-clock benchmarks of guarded insertion.
"""

import random

import pytest

from repro.updates.incremental import IncrementalChecker
from repro.workloads import make_unit_subtree

from _helpers import WHITEPAGES_TIERS, fit_growth, print_series, whitepages_instance, wp_schema


def _guard(tier: str) -> IncrementalChecker:
    # Work on a private copy: benchmarks must not mutate the cache.
    instance = whitepages_instance(tier).copy()
    return IncrementalChecker(wp_schema(), instance, assume_legal=True)


@pytest.mark.parametrize("tier", ["small", "medium", "large"])
def test_guarded_insertion(benchmark, tier):
    """try_insert of a 3-entry unit (insert + rollback via delete to
    keep the instance stable across rounds)."""
    guard = _guard(tier)
    rng = random.Random(0)
    parent = "o=org0"
    benchmark.extra_info["entries"] = len(guard.instance)

    def insert_and_remove():
        delta = make_unit_subtree(rng, persons=2,
                                  attributes=guard.instance.attributes)
        outcome = guard.try_insert(parent, delta)
        assert outcome.applied
        root_dn = f"{delta.dn_of(delta.root_ids()[0])},{parent}"
        guard.instance.delete_subtree(root_dn)
        return outcome.cost

    benchmark(insert_and_remove)


@pytest.mark.parametrize("tier", ["small", "medium", "large"])
def test_full_recheck_baseline(benchmark, tier):
    """The non-incremental alternative: full legality re-check."""
    guard = _guard(tier)
    benchmark.extra_info["entries"] = len(guard.instance)
    assert benchmark(lambda: guard.full_recheck().is_legal)


def test_insertion_cost_independent_of_instance_size(benchmark):
    """The FIG5 headline: incremental insertion work stays ~flat in |D|
    (growth exponent ≈ 0) while the full re-check grows linearly."""
    rng = random.Random(7)
    sizes, inc_costs, full_costs = [], [], []
    for tier in WHITEPAGES_TIERS:
        guard = _guard(tier)
        delta = make_unit_subtree(rng, persons=2,
                                  attributes=guard.instance.attributes)
        outcome = guard.try_insert("o=org0", delta)
        assert outcome.applied
        sizes.append(len(guard.instance))
        inc_costs.append(outcome.cost)
        # full re-check work proxy: structure evaluation over all of D.
        # Summing per-call ``last_cost`` attributes the work to each
        # check explicitly instead of reading the evaluator's silently
        # accumulating ``cost`` counter.
        from repro.query.evaluator import QueryEvaluator

        evaluator = QueryEvaluator(guard.instance)
        full_cost = 0
        for check in guard.session.structure.checks:
            evaluator.evaluate(check.query)
            full_cost += evaluator.last_cost
        assert full_cost == evaluator.cost  # attribution covers all work
        full_costs.append(full_cost + len(guard.instance))

    inc_exp = fit_growth(sizes, inc_costs)
    full_exp = fit_growth(sizes, full_costs)
    print_series(
        "FIG5: insertion — incremental vs full work",
        [
            (f"|D|={s}", f"incremental={i}", f"full={f}", f"speedup={f / i:.1f}x")
            for s, i, f in zip(sizes, inc_costs, full_costs)
        ]
        + [(f"growth exponents: incremental={inc_exp:.2f}", f"full={full_exp:.2f}")],
    )
    benchmark.extra_info["incremental_exponent"] = round(inc_exp, 3)
    benchmark.extra_info["full_exponent"] = round(full_exp, 3)
    assert inc_exp < 0.35, f"incremental cost should be ~flat, got {inc_exp:.2f}"
    assert full_exp > 0.8, f"full re-check should be ~linear, got {full_exp:.2f}"
    assert full_costs[-1] / inc_costs[-1] > 10, "expected >10x speedup at scale"

    guard = _guard("medium")

    def insert_and_remove():
        delta = make_unit_subtree(rng, persons=2,
                                  attributes=guard.instance.attributes)
        assert guard.try_insert("o=org0", delta).applied
        guard.instance.delete_subtree(f"{delta.dn_of(delta.root_ids()[0])},o=org0")

    benchmark(insert_and_remove)


def test_deletion_skip_rows_are_free(benchmark):
    """Figure 5 deletion rows: required-parent/ancestor and forbidden
    forms need no evaluation; with the white-pages schema only
    ``orgGroup →→ person`` (required descendant) and
    ``organization → orgUnit`` (required child) force full passes."""
    guard = _guard("medium")
    # pick a deletable person (keeps orgGroup →→ person satisfied)
    person_dns = sorted(
        str(guard.instance.dn_of(e))
        for e in guard.instance.entries_with_class("person")
    )
    target = person_dns[0]

    outcome = guard.try_delete(target)
    skip_count = sum(1 for c in outcome.checks if c.startswith("skip"))
    full_count = sum(1 for c in outcome.checks if "full re-check" in c)
    print_series(
        "FIG5: deletion row behaviour",
        [(c,) for c in outcome.checks],
    )
    benchmark.extra_info["skipped_rows"] = skip_count
    benchmark.extra_info["full_rows"] = full_count
    assert skip_count >= 3  # person↛top, top↛organization, orgUnit←orgGroup
    assert full_count == 2  # orgGroup→→person, organization→orgUnit

    # timed kernel: delete+reinsert cycle
    guard2 = _guard("medium")
    dns = sorted(
        str(guard2.instance.dn_of(e))
        for e in guard2.instance.entries_with_class("person")
    )

    def delete_and_restore():
        entry = guard2.instance.entry(dns[0])
        parent = guard2.instance.parent_of(entry)
        removed = guard2.instance.delete_subtree(entry)
        guard2.instance.insert_subtree(str(parent.dn), removed)

    benchmark(delete_and_restore)
