"""Experiment THM31 — the Theorem 3.1 legality-testing bound.

Theorem 3.1: testing legality of ``D`` w.r.t. ``S = (A, H, S)`` costs
``O(|D| * (max|class(e)| + max|Aux| * depth(H) + max|val(e)| +
max Σ|a(c)| + |S|))``.  The three measurable shape claims:

1. for a fixed schema, total cost is **linear in |D|**;
2. for a fixed instance, structure-checking cost is **linear in |S|**
   (one query per element);
3. content cost per entry is independent of |D|.
"""

import time

import pytest

from repro.legality.checker import LegalityChecker
from repro.legality.content import ContentChecker
from repro.legality.structure import QueryStructureChecker
from repro.query.evaluator import QueryEvaluator
from repro.schema.structure_schema import StructureSchema

from _helpers import (
    WHITEPAGES_TIERS,
    fit_growth,
    print_series,
    whitepages_instance,
    wp_schema,
)


@pytest.mark.parametrize("tier", list(WHITEPAGES_TIERS))
def test_total_legality_cost(benchmark, tier):
    """The headline series: full Definition 2.7 check per tier."""
    checker = LegalityChecker(wp_schema())
    instance = whitepages_instance(tier)
    benchmark.extra_info["entries"] = len(instance)
    assert benchmark(lambda: checker.check(instance).is_legal)


def test_linear_in_instance_size(benchmark):
    """Claim 1: growth exponent of total time vs |D| ≈ 1."""
    checker = LegalityChecker(wp_schema())
    sizes, times = [], []
    for tier in WHITEPAGES_TIERS:
        instance = whitepages_instance(tier)
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            checker.check(instance)
            best = min(best, time.perf_counter() - start)
        sizes.append(len(instance))
        times.append(best)
    exponent = fit_growth(sizes, [int(t * 1e9) for t in times])
    print_series(
        "THM31: full check time vs |D|",
        [(f"|D|={s}", f"{t:.5f}s") for s, t in zip(sizes, times)]
        + [(f"exponent={exponent:.2f}",)],
    )
    benchmark.extra_info["exponent"] = round(exponent, 3)
    assert 0.7 <= exponent <= 1.35, f"not linear in |D|: {exponent:.2f}"
    instance = whitepages_instance("medium")
    benchmark(lambda: checker.check(instance).is_legal)


def test_linear_in_schema_size(benchmark):
    """Claim 2: structure-check work grows linearly with |S| for a
    fixed instance (synthetic schemas of 2..32 elements)."""
    instance = whitepages_instance("medium")
    classes = ["organization", "orgUnit", "person", "orgGroup",
               "staffMember", "researcher"]
    sizes, costs = [], []
    for k in (2, 4, 8, 16, 32):
        structure = StructureSchema()
        for i in range(k):
            source = classes[i % len(classes)]
            target = classes[(i + 1 + i // len(classes)) % len(classes)]
            if i % 3 == 2:
                structure.forbid_descendant(source, target)
            else:
                structure.require_descendant(source, target)
        checker = QueryStructureChecker(structure)
        evaluator = QueryEvaluator(instance)
        for check in checker.checks:
            evaluator.evaluate(check.query)
        sizes.append(max(1, len(structure)))
        costs.append(evaluator.cost)
    exponent = fit_growth(sizes, costs)
    print_series(
        "THM31: structure work vs |S| (fixed |D|)",
        [(f"|S|={s}", f"work={c}") for s, c in zip(sizes, costs)]
        + [(f"exponent={exponent:.2f}",)],
    )
    benchmark.extra_info["exponent"] = round(exponent, 3)
    assert 0.6 <= exponent <= 1.3, f"not linear in |S|: {exponent:.2f}"

    checker = QueryStructureChecker(wp_schema().structure_schema)
    benchmark(lambda: checker.check(instance).is_legal)


def test_content_cost_per_entry_is_flat(benchmark):
    """Claim 3: content work per entry is independent of |D|."""
    checker = ContentChecker(wp_schema())
    per_entry = []
    sizes = []
    for tier in WHITEPAGES_TIERS:
        instance = whitepages_instance(tier)
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            checker.check(instance)
            best = min(best, time.perf_counter() - start)
        sizes.append(len(instance))
        per_entry.append(best / len(instance))
    print_series(
        "THM31: content time per entry vs |D|",
        [(f"|D|={s}", f"{p * 1e6:.2f}us/entry") for s, p in zip(sizes, per_entry)],
    )
    spread = max(per_entry) / min(per_entry)
    benchmark.extra_info["per_entry_spread"] = round(spread, 2)
    assert spread < 5, f"per-entry cost should be ~flat, spread {spread:.1f}x"

    instance = whitepages_instance("medium")
    benchmark(lambda: checker.check(instance).is_legal)
