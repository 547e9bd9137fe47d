"""Experiment FIG1 — the Figure 1 white-pages directory, at scale.

Regenerates the paper's running-example instance, then measures
end-to-end legality checking (content + structure, Definition 2.7)
across instance tiers.  The shape claim under test: total checking work
is **linear in |D|** (Theorem 3.1) — asserted via the fitted growth
exponent of the structure-checker's work counter.
"""

import pytest

from repro.legality.checker import LegalityChecker
from repro.legality.structure import QueryStructureChecker
from repro.ldif import parse_ldif, serialize_ldif
from repro.query.evaluator import QueryEvaluator
from repro.workloads import figure1_instance

from _helpers import (
    WHITEPAGES_TIERS,
    fit_growth,
    print_series,
    whitepages_instance,
    wp_schema,
)


def test_figure1_exact_instance(benchmark):
    """Construct + fully check the exact Figure 1 fragment."""
    schema = wp_schema()
    checker = LegalityChecker(schema)

    def build_and_check():
        instance = figure1_instance()
        assert checker.check(instance).is_legal
        return len(instance)

    assert benchmark(build_and_check) == 6


@pytest.mark.parametrize("tier", list(WHITEPAGES_TIERS))
def test_full_legality_check(benchmark, tier):
    """Full legality check per tier (the headline FIG1 series)."""
    schema = wp_schema()
    checker = LegalityChecker(schema)
    instance = whitepages_instance(tier)
    benchmark.extra_info["entries"] = len(instance)
    result = benchmark(lambda: checker.check(instance).is_legal)
    assert result


@pytest.mark.parametrize("tier", ["small", "large"])
def test_ldif_roundtrip(benchmark, tier):
    """LDIF export+import throughput on the same tiers."""
    instance = whitepages_instance(tier)
    text = serialize_ldif(instance)
    benchmark.extra_info["entries"] = len(instance)
    parsed = benchmark(lambda: parse_ldif(text, attributes=instance.attributes))
    assert len(parsed) == len(instance)


def test_linear_shape_of_structure_checking(benchmark):
    """Structure-checking *work* (entries touched) grows linearly in
    |D| — exponent within [0.8, 1.25]."""
    schema = wp_schema()
    checker = QueryStructureChecker(schema.structure_schema)
    sizes, costs = [], []
    for tier in WHITEPAGES_TIERS:
        instance = whitepages_instance(tier)
        evaluator = QueryEvaluator(instance)
        for check in checker.checks:
            evaluator.evaluate(check.query)
        sizes.append(len(instance))
        costs.append(evaluator.cost)
    exponent = fit_growth(sizes, costs)
    print_series(
        "FIG1: structure-check work vs |D|",
        list(zip(["|D|"] + sizes, ["work"] + costs)),
    )
    benchmark.extra_info["sizes"] = sizes
    benchmark.extra_info["costs"] = costs
    benchmark.extra_info["exponent"] = round(exponent, 3)
    assert 0.8 <= exponent <= 1.25, f"not linear: exponent {exponent:.2f}"

    # Keep a timed kernel so --benchmark-only reports something real.
    instance = whitepages_instance("medium")
    benchmark(lambda: checker.check(instance).is_legal)
