"""Tests for the batched structure-check engine.

The engine must be *report-identical* to ``QueryStructureChecker`` (same
violations, same order) and verdict-identical to
``NaiveStructureChecker`` on arbitrary instances, and every check must
evaluate every element: it keeps no verdict between calls.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.axes import Axis
from repro.legality.structure import NaiveStructureChecker, QueryStructureChecker
from repro.legality.structure_engine import StructureEngine
from repro.model.instance import DirectoryInstance
from repro.schema.structure_schema import StructureSchema
from repro.workloads import random_forest

LABELS = ["k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"]
AXES = [Axis.CHILD, Axis.DESCENDANT, Axis.PARENT, Axis.ANCESTOR]


def report_lines(report):
    """Ordered report identity: kind, message, dn, element — everything."""
    return [(v.kind, v.message, v.dn, v.element) for v in report]


def verdict_signature(report):
    """Order-independent identity (the naive checker orders differently)."""
    return sorted((v.kind, v.element or "", v.dn or "") for v in report)


def big_random_schema(seed, n_elements=36):
    """A randomized structure schema with mixed axes and polarities —
    the >= 32-element shape the satellite asks for."""
    rng = random.Random(seed)
    schema = StructureSchema()
    for _ in range(n_elements):
        source, target = rng.sample(LABELS, 2)
        if rng.random() < 0.35:
            # forbidden edges are downward-only (Definition 2.4)
            schema.forbid(source, rng.choice(AXES[:2]), target)
        else:
            schema.require(source, rng.choice(AXES), target)
    for name in rng.sample(LABELS, 2):
        schema.require_class(name)
    return schema


def tower_instance(n=120, width=4):
    """A deep, bushy forest where every label is populated enough that
    the adaptive evaluator picks whole-forest flag passes."""
    d = DirectoryInstance()
    rng = random.Random(7)
    parents = [None]
    for i in range(n):
        parent = rng.choice(parents[-width:])
        dn = f"o=e{i}" if parent is None else f"o=e{i},{parent}"
        d.add_entry(parent, f"o=e{i}", [LABELS[i % len(LABELS)], "top"])
        parents.append(dn)
    return d


class TestDifferential:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(10, 80), st.integers(0, 10_000))
    def test_engine_matches_both_checkers(self, seed, size, schema_seed):
        schema = big_random_schema(schema_seed)
        instance = random_forest(n_entries=size, labels=LABELS, seed=seed)
        engine = StructureEngine(schema)
        engine_report = engine.check(instance)
        assert engine.is_legal(instance) == engine_report.is_legal
        query_report = QueryStructureChecker(schema).check(instance)
        naive_report = NaiveStructureChecker(schema).check(instance)
        # byte-identical to the query reduction, including order
        assert report_lines(engine_report) == report_lines(query_report)
        # verdict-identical to the naive baseline
        assert verdict_signature(engine_report) == verdict_signature(naive_report)

    def test_warm_check_after_updates_stays_identical(self):
        schema = big_random_schema(3)
        instance = random_forest(n_entries=50, labels=LABELS, seed=3)
        engine = StructureEngine(schema)
        engine.check(instance)
        for i in range(8):
            instance.add_entry(None, f"o=new{i}", [LABELS[i % 3], "top"])
            warm = engine.check(instance)
            cold = QueryStructureChecker(schema).check(instance)
            assert report_lines(warm) == report_lines(cold)


class TestBatching:
    def test_flag_bound_checks_share_two_passes(self):
        schema = (
            StructureSchema()
            .require_descendant("k0", "k1")
            .require_descendant("k2", "k3")
            .require_ancestor("k4", "k5")
            .forbid("k6", Axis.DESCENDANT, "k7")
            .require("k1", Axis.ANCESTOR, "k6")
        )
        instance = tower_instance()
        engine = StructureEngine(schema)
        engine.check(instance)
        assert engine.last_batched == 5
        # one reverse sweep answers all descendant checks, one
        # forward sweep all ancestor checks — never one per element
        assert engine.last_flag_passes == 2

    def test_batched_cost_beats_per_query(self):
        elements = [(LABELS[i % 8], LABELS[(i + 3) % 8]) for i in range(16)]
        schema = StructureSchema()
        for source, target in elements:
            schema.require_descendant(source, target)
        instance = tower_instance(n=400)
        engine = StructureEngine(schema)
        engine.check(instance)
        batched_cost = engine.last_cost
        assert engine.last_batched > 0
        query = QueryStructureChecker(schema)
        query.check(instance)
        assert batched_cost < query.last_cost

    def test_required_class_is_constant_cost(self):
        schema = StructureSchema().require_class("k0")
        instance = tower_instance(n=200)
        engine = StructureEngine(schema)
        report = engine.check(instance)
        assert report.is_legal
        assert engine.last_cost == 1
        assert engine.last_flag_passes == 0


class TestEveryCheckIsWhole:
    def test_every_check_evaluates_every_element(self):
        schema = big_random_schema(11)
        instance = random_forest(n_entries=40, labels=LABELS, seed=11)
        engine = StructureEngine(schema)
        engine.check(instance)
        cost = engine.last_cost
        assert cost > 0
        engine.check(instance)
        assert engine.last_cost == cost

    def test_verdicts_never_leak_across_instances(self):
        schema = StructureSchema().require_child("k0", "k1")
        legal = DirectoryInstance()
        legal.add_entry(None, "o=a", ["k0", "top"])
        legal.add_entry("o=a", "o=b,o=a", ["k1", "top"])
        illegal = DirectoryInstance()
        illegal.add_entry(None, "o=a", ["k0", "top"])
        illegal.add_entry("o=a", "o=b,o=a", ["k2", "top"])
        engine = StructureEngine(schema)
        assert engine.is_legal(legal)
        assert not engine.is_legal(illegal)
        assert engine.is_legal(legal)


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(pytest.main([__file__, "-q"]))
