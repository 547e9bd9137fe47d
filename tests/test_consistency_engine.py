"""Engine-level tests: the paper's Section 5 examples, proofs, and the
soundness property (Theorem 5.1) on random legal instances."""

import random

from hypothesis import example, given, settings, strategies as st

from repro.axes import Axis
from repro.consistency.engine import close
from repro.legality.checker import LegalityChecker
from repro.schema.elements import (
    BOTTOM,
    Disjoint,
    ForbiddenEdge,
    RequiredClass,
    RequiredEdge,
    Subclass,
)
from repro.workloads import figure1_instance, random_schema, whitepages_schema

CH, PA, DE, AN = Axis.CHILD, Axis.PARENT, Axis.DESCENDANT, Axis.ANCESTOR


class TestSection51Cycles:
    def test_simple_cycle_inconsistent(self):
        """c1□, c1 → c2, c2 →→ c1 entails no finite legal instance."""
        closure = close([
            RequiredClass("c1"),
            RequiredEdge(CH, "c1", "c2"),
            RequiredEdge(DE, "c2", "c1"),
        ])
        assert not closure.consistent

    def test_footnote3_without_required_class(self):
        """Footnote 3: the two edges alone are satisfiable (by instances
        with no c1/c2 entries)."""
        closure = close([
            RequiredEdge(CH, "c1", "c2"),
            RequiredEdge(DE, "c2", "c1"),
        ])
        assert closure.consistent
        assert closure.empty_classes() == {"c1", "c2"}

    def test_subclass_interaction_cycle(self):
        """The Section 5.1 example: no cycle within the structure schema
        alone, but one arises through the class hierarchy."""
        closure = close([
            RequiredClass("c1"),
            RequiredEdge(CH, "c2", "c3"),
            RequiredEdge(DE, "c4", "c5"),
            Subclass("c1", "c2"),
            Subclass("c3", "c4"),
            Subclass("c5", "c1"),
        ])
        assert not closure.consistent

    def test_subclass_cycle_without_hierarchy_is_consistent(self):
        closure = close([
            RequiredClass("c1"),
            RequiredEdge(CH, "c2", "c3"),
            RequiredEdge(DE, "c4", "c5"),
        ])
        assert closure.consistent

    def test_mutual_parent_requirement_inconsistent(self):
        """Every c1 needs a c2 parent and vice versa: an infinite upward
        chain — caught via ancestor transitivity + loop."""
        closure = close([
            RequiredClass("c1"),
            RequiredEdge(PA, "c1", "c2"),
            RequiredEdge(PA, "c2", "c1"),
        ])
        assert not closure.consistent

    def test_desc_anc_exchange_is_consistent(self):
        closure = close([
            RequiredClass("c1"),
            RequiredEdge(DE, "c1", "c2"),
            RequiredEdge(AN, "c2", "c1"),
        ])
        assert closure.consistent


class TestSection52Contradictions:
    def test_direct_contradiction(self):
        closure = close([
            RequiredClass("c1"),
            RequiredEdge(DE, "c1", "c2"),
            ForbiddenEdge(DE, "c1", "c2"),
        ])
        assert not closure.consistent

    def test_contradiction_without_population_is_consistent(self):
        closure = close([
            RequiredEdge(DE, "c1", "c2"),
            ForbiddenEdge(DE, "c1", "c2"),
        ])
        assert closure.consistent
        assert "c1" in closure.empty_classes()

    def test_contradiction_through_class_hierarchy(self):
        """Forbidden at a superclass contradicts required at the
        subclass."""
        closure = close([
            RequiredClass("sub"),
            Subclass("sub", "sup"),
            RequiredEdge(DE, "sub", "x"),
            ForbiddenEdge(DE, "sup", "x"),
        ])
        assert not closure.consistent

    def test_leaf_class_cannot_require_children(self):
        """person ↛ top plus a required child of person is contradictory
        once persons must exist."""
        closure = close([
            RequiredClass("person"),
            ForbiddenEdge(CH, "person", "top"),
            RequiredEdge(CH, "person", "badge"),
        ])
        assert not closure.consistent

    def test_roots_cannot_require_parents(self):
        closure = close([
            RequiredClass("site"),
            ForbiddenEdge(CH, "top", "site"),  # sites are roots
            RequiredEdge(PA, "site", "region"),
        ])
        assert not closure.consistent


class TestClosureApi:
    def test_proof_is_none_when_consistent(self):
        closure = close([RequiredClass("a")])
        assert closure.proof_of_inconsistency() is None
        assert closure.consistent and bool(closure)

    def test_proof_tree_grounds_in_axioms(self):
        closure = close([
            RequiredClass("c1"),
            RequiredEdge(DE, "c1", "c2"),
            ForbiddenEdge(DE, "c1", "c2"),
        ])
        proof = closure.proof_of_inconsistency()
        assert proof is not None
        assert "[axiom]" in proof
        assert "∅ □" in proof

    def test_explain_underived_fact(self):
        closure = close([RequiredClass("a")])
        assert "not derived" in closure.explain(RequiredClass("zz"))

    def test_derivation_lookup_normalizes_disjoint(self):
        closure = close([Disjoint("z", "a")])
        assert Disjoint("a", "z") in closure
        assert Disjoint("z", "a") in closure

    def test_closure_is_deterministic(self):
        elements = [
            RequiredClass("c1"),
            RequiredEdge(CH, "c1", "c2"),
            RequiredEdge(DE, "c2", "c3"),
            ForbiddenEdge(DE, "c3", "c1"),
        ]
        first = close(elements)
        second = close(elements)
        assert set(first.facts) == set(second.facts)

    def test_assume_top_seeds_top_subsumption(self):
        closure = close([RequiredClass("a")], assume_top=True)
        assert Subclass("a", "top") in closure
        bare = close([RequiredClass("a")], assume_top=False)
        assert Subclass("a", "top") not in bare


class TestTheorem51Soundness:
    """Every derived fact holds on every legal instance (spot-checked on
    the white-pages schema and random instances)."""

    def test_derived_facts_hold_on_figure1(self):
        schema = whitepages_schema()
        instance = figure1_instance()
        assert LegalityChecker(schema).is_legal(instance)
        closure = close(schema.all_elements())
        assert closure.consistent
        for fact in closure.facts:
            assert fact.is_satisfied(instance), f"derived fact {fact} violated"

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 1000))
    def test_derived_facts_hold_on_generated(self, seed):
        from repro.workloads import generate_whitepages

        schema = whitepages_schema()
        instance = generate_whitepages(orgs=1, units_per_level=2, depth=1,
                                       persons_per_unit=1, seed=seed)
        closure = close(schema.all_elements())
        for fact in closure.facts:
            assert fact.is_satisfied(instance), f"derived fact {fact} violated"


def assert_well_founded(closure):
    """Every fact's proof bottoms out: following premises never revisits
    a fact and ends in premise-free leaves (axioms, reflexivity seeds)."""
    grounded = set()

    def visit(fact, path):
        assert fact not in path, f"{fact} is derived from itself"
        if fact in grounded:
            return
        derivation = closure.derivation(fact)
        assert derivation is not None, f"{fact} is a premise but not a fact"
        if not derivation.premises:
            assert derivation.rule in ("axiom", "sub-reflexive")
        for premise in derivation.premises:
            visit(premise, path | {fact})
        grounded.add(fact)

    for fact in closure.facts:
        visit(fact, frozenset())
        assert "(not derived)" not in closure.explain(fact)


class TestClosureIsAFunctionOfTheAxiomSet:
    """The closure is the least fixpoint of the rule table, so its facts
    — and, because seeding is canonical and the worklist FIFO, the
    derivation recorded for each — depend on *which* axioms were given,
    not on their order.  (A hand-unrolled engine that missed the
    forbidden-premise triggers of ``ancestorhood`` / ``anc-exclusion``
    called the schema below consistent in 2,688 of its 40,320 orders.)"""

    AXIOMS = [
        RequiredClass("b"),
        RequiredEdge(DE, "b", "c"),
        RequiredEdge(AN, "c", "a"),
        Disjoint("a", "b"),
        Subclass("a", "A"),
        Subclass("b", "B"),
        ForbiddenEdge(DE, "A", "B"),
        ForbiddenEdge(DE, "B", "A"),
    ]

    def test_eight_axiom_schema_is_inconsistent_in_every_order(self):
        listed = close(self.AXIOMS)
        assert not listed.consistent
        assert listed.derivation(ForbiddenEdge(DE, "b", "c")).rule == "ancestorhood"
        assert_well_founded(listed)

        b, b_c, a_A, b_B, A_B, c_a, a_b, B_A = (
            self.AXIOMS[i] for i in (0, 1, 4, 5, 6, 2, 3, 7)
        )
        # The order the old engine answered CONSISTENT on.
        quoted = close([b, b_c, a_A, b_B, A_B, c_a, a_b, B_A])
        assert not quoted.consistent
        assert quoted.facts == listed.facts
        for seed in range(200):
            shuffled = list(self.AXIOMS)
            random.Random(seed).shuffle(shuffled)
            assert close(shuffled).facts == listed.facts, seed

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        n_classes=st.integers(4, 7),
        n_required=st.integers(3, 7),
        n_forbidden=st.integers(2, 5),
        order=st.integers(0, 1000),
    )
    # The first seeds whose closure changed with the order at 606e8ec.
    @example(seed=550, n_classes=7, n_required=6, n_forbidden=3, order=0)
    @example(seed=556, n_classes=7, n_required=4, n_forbidden=5, order=2)
    @example(seed=1278, n_classes=4, n_required=3, n_forbidden=3, order=0)
    def test_permutation_invariant_idempotent_and_well_founded(
        self, seed, n_classes, n_required, n_forbidden, order
    ):
        schema = random_schema(
            n_classes=n_classes, n_required=n_required, n_forbidden=n_forbidden,
            seed=seed, mode="any",
        )
        axioms = list(schema.all_elements())
        closure = close(axioms)
        assert_well_founded(closure)

        shuffled = list(axioms)
        random.Random(order).shuffle(shuffled)
        # Dict equality: same facts, and the same Derivation for each.
        assert close(shuffled).facts == closure.facts

        again = close(list(closure.facts))
        assert set(again.facts) == set(closure.facts)
        assert again.consistent == closure.consistent == (BOTTOM not in closure)
