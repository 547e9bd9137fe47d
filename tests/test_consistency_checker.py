"""Schema-level consistency checking, witness synthesis, and the
bounded-model-finder differential (Theorem 5.2)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from modelfinder import find_model
from repro.consistency.checker import ConsistencyChecker, check_consistency
from repro.consistency.engine import close
from repro.consistency.witness import WitnessSynthesisError, synthesize_witness
from repro.errors import InconsistentSchemaError
from repro.legality.checker import LegalityChecker
from repro.schema.attribute_schema import AttributeSchema
from repro.schema.class_schema import ClassSchema
from repro.schema.directory_schema import DirectorySchema
from repro.schema.structure_schema import StructureSchema
from repro.workloads import (
    den_schema,
    den_schema_overconstrained,
    random_schema,
    whitepages_schema,
)

_NO_STACKING = (
    "required ancestor {!r} of {!r} cannot be placed: forbidden elements "
    "block both stacking above the tree and splicing above the entry"
)
_INCOMPARABLE = "a single entry would need incomparable core classes {!r} and {!r}"
_NO_CONVERGENCE = (
    "node budget exhausted — the schema's required edges do not converge "
    "under demand-driven construction"
)
_FORBIDDEN = (
    "constructed witness failed the legality check:\nILLEGAL: 1 violation(s)\n"
    "  [forbidden-relationship] at cn=w{}: entry participates in forbidden "
    "relationship {} ↛↛ {}"
)

#: Seeds of ``random_schema(mode="consistent")`` in 0..10,000 that the
#: rules call consistent but synthesis builds no witness for, each with
#: its ``witness_error``.  EXPERIMENTS.md records what
#: ``tests/modelfinder.find_model(max_entries=5)`` finds for each.
WITNESS_GAP = {
    1185: _NO_CONVERGENCE,
    1647: _INCOMPARABLE.format("k1", "k3"),
    1975: _INCOMPARABLE.format("k3", "k4"),
    4098: _NO_STACKING.format("k4", "k0"),
    4586: _INCOMPARABLE.format("k3", "k4"),
    5479: _NO_STACKING.format("k4", "k2"),
    5644: _NO_CONVERGENCE,
    6260: _INCOMPARABLE.format("k0", "k4"),
    6493: _FORBIDDEN.format(3, "k4", "k4"),
    6720: _NO_STACKING.format("k0", "k2"),
    6821: _FORBIDDEN.format(2, "k2", "k2"),
    6990: _NO_STACKING.format("k4", "k3"),
    7240: "placing a 'k4' entry below 'k3' would violate a forbidden-descendant "
          "element via 'k4'",
    8485: _FORBIDDEN.format(2, "k0", "k2"),
    8919: _NO_STACKING.format("k3", "k4"),
    9784: _NO_STACKING.format("k1", "k3"),
}


def tiny_schema(structure, classes=("a", "b", "c")):
    class_schema = ClassSchema()
    for name in classes:
        class_schema.add_core(name)
    return DirectorySchema(AttributeSchema(), class_schema, structure).validate()


class TestCheckerApi:
    def test_whitepages_consistent(self):
        result = check_consistency(whitepages_schema())
        assert result.consistent and result.proof() is None

    def test_den_consistent(self):
        assert check_consistency(den_schema()).consistent

    def test_den_overconstrained_inconsistent_with_proof(self):
        result = check_consistency(den_schema_overconstrained())
        assert not result.consistent
        proof = result.proof()
        assert "policyDomain" in proof and "∅ □" in proof

    def test_require_consistent_raises(self):
        with pytest.raises(InconsistentSchemaError, match="∅ □"):
            ConsistencyChecker(den_schema_overconstrained()).require_consistent()

    def test_require_consistent_returns_closure(self):
        closure = ConsistencyChecker(whitepages_schema()).require_consistent()
        assert closure.consistent

    def test_empty_classes_lint(self):
        schema = tiny_schema(
            StructureSchema().require_descendant("a", "a").require_class("b")
        )
        result = check_consistency(schema)
        assert result.consistent  # nothing forces class a to exist
        assert "a" in result.empty_classes()

    def test_bool_protocol(self):
        assert check_consistency(whitepages_schema())
        assert not check_consistency(den_schema_overconstrained())


class TestWitnessSynthesis:
    @pytest.mark.parametrize("make_schema", [whitepages_schema, den_schema])
    def test_witness_for_workload_schemas(self, make_schema):
        schema = make_schema()
        result = check_consistency(schema, synthesize=True)
        assert result.witness is not None, result.witness_error
        assert LegalityChecker(schema).is_legal(result.witness)

    def test_empty_structure_gives_empty_witness(self):
        schema = tiny_schema(StructureSchema())
        result = check_consistency(schema, synthesize=True)
        assert result.witness is not None and len(result.witness) == 0

    def test_required_parent_chain(self):
        schema = tiny_schema(
            StructureSchema()
            .require_class("c")
            .require_parent("c", "b")
            .require_parent("b", "a")
        )
        result = check_consistency(schema, synthesize=True)
        witness = result.witness
        assert witness is not None
        c_entry = next(
            witness.entry(e) for e in witness.entries_with_class("c")
        )
        chain = [a for a in witness.ancestors_of(c_entry)]
        assert chain[0].belongs_to("b")
        assert chain[1].belongs_to("a")

    def test_required_ancestor_stacking(self):
        schema = tiny_schema(
            StructureSchema().require_class("c").require_ancestor("c", "a")
        )
        result = check_consistency(schema, synthesize=True)
        witness = result.witness
        assert witness is not None
        c_entry = witness.entry(next(iter(witness.entries_with_class("c"))))
        assert any(a.belongs_to("a") for a in witness.ancestors_of(c_entry))

    def test_forbidden_child_detour(self):
        """a needs a b descendant but may not have a b child: the
        witness inserts a plain top entry in between."""
        schema = tiny_schema(
            StructureSchema()
            .require_class("a")
            .require_descendant("a", "b")
            .forbid_child("a", "b")
        )
        result = check_consistency(schema, synthesize=True)
        witness = result.witness
        assert witness is not None
        assert LegalityChecker(schema).is_legal(witness)
        a_entry = witness.entry(next(iter(witness.entries_with_class("a"))))
        assert not any(c.belongs_to("b") for c in witness.children_of(a_entry))
        assert any(d.belongs_to("b") for d in witness.descendants_of(a_entry))

    def test_witness_respects_required_attributes(self):
        classes = ClassSchema().add_core("a")
        attributes = AttributeSchema().declare("a", required=("name", "badge"))
        structure = StructureSchema().require_class("a")
        schema = DirectorySchema(attributes, classes, structure).validate()
        result = check_consistency(schema, synthesize=True)
        entry = result.witness.entry(
            next(iter(result.witness.entries_with_class("a")))
        )
        assert entry.has_attribute("name") and entry.has_attribute("badge")

    def test_witness_refuses_inconsistent_schema(self):
        schema = tiny_schema(
            StructureSchema()
            .require_class("a")
            .require_descendant("a", "b")
            .forbid_descendant("a", "b")
        )
        closure = close(schema.all_elements())
        with pytest.raises(WitnessSynthesisError):
            synthesize_witness(schema, closure)


class TestModelFinderDifferential:
    """The inference system vs. exhaustive bounded search: never unsound,
    and complete on all sampled small schemas."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_small_schemas(self, seed):
        schema = random_schema(
            n_classes=3, n_required=2, n_forbidden=1, n_required_classes=1,
            seed=seed, mode="any", max_depth=2,
        )
        verdict = check_consistency(schema).consistent
        # The verdict is the axiom set's, not one listing order's.
        shuffled = list(schema.all_elements())
        random.Random(seed).shuffle(shuffled)
        assert close(shuffled).consistent == verdict
        model = find_model(schema, max_entries=4)
        if model is not None:
            # Soundness: a real model means the rules must NOT derive ⊥.
            assert verdict, f"unsound: model {model} exists but rules say ⊥"
        else:
            # Completeness up to the bound: no model of ≤4 entries.  A
            # consistent verdict would need a larger witness; try to
            # synthesize one and verify it.
            if verdict:
                result = check_consistency(schema, synthesize=True)
                assert result.witness is not None, (
                    f"rules say consistent, no model ≤4, and synthesis "
                    f"failed: {result.witness_error}"
                )

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_injected_inconsistencies_always_detected(self, seed):
        for mode in ("cyclic", "contradictory"):
            schema = random_schema(
                n_classes=4, n_required=2, n_forbidden=1, seed=seed, mode=mode
            )
            assert not check_consistency(schema).consistent
            assert find_model(schema, max_entries=3) is None

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000).filter(lambda seed: seed not in WITNESS_GAP))
    def test_consistent_schemas_admit_witnesses(self, seed):
        self._admits_a_witness(seed)

    @pytest.mark.parametrize("seed", [
        pytest.param(seed, marks=pytest.mark.xfail(strict=True, reason=reason))
        for seed, reason in WITNESS_GAP.items()
    ])
    def test_witness_gap(self, seed):
        """The seeds of 0..10,000 whose consistent schema synthesis
        cannot build a witness for (ROADMAP: the synthesis gap)."""
        self._admits_a_witness(seed)

    @staticmethod
    def _admits_a_witness(seed):
        schema = random_schema(
            n_classes=5, n_required=3, n_forbidden=2, seed=seed, mode="consistent"
        )
        result = check_consistency(schema, synthesize=True)
        assert result.consistent
        assert result.witness is not None, result.witness_error
        assert LegalityChecker(schema).is_legal(result.witness)
