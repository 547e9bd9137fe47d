"""Cross-module property tests: the invariants that tie the paper's
three algorithm families together.

Each test here spans at least two subsystems — these are the properties
a reviewer would check to believe the reproduction as a whole.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st
from oracle import oracle_check, verdicts

from repro.consistency.checker import check_consistency
from repro.consistency.engine import close
from repro.ldif import parse_ldif, serialize_ldif
from repro.legality.checker import LegalityChecker
from repro.legality.engine import CheckSession
from repro.query.evaluator import QueryEvaluator
from repro.query.optimizer import SchemaAwareOptimizer
from repro.query.translate import translate_element
from repro.schema.discovery import discover_schema
from repro.store import Position
from repro.updates.incremental import IncrementalChecker
from repro.workloads import (
    corrupt,
    figure1_instance,
    generate_whitepages,
    random_forest,
    random_insertions,
    random_schema,
    whitepages_schema,
)


class TestLegalityPipeline:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_ldif_roundtrip_preserves_legality_verdict(self, seed):
        """Serialization never changes what the checker sees."""
        schema = whitepages_schema()
        instance = generate_whitepages(orgs=1, units_per_level=2, depth=1,
                                       persons_per_unit=1, seed=seed % 7)
        if seed % 2:
            corrupt(instance, schema, seed=seed)
        checker = LegalityChecker(schema)
        direct = checker.check(instance)
        roundtripped = checker.check(
            parse_ldif(serialize_ldif(instance), attributes=instance.attributes)
        )
        assert direct.is_legal == roundtripped.is_legal
        assert sorted(v.kind for v in direct) == sorted(
            v.kind for v in roundtripped
        )

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_three_structure_checkers_agree(self, seed):
        """Query reduction ≡ naive pairwise ≡ direct Definition 2.6
        semantics, on arbitrary (often illegal) forests."""
        from repro.legality.structure import (
            NaiveStructureChecker,
            QueryStructureChecker,
        )

        schema = random_schema(n_classes=4, n_required=3, n_forbidden=2,
                               seed=seed, mode="any")
        instance = random_forest(
            n_entries=30,
            labels=sorted(schema.class_schema.core_classes() - {"top"}),
            seed=seed,
        )
        structure = schema.structure_schema
        by_query = QueryStructureChecker(structure).is_legal(instance)
        by_naive = NaiveStructureChecker(structure).is_legal(instance)
        by_semantics = all(
            e.is_satisfied(instance) for e in structure.elements()
        )
        assert by_query == by_naive == by_semantics

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.booleans())
    def test_one_checking_path_matches_both_oracles(self, seed, extras):
        """The production verdict — a fresh ``CheckSession.check``, and
        the warm re-check after it — is the sequential reference
        composed from the paper's literal algorithms (content, one
        Figure 4 query at a time or the quadratic pair scan, §6.1
        extras): same violations, same order, on arbitrary (mostly
        illegal) forests under arbitrary schemas."""
        from repro.schema.extras import SchemaExtras

        schema = random_schema(n_classes=4, n_required=3, n_forbidden=2,
                               seed=seed, mode="any")
        instance = random_forest(
            n_entries=30,
            labels=sorted(schema.class_schema.core_classes() - {"top"}),
            seed=seed,
        )
        if extras:
            schema.extras = (
                SchemaExtras()
                .declare_key("tag")
                .declare_single_valued("note")
                .declare_referential("ref")
            )
            rng = random.Random(seed)
            entries = list(instance)
            for entry in rng.sample(entries, 10):
                entry.add_value("tag", f"t{rng.randrange(6)}")  # collides
                for value in rng.sample(["a", "b"], rng.randrange(3)):
                    entry.add_value("note", value)
                entry.add_value(
                    "ref", rng.choice([str(rng.choice(entries).dn), "id=nowhere"])
                )
        expected = verdicts(oracle_check(schema, instance, structure="query"))
        assert verdicts(oracle_check(schema, instance, structure="naive")) == expected
        with CheckSession(schema) as session:
            assert verdicts(session.check(instance)) == expected
            assert verdicts(session.check(instance)) == expected


class TestUpdateConsistencyInterplay:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000))
    def test_guarded_directory_is_always_legal(self, seed):
        """Invariant maintenance: whatever mix of accepted/rejected
        updates, the guarded instance stays legal."""
        schema = whitepages_schema()
        instance = generate_whitepages(orgs=1, units_per_level=2, depth=1,
                                       persons_per_unit=1, seed=seed % 5)
        guard = IncrementalChecker(schema, instance)
        checker = LegalityChecker(schema)
        for parent, delta in random_insertions(instance, count=4, seed=seed):
            guard.try_insert(parent, delta)
            assert checker.is_legal(instance)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000))
    def test_closure_facts_hold_on_guarded_instances(self, seed):
        """Theorem 5.1 meets Section 4: derived schema elements keep
        holding as the instance evolves under the guard."""
        schema = whitepages_schema()
        closure = close(schema.all_elements())
        instance = generate_whitepages(orgs=1, units_per_level=2, depth=1,
                                       persons_per_unit=1, seed=seed % 5)
        guard = IncrementalChecker(schema, instance)
        for parent, delta in random_insertions(instance, count=3, seed=seed):
            guard.try_insert(parent, delta)
        for fact in closure.facts:
            assert fact.is_satisfied(instance), f"{fact} violated"


class TestOptimizerSoundness:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_folds_preserve_results_on_legal_instances(self, seed):
        """Every Figure 4 query, optimized against the schema, returns
        the same (empty) result on legal instances."""
        schema = whitepages_schema()
        instance = generate_whitepages(orgs=1, units_per_level=2, depth=1,
                                       persons_per_unit=1, seed=seed % 7)
        optimizer = SchemaAwareOptimizer(schema)
        evaluator = QueryEvaluator(instance)
        for element in schema.structure_schema.relationship_elements():
            query = translate_element(element).query
            folded = optimizer.optimize(query).query
            assert evaluator.evaluate(folded) == evaluator.evaluate(query)


class TestDiscoveryClosesTheLoop:
    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10_000))
    def test_discover_validate_consistency_witness(self, seed):
        """The full loop: generate → discover → the discovered schema
        accepts its source, passes the consistency check, and its
        synthesized witness is legal under it."""
        instance = generate_whitepages(orgs=1, units_per_level=2, depth=1,
                                       persons_per_unit=2, seed=seed % 9)
        schema = discover_schema(instance).schema
        assert LegalityChecker(schema).is_legal(instance)
        result = check_consistency(schema, synthesize=True)
        assert result.consistent
        assert result.witness is not None, result.witness_error
        assert LegalityChecker(schema).is_legal(result.witness)


class TestFigure1Anchors:
    """Deterministic anchors a reviewer can eyeball."""

    def test_paper_worked_examples_all_hold(self):
        schema = whitepages_schema()
        instance = figure1_instance()
        # Section 2: the instance lies within the bounds
        assert LegalityChecker(schema).is_legal(instance)
        # Section 3.2: Q1/Q2 empty, Q3 non-empty (via the reduction)
        for element in schema.structure_schema.relationship_elements():
            assert translate_element(element).is_legal(instance)
        # Section 5: the schema is consistent with a witness
        result = check_consistency(schema, synthesize=True)
        assert result.consistent and result.witness is not None


_counts = st.integers(0, 5)
_pairs = st.tuples(_counts, _counts)
_shard_names = st.sampled_from(["att", "labs", "research", "generation-2"])


_plain_positions = _pairs.map(lambda pair: Position.plain(*pair))


def _sharded_positions(min_shards=1):
    return st.dictionaries(_shard_names, _pairs, min_size=min_shards).map(
        Position
    )


def _positions(min_shards=1):
    """Plain and sharded positions over a small shared name space, so
    pointwise comparisons actually meet."""
    return st.one_of(_plain_positions, _sharded_positions(min_shards))


_junk_fields = st.sampled_from([True, False, -1, "7", 1.5, None, [1]])


@st.composite
def _malformed_payloads(draw):
    """A valid ``position`` payload broken in one of the ways the
    server's and the front door's hand-rolled validators used to
    reject."""
    position = draw(_positions())
    payload = position.to_wire()
    breakage = draw(st.sampled_from(
        ["field", "arity", "mixed", "empty", "not-an-object"]
    ))
    if breakage == "empty":
        return {}
    if breakage == "not-an-object":
        return draw(st.sampled_from(["soon", 7, None, [1, 2], True]))
    if breakage == "mixed":
        extra = {"att": [1, 2]} if position.is_plain else {"generation": 1}
        return {**payload, **extra}
    key = draw(st.sampled_from(sorted(payload)))
    if position.is_plain:  # a plain member has no arity to break
        payload[key] = draw(_junk_fields)
    elif breakage == "arity":
        payload[key] = draw(st.sampled_from([[1], [1, 2, 3], [], 4]))
    else:
        payload[key][draw(st.integers(0, 1))] = draw(_junk_fields)
    return payload


class TestPosition:
    """:class:`repro.store.position.Position` — the one place the two
    position shapes are parsed, validated and compared."""

    @given(_positions())
    def test_wire_round_trip(self, position):
        assert Position.from_wire(position.to_wire()) == position

    @given(_positions(min_shards=0))
    def test_replicate_fields_round_trip(self, position):
        """The replicate envelope also carries a fresh cohort's empty
        map, which is no valid ``position`` payload."""
        assert Position.from_fields(position.to_fields()) == position

    @given(st.data())
    def test_max_is_the_least_upper_bound(self, data):
        shape = data.draw(
            st.sampled_from([_plain_positions, _sharded_positions()])
        )
        a, b, c = data.draw(shape), data.draw(shape), data.draw(shape)
        bound = a.max(b)
        assert bound >= a and bound >= b
        assert b.max(a) == bound
        if c >= a and c >= b:
            assert c >= bound

    @given(_positions(), _positions())
    def test_lag_is_zero_exactly_when_caught_up_in_generation(self, held, head):
        lag = held.lag_frames(head)
        if lag == 0:
            assert held >= head
        if held >= head and lag is not None:
            assert lag == 0

    @given(_malformed_payloads())
    def test_malformed_payloads_are_refused(self, payload):
        """``True`` as a seq, negatives, the empty map, 3-element
        pairs, mixed shapes: each still raises — the server and the
        front door turn exactly this into ``bad_request``
        (``test_server.py::TestReplicatePositionValidation``,
        ``test_frontdoor.py::test_staleness_fields_validated``)."""
        with pytest.raises(ValueError):
            Position.from_wire(payload)
        if isinstance(payload, dict) and payload and "generation" not in payload:
            with pytest.raises(ValueError):
                Position.from_fields({"shards": payload})
