"""Edge-case and error-path tests across modules."""

import pytest

from repro.axes import Axis
from repro.errors import (
    ModelError,
    QueryError,
    UnknownEntryError,
)
from repro.model.dn import parse_dn
from repro.model.instance import DirectoryInstance
from repro.query.ast import SCOPE_DELTA, HSelect, Minus, Select
from repro.query.evaluator import QueryEvaluator, evaluate
from repro.query.filters import Equals


def oc(name):
    return Select(Equals("objectClass", name))


class TestInstanceErrorPaths:
    def test_unknown_entry_id(self):
        d = DirectoryInstance()
        with pytest.raises(UnknownEntryError):
            d.entry(42)
        with pytest.raises(UnknownEntryError):
            d.dn_of(42)
        with pytest.raises(UnknownEntryError):
            d.entry("o=ghost")

    def test_deleted_entry_becomes_unknown(self):
        d = DirectoryInstance()
        e = d.add_entry(None, "o=x", ["top"])
        d.delete_entry(e)
        with pytest.raises(UnknownEntryError):
            d.entry(e.eid)

    def test_empty_instance_iteration(self):
        d = DirectoryInstance()
        assert list(d) == []
        assert d.entry_ids() == ()
        assert d.max_depth() == 0
        assert len(d.copy()) == 0

    def test_interval_invalidation_after_mutation(self):
        d = DirectoryInstance()
        a = d.add_entry(None, "o=a", ["top"])
        pre_a, post_a = d.interval_of(a)
        b = d.add_entry(a, "o=b", ["top"])
        # intervals recomputed lazily: a's interval now spans b's
        pre_a2, post_a2 = d.interval_of(a)
        pre_b, post_b = d.interval_of(b)
        assert pre_a2 < pre_b < post_b < post_a2

    def test_rdn_with_escaped_comma_in_dn_lookup(self):
        d = DirectoryInstance()
        d.add_entry(None, parse_dn("cn=Doe\\, Jane").rdn, ["top"])
        assert d.find("cn=Doe\\, Jane") is not None


class TestQueryScopesOnCompositeNodes:
    def test_scope_on_hselect_restricts_result(self, fig1):
        persons = sorted(fig1.entries_with_class("person"))
        query = HSelect(Axis.ANCESTOR, oc("person"), oc("organization")).scoped(
            SCOPE_DELTA
        )
        result = evaluate(query, fig1, {SCOPE_DELTA: {persons[0]}})
        assert result <= {persons[0]}

    def test_scope_on_minus_restricts_result(self, fig1):
        units = sorted(fig1.entries_with_class("orgUnit"))
        query = Minus(oc("orgUnit"), oc("person")).scoped(SCOPE_DELTA)
        result = evaluate(query, fig1, {SCOPE_DELTA: {units[0]}})
        assert result == {units[0]}

    def test_unknown_query_node_rejected(self, fig1):
        class Weird:
            scope = None

        with pytest.raises(QueryError):
            QueryEvaluator(fig1).evaluate(Weird())


class TestWitnessErrorMessages:
    def test_incomparable_required_parents(self):
        from repro.consistency.engine import close
        from repro.consistency.witness import (
            WitnessSynthesisError,
            synthesize_witness,
        )
        from repro.schema import (
            AttributeSchema,
            ClassSchema,
            DirectorySchema,
            StructureSchema,
        )

        classes = ClassSchema().add_core("a").add_core("p").add_core("q")
        structure = (
            StructureSchema()
            .require_class("a")
            .require_parent("a", "p")
            .require_parent("a", "q")
        )
        schema = DirectorySchema(AttributeSchema(), classes, structure).validate()
        closure = close(schema.all_elements(),
                        universe=schema.class_schema.core_classes())
        # unique-parent rule makes this inconsistent; synthesis refuses
        assert not closure.consistent
        with pytest.raises(WitnessSynthesisError):
            synthesize_witness(schema, closure)


class TestRepairBounds:
    def test_max_size_zero_finds_nothing(self):
        from repro.consistency.repair import suggest_repairs
        from repro.workloads import den_schema_overconstrained

        assert suggest_repairs(den_schema_overconstrained(), max_size=0) == []

    def test_max_suggestions_cap(self):
        from repro.consistency.repair import suggest_repairs
        from repro.schema import (
            AttributeSchema,
            ClassSchema,
            DirectorySchema,
            StructureSchema,
        )

        classes = ClassSchema().add_core("a").add_core("b")
        structure = (
            StructureSchema()
            .require_class("a")
            .require_descendant("a", "b")
            .forbid_descendant("a", "b")
        )
        schema = DirectorySchema(AttributeSchema(), classes, structure).validate()
        assert len(suggest_repairs(schema, max_suggestions=2)) == 2


class TestModelFinderApi:
    def test_model_zero_entries(self):
        from modelfinder import find_model
        from repro.schema import (
            AttributeSchema,
            ClassSchema,
            DirectorySchema,
            StructureSchema,
        )

        schema = DirectorySchema(
            AttributeSchema(), ClassSchema(), StructureSchema()
        ).validate()
        model = find_model(schema, max_entries=0)
        assert model is not None and len(model) == 0

    def test_model_satisfaction_api(self):
        from modelfinder import Model
        from repro.schema.elements import ForbiddenEdge, RequiredClass, RequiredEdge

        model = Model((None, 0), (("a", "top"), ("b", "top")))
        assert model.satisfies(RequiredClass("a"))
        assert model.satisfies(RequiredEdge(Axis.CHILD, "a", "b"))
        assert model.satisfies(RequiredEdge(Axis.PARENT, "b", "a"))
        assert not model.satisfies(ForbiddenEdge(Axis.DESCENDANT, "a", "b"))
        assert model.members("a") == [0]
        assert list(model.ancestors(1)) == [0]


class TestStoreErrorPaths:
    def test_open_missing_store(self, tmp_path, wp_schema):
        from repro.store import DirectoryStore

        with pytest.raises(FileNotFoundError):
            DirectoryStore.open(str(tmp_path / "nope"), wp_schema)

    def test_journal_missing_treated_as_empty(self, tmp_path, wp_schema):
        import os

        from repro.store import DirectoryStore
        from repro.workloads import figure1_instance, whitepages_registry

        path = str(tmp_path / "s")
        DirectoryStore.create(path, wp_schema, figure1_instance()).close()
        os.remove(os.path.join(path, "journal.ldif"))
        with DirectoryStore.open(path, wp_schema,
                                 registry=whitepages_registry()) as reopened:
            assert len(reopened.instance) == 6


class TestEntryOwnershipEdges:
    def test_detached_entry_has_no_index_effects(self):
        from repro.model.dn import parse_rdn
        from repro.model.entry import Entry

        entry = Entry(parse_rdn("o=x"), ["top"])
        entry.add_class("person")  # no owner: must not crash
        entry.remove_class("person")

    def test_deleted_entry_disowned(self):
        d = DirectoryInstance()
        e = d.add_entry(None, "o=x", ["top", "person"])
        d.delete_entry(e)
        e.add_class("router")  # disowned: index no longer tracks it
        assert d.entries_with_class("router") == set()

    def test_value_removal_of_missing_attribute(self):
        d = DirectoryInstance()
        e = d.add_entry(None, "o=x", ["top"])
        with pytest.raises(ModelError):
            e.remove_value("mail", "a@x")


class TestWriterBoundaries:
    def test_fold_exact_boundary(self):
        from repro.ldif.writer import _fold

        exact = "x" * 76
        assert list(_fold(exact)) == [exact]
        longer = "x" * 77
        folded = list(_fold(longer))
        assert len(folded) == 2 and folded[1].startswith(" ")
        assert "".join([folded[0]] + [p[1:] for p in folded[1:]]) == longer
