"""Figure 5 as data: the incremental-testability table must match the
paper row by row, and the Δ-queries must carry the paper's scopes."""

import pytest

from repro.axes import Axis
from repro.query.ast import SCOPE_DELTA, SCOPE_NEW, HSelect, Minus
from repro.query.translate import translate_element
from repro.schema.elements import ForbiddenEdge, RequiredClass, RequiredEdge
from repro.updates.table import (
    DELTA_TABLE,
    MODIFY_TABLE,
    build_delta_query,
    build_modify_queries,
    empty_scoped_query,
    rule_for,
)


class TestTheorem42Verdicts:
    """Theorem 4.2: exactly the rows marked in Figure 5 are
    incrementally testable."""

    @pytest.mark.parametrize("axis", list(Axis))
    def test_all_insert_rows_incremental(self, axis):
        assert DELTA_TABLE[(axis, False, "insert")].incremental

    @pytest.mark.parametrize("axis", [Axis.CHILD, Axis.DESCENDANT])
    def test_forbidden_insert_rows_incremental(self, axis):
        assert DELTA_TABLE[(axis, True, "insert")].incremental

    def test_delete_required_child_not_incremental(self):
        rule = DELTA_TABLE[(Axis.CHILD, False, "delete")]
        assert not rule.incremental and rule.needs_full_recheck

    def test_delete_required_descendant_not_incremental(self):
        rule = DELTA_TABLE[(Axis.DESCENDANT, False, "delete")]
        assert not rule.incremental and rule.needs_full_recheck

    def test_delete_required_parent_needs_no_check(self):
        rule = DELTA_TABLE[(Axis.PARENT, False, "delete")]
        assert rule.incremental and rule.needs_no_check

    def test_delete_required_ancestor_needs_no_check(self):
        rule = DELTA_TABLE[(Axis.ANCESTOR, False, "delete")]
        assert rule.incremental and rule.needs_no_check

    @pytest.mark.parametrize("axis", [Axis.CHILD, Axis.DESCENDANT])
    def test_delete_forbidden_needs_no_check(self, axis):
        rule = DELTA_TABLE[(axis, True, "delete")]
        assert rule.incremental and rule.needs_no_check

    def test_table_covers_exactly_twelve_rows(self):
        assert len(DELTA_TABLE) == 12

    def test_rule_for_dispatches_by_element(self):
        assert rule_for(RequiredEdge(Axis.CHILD, "a", "b"), "insert").axis is Axis.CHILD
        assert rule_for(ForbiddenEdge(Axis.DESCENDANT, "a", "b"), "delete").forbidden
        with pytest.raises(KeyError):
            rule_for(RequiredClass("a"), "insert")


class TestDeltaQueryShapes:
    """The Δ-query scope placement of Figure 5 (insertions)."""

    def test_required_child_all_delta(self):
        query = build_delta_query(RequiredEdge(Axis.CHILD, "ci", "cj"), "insert")
        assert isinstance(query, Minus)
        assert query.outer.scope == SCOPE_DELTA
        assert query.inner.outer.scope == SCOPE_DELTA
        assert query.inner.inner.scope == SCOPE_DELTA

    def test_required_parent_inner_on_new(self):
        query = build_delta_query(RequiredEdge(Axis.PARENT, "ci", "cj"), "insert")
        assert query.outer.scope == SCOPE_DELTA
        assert query.inner.inner.scope == SCOPE_NEW

    def test_required_descendant_all_delta(self):
        query = build_delta_query(RequiredEdge(Axis.DESCENDANT, "ci", "cj"), "insert")
        assert query.inner.inner.scope == SCOPE_DELTA

    def test_required_ancestor_inner_on_new(self):
        query = build_delta_query(RequiredEdge(Axis.ANCESTOR, "ci", "cj"), "insert")
        assert query.inner.inner.scope == SCOPE_NEW

    def test_forbidden_child_source_new_target_delta(self):
        query = build_delta_query(ForbiddenEdge(Axis.CHILD, "ci", "cj"), "insert")
        assert isinstance(query, HSelect)
        assert query.outer.scope == SCOPE_NEW
        assert query.inner.scope == SCOPE_DELTA

    def test_forbidden_descendant_source_new_target_delta(self):
        query = build_delta_query(ForbiddenEdge(Axis.DESCENDANT, "ci", "cj"), "insert")
        assert query.outer.scope == SCOPE_NEW
        assert query.inner.scope == SCOPE_DELTA

    def test_skip_rows_return_none(self):
        assert build_delta_query(RequiredEdge(Axis.PARENT, "a", "b"), "delete") is None
        assert build_delta_query(ForbiddenEdge(Axis.CHILD, "a", "b"), "delete") is None

    def test_full_rows_return_unscoped_figure4_query(self):
        query = build_delta_query(RequiredEdge(Axis.CHILD, "a", "b"), "delete")
        assert isinstance(query, Minus)
        assert query.outer.scope is None
        assert query.inner.inner.scope is None

    def test_empty_scoped_display_queries(self):
        query = empty_scoped_query(RequiredEdge(Axis.PARENT, "a", "b"))
        assert "∅" in str(query)
        query = empty_scoped_query(ForbiddenEdge(Axis.CHILD, "a", "b"))
        assert "∅" in str(query)


class TestModificationExtensionTable:
    """The extension beside Figure 5: one entry's class set changes in
    place, Δ = {the entry}.  Not the paper's — hence its own table."""

    def test_table_covers_the_eight_combinations(self):
        assert set(MODIFY_TABLE) == {
            (forbidden, change, role)
            for forbidden in (False, True)
            for change in ("added", "removed")
            for role in ("source", "target")
        }
        assert len(DELTA_TABLE) == 12  # Figure 5 stays the paper's

    def test_plans_speak_figure_5s_vocabulary(self):
        for plan in MODIFY_TABLE.values():
            assert plan in ("skip", "full") or set(plan) <= {SCOPE_DELTA, SCOPE_NEW}
        checked = {key for key, plan in MODIFY_TABLE.items() if plan != "skip"}
        assert checked == {
            (False, "added", "source"), (False, "removed", "target"),
            (True, "added", "source"), (True, "added", "target"),
        }

    @pytest.mark.parametrize("axis", list(Axis))
    def test_required_edge_rows(self, axis):
        element = RequiredEdge(axis, "a", "b")
        (gain, a, gained, on_delta), (loss, b, lost, full) = build_modify_queries(element)
        assert (gain, a, loss, b) == ("added", "a", "removed", "b")
        # only the entry can newly violate: outer on Δ, inner anywhere
        assert isinstance(on_delta, Minus) and on_delta.inner.axis is axis
        assert on_delta.outer.scope == SCOPE_DELTA
        assert on_delta.inner.inner.scope == SCOPE_NEW
        assert gained.startswith("Δ-check for") and str(on_delta) in gained
        # others may have relied on the entry: Figure 4's query, unscoped
        assert full == translate_element(element).query
        assert lost.startswith("full re-check for")

    @pytest.mark.parametrize("axis", [Axis.CHILD, Axis.DESCENDANT])
    def test_forbidden_edge_rows(self, axis):
        rows = build_modify_queries(ForbiddenEdge(axis, "a", "b"))
        assert [(change, trigger) for change, trigger, _, _ in rows] == [
            ("added", "a"), ("added", "b"),
        ]
        (_, _, _, as_source), (_, _, _, as_target) = rows
        assert isinstance(as_source, HSelect) and as_source.axis is axis
        assert (as_source.outer.scope, as_source.inner.scope) == (SCOPE_DELTA, SCOPE_NEW)
        assert (as_target.outer.scope, as_target.inner.scope) == (SCOPE_NEW, SCOPE_DELTA)
