"""Integration and property tests for incremental legality testing
(Section 4.2).

The central property: for any subtree update against a legal instance,
the incremental checker's verdict equals a from-scratch legality check
of the hypothetically-updated instance — and a rejected update leaves
the instance byte-identical.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DuplicateEntryError, UpdateError
from repro.ldif import serialize_ldif
from repro.legality.checker import LegalityChecker
from repro.model.instance import DirectoryInstance
from repro.updates.incremental import IncrementalChecker
from repro.updates.operations import UpdateTransaction
from repro.workloads import (
    deletable_units,
    figure1_instance,
    generate_whitepages,
    make_unit_subtree,
    random_insertions,
    random_transaction,
    whitepages_schema,
)


def fresh_checker(instance, schema):
    return IncrementalChecker(schema, instance)


class TestGuards:
    def test_illegal_baseline_rejected(self, wp_schema):
        d = DirectoryInstance()
        d.add_entry(None, "o=alone", ["orgUnit", "orgGroup", "top"], {"ou": ["x"]})
        with pytest.raises(UpdateError, match="not legal"):
            IncrementalChecker(wp_schema, d)

    def test_assume_legal_skips_baseline(self, wp_schema):
        d = DirectoryInstance()
        d.add_entry(None, "o=alone", ["orgUnit", "orgGroup", "top"], {"ou": ["x"]})
        IncrementalChecker(wp_schema, d, assume_legal=True)  # no raise


class TestFigure5CompiledOnce:
    def test_no_query_is_built_after_construction(self, wp_schema, fig1, monkeypatch):
        """The Figure 5 rows are compiled to Δ-queries in ``__init__``;
        20 updates — accepted and rejected inserts, deletes and moves —
        build none."""
        import repro.updates.incremental as incremental

        built = []
        real = incremental.build_delta_query
        monkeypatch.setattr(
            incremental, "build_delta_query",
            lambda *args: built.append(args) or real(*args),
        )
        checker = fresh_checker(fig1, wp_schema)
        compiled = len(built)
        assert compiled == 2 * len(checker.relationships) > 0
        labs, databases = "ou=attLabs,o=att", "ou=databases,ou=attLabs,o=att"

        def laks():  # wherever the moves and renames have left laks
            return next(str(e.dn) for e in fig1 if str(e.dn).startswith("uid=laks"))

        verdicts = []
        for i in range(5):
            delta = make_unit_subtree(
                random.Random(i), persons=1, attributes=fig1.attributes
            )
            # odd rounds are rejected: a unit under a person, then a
            # delete that would leave attLabs without a person
            inserted = checker.try_insert(laks() if i % 2 else labs, delta).applied
            verdicts += [
                inserted,
                checker.try_move(laks(), new_parent=(labs, databases)[i % 2]).applied,
                checker.try_move(laks(), new_rdn=f"uid=laks{i}").applied,
                checker.try_delete(
                    f"{delta.dn_of(delta.root_ids()[0])},{labs}" if inserted
                    else databases
                ).applied,
            ]
        assert verdicts == [True, True, True, True, False, True, True, False] * 2 + [True] * 4
        assert len(built) == compiled


    def test_no_modification_query_is_built_after_construction(
        self, wp_schema, fig1, monkeypatch
    ):
        """The extension-table rows are compiled in ``__init__`` too."""
        import repro.updates.incremental as incremental

        built = []
        real = incremental.build_modify_queries
        monkeypatch.setattr(
            incremental, "build_modify_queries",
            lambda element: built.append(element) or real(element),
        )
        checker = fresh_checker(fig1, wp_schema)
        assert built == checker.relationships
        suciu = "uid=suciu,ou=databases,ou=attLabs,o=att"
        assert checker.try_modify(suciu, add_classes=["online"]).applied
        assert checker.try_modify(suciu, remove_classes=["online"]).applied
        assert not checker.try_modify(suciu, remove_classes=["person"]).applied
        assert built == checker.relationships


class TestDeltaScopes:
    def test_scopes_are_views_that_select_like_sets(self, fig1, wp_schema):
        """Figure 5's ``D`` and ``D + Δ`` are bound without copying the
        instance, and still select exactly what the copied sets did."""
        from repro.query.ast import SCOPE_DELTA, SCOPE_NEW, SCOPE_OLD
        from repro.query.translate import class_selection

        checker = fresh_checker(fig1, wp_schema)
        everything = fig1.all_entry_id_set()
        delta = {fig1.find("uid=suciu,ou=databases,ou=attLabs,o=att").eid}
        evaluator = checker._delta_evaluator(delta)
        persons = fig1.entries_with_class("person")
        for label, expected in (
            (SCOPE_DELTA, delta), (SCOPE_NEW, everything), (SCOPE_OLD, everything - delta),
        ):
            scope = evaluator.scopes[label]
            assert not isinstance(scope, set) or label == SCOPE_DELTA
            assert set(scope) == expected and len(scope) == len(expected)
            assert evaluator.evaluate(
                class_selection("person").scoped(label)
            ) == persons & expected
            assert evaluator.evaluate(
                class_selection("top").scoped(label)
            ) == expected
            hits = {next(iter(delta)), -1} & scope
            assert hits == {next(iter(delta))} & expected


class TestSection42Examples:
    """The worked examples of Section 4.2."""

    def test_legal_unit_with_persons_accepted(self, wp_schema, fig1):
        checker = fresh_checker(fig1, wp_schema)
        delta = make_unit_subtree(random.Random(1), persons=2,
                                  attributes=fig1.attributes)
        outcome = checker.try_insert("ou=attLabs,o=att", delta)
        assert outcome.applied
        assert LegalityChecker(wp_schema).is_legal(fig1)

    def test_unit_without_person_rejected(self, wp_schema, fig1):
        """Checking right after the bare orgUnit insertion violates
        orgGroup →→ person — the motivation for subtree granularity."""
        checker = fresh_checker(fig1, wp_schema)
        delta = DirectoryInstance(attributes=fig1.attributes)
        delta.add_entry(None, "ou=empty", ["orgUnit", "orgGroup", "top"],
                        {"ou": ["empty"]})
        outcome = checker.try_insert("ou=attLabs,o=att", delta)
        assert not outcome.applied
        assert any("orgGroup →→ person" in (v.element or "") for v in outcome.report)

    def test_unit_under_person_rejected(self, wp_schema, fig1):
        """Inserting an orgUnit below suciu violates both the orgUnit
        parent requirement and person ↛ top (the paper's example)."""
        checker = fresh_checker(fig1, wp_schema)
        delta = make_unit_subtree(random.Random(2), persons=1,
                                  attributes=fig1.attributes)
        outcome = checker.try_insert(
            "uid=suciu,ou=databases,ou=attLabs,o=att", delta
        )
        assert not outcome.applied
        elements = {v.element for v in outcome.report if v.element}
        assert any("person ↛ top" in e for e in elements)
        assert any("orgUnit ← orgGroup" in e for e in elements)

    def test_content_illegal_delta_rejected_before_grafting(self, wp_schema, fig1):
        checker = fresh_checker(fig1, wp_schema)
        delta = DirectoryInstance(attributes=fig1.attributes)
        delta.add_entry(None, "uid=q", ["person", "top"], {"uid": ["q"]})  # no name
        before = serialize_ldif(fig1)
        outcome = checker.try_insert("ou=attLabs,o=att", delta)
        assert not outcome.applied
        assert serialize_ldif(fig1) == before

    def test_delete_preserving_legality_accepted(self, wp_schema, fig1):
        checker = fresh_checker(fig1, wp_schema)
        outcome = checker.try_delete("uid=laks,ou=databases,ou=attLabs,o=att")
        assert outcome.applied
        assert LegalityChecker(wp_schema).is_legal(fig1)

    def test_delete_last_person_of_unit_rejected(self, wp_schema, fig1):
        checker = fresh_checker(fig1, wp_schema)
        assert checker.try_delete("uid=laks,ou=databases,ou=attLabs,o=att").applied
        outcome = checker.try_delete("uid=suciu,ou=databases,ou=attLabs,o=att")
        assert not outcome.applied  # databases would employ nobody
        assert any("orgGroup →→ person" in (v.element or "") for v in outcome.report)

    def test_delete_subtree_counted_required_class(self, wp_schema):
        """Deleting the only organization trips the counted Cr test."""
        d = figure1_instance()
        checker = fresh_checker(d, wp_schema)
        outcome = checker.try_delete("o=att")
        assert not outcome.applied
        assert any("□" in (v.element or "") for v in outcome.report)

    def test_full_recheck_rows_short_circuit_when_class_emptied(self, wp_schema):
        """ROADMAP satellite: when a deletion removes the last entry of a
        full-recheck row's source class, the class-count index answers
        the row in O(1) — no ``D − Δ`` query, regardless of how many
        unrelated entries survive."""

        def build(survivors):
            d = figure1_instance()
            for i in range(survivors):
                d.add_entry(None, f"uid=solo{i}", ["person", "top"],
                            {"uid": [f"solo{i}"], "name": [f"solo {i}"]})
            return d

        costs = []
        for survivors in (50, 400):
            d = build(survivors)
            subtree_size = len(d) - survivors
            checker = fresh_checker(d, wp_schema)
            outcome = checker.try_delete("o=att")
            # required classes organization/orgUnit vanish -> rejected
            assert not outcome.applied
            skips = [c for c in outcome.checks
                     if "class-count short-circuit" in c]
            assert len(skips) == 2  # both _FULL rows of Figure 5
            assert not any("full re-check" in c for c in outcome.checks)
            # exact accounting: subtree teardown + 1 cost unit per
            # short-circuited row + the 3 counted required-class tests;
            # nothing proportional to the surviving entries.
            costs.append(outcome.cost - subtree_size)
        assert costs[0] == costs[1] == 2 + 3

    def test_rejected_updates_roll_back_exactly(self, wp_schema, fig1):
        checker = fresh_checker(fig1, wp_schema)
        before = serialize_ldif(fig1)
        delta = DirectoryInstance(attributes=fig1.attributes)
        delta.add_entry(None, "ou=empty", ["orgUnit", "orgGroup", "top"],
                        {"ou": ["empty"]})
        checker.try_insert("ou=attLabs,o=att", delta)
        assert serialize_ldif(fig1) == before
        checker.try_delete("o=att")
        assert serialize_ldif(fig1) == before


class TestTransactions:
    def test_transaction_applies_and_stays_legal(self, wp_schema, fig1):
        checker = fresh_checker(fig1, wp_schema)
        tx = random_transaction(fig1, inserts=2, seed=3)
        outcome = checker.apply_transaction(tx)
        assert outcome.applied
        assert LegalityChecker(wp_schema).is_legal(fig1)

    def test_failing_transaction_rolls_back_everything(self, wp_schema, fig1):
        checker = fresh_checker(fig1, wp_schema)
        before = serialize_ldif(fig1)
        tx = (
            UpdateTransaction()
            # step 1 would be fine on its own...
            .insert("ou=ok,o=att", ["orgUnit", "orgGroup", "top"], {"ou": ["ok"]})
            .insert("uid=pp,ou=ok,o=att", ["person", "top"],
                    {"uid": ["pp"], "name": ["p p"]})
            # ...step 2 is an empty unit and fails
            .insert("ou=bad,ou=attLabs,o=att", ["orgUnit", "orgGroup", "top"],
                    {"ou": ["bad"]})
        )
        outcome = checker.apply_transaction(tx)
        assert not outcome.applied
        assert serialize_ldif(fig1) == before

    def test_raising_transaction_rolls_back_everything(self, wp_schema, fig1):
        """A step that *raises* (not merely rejects) mid-transaction must
        still undo every previously applied step."""
        checker = fresh_checker(fig1, wp_schema)
        before = serialize_ldif(fig1)
        tx = (
            UpdateTransaction()
            # step 1 applies cleanly...
            .insert("ou=ok,o=att", ["orgUnit", "orgGroup", "top"], {"ou": ["ok"]})
            .insert("uid=pp,ou=ok,o=att", ["person", "top"],
                    {"uid": ["pp"], "name": ["p p"]})
            # ...step 2's root DN already exists, so the graft raises
            .insert("ou=databases,ou=attLabs,o=att",
                    ["orgUnit", "orgGroup", "top"], {"ou": ["databases"]})
        )
        with pytest.raises(DuplicateEntryError):
            checker.apply_transaction(tx)
        assert serialize_ldif(fig1) == before
        assert LegalityChecker(wp_schema).is_legal(fig1)

    def test_insert_then_delete_transaction(self, wp_schema, fig1):
        checker = fresh_checker(fig1, wp_schema)
        tx = (
            UpdateTransaction()
            .insert("ou=new,o=att", ["orgUnit", "orgGroup", "top"], {"ou": ["new"]})
            .insert("uid=np,ou=new,o=att", ["person", "top"],
                    {"uid": ["np"], "name": ["n p"]})
            .delete("uid=laks,ou=databases,ou=attLabs,o=att")
        )
        outcome = checker.apply_transaction(tx)
        assert outcome.applied
        assert fig1.find("uid=np,ou=new,o=att") is not None
        assert fig1.find("uid=laks,ou=databases,ou=attLabs,o=att") is None
        assert LegalityChecker(wp_schema).is_legal(fig1)


class TestOneGuardedStep:
    """Every change is applied, judged and — rejected or raised — undone
    by :meth:`IncrementalChecker._guarded`, with the token its own
    application recorded.  Work-unit asserts, always armed."""

    def test_deleted_subtree_is_copied_once(self, wp_schema, fig1, monkeypatch):
        """Pruning k entries through ``apply_transaction`` builds one
        k-entry copy (what ``delete_subtree`` returns, kept as the undo
        token) — not a second snapshot beside it."""
        checker = fresh_checker(fig1, wp_schema)
        fig1.add_entry("ou=attLabs,o=att", "uid=stay", ["person", "top"],
                       {"uid": ["stay"], "name": ["stay er"]})
        doomed = "ou=databases,ou=attLabs,o=att"
        k = fig1.subtree_size(doomed)
        copied = []
        real = DirectoryInstance.add_entry

        def counting(self, *args, **kwargs):
            if self is not fig1:
                copied.append(self)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(DirectoryInstance, "add_entry", counting)
        tx = UpdateTransaction()
        for entry in [fig1.entry(doomed), *fig1.descendants_of(doomed)]:
            tx.delete(str(entry.dn))
        assert checker.apply_transaction(tx).applied
        assert k == 3 and len(copied) == k

    def test_rejected_modify_restores_only_what_the_change_named(
        self, wp_schema, fig1, monkeypatch
    ):
        from repro.model.entry import Entry

        checker = fresh_checker(fig1, wp_schema)
        suciu = "uid=suciu,ou=databases,ou=attLabs,o=att"
        before = serialize_ldif(fig1)
        touched = []
        real = Entry.replace_values
        monkeypatch.setattr(
            Entry, "replace_values",
            lambda self, name, values: touched.append(name) or real(self, name, values),
        )
        outcome = checker.try_modify(  # suciu is not online: mail is disallowed
            suciu, add_classes=["facultyMember"],
            replace_attributes={"mail": ["d@x.com"]},
        )
        assert not outcome.applied and not outcome.token
        assert touched == ["mail", "mail"]  # applied once, restored once
        assert serialize_ldif(fig1) == before

    def test_a_step_that_raises_is_undone_like_one_that_is_rejected(
        self, wp_schema, fig1
    ):
        """try_modify: the second class clause raises after the first was
        applied; try_insert: the second root's DN is taken after the
        first was grafted."""
        from repro.errors import ModelError

        checker = fresh_checker(fig1, wp_schema)
        before = serialize_ldif(fig1)
        with pytest.raises(ModelError, match="does not belong"):
            checker.try_modify(
                "uid=suciu,ou=databases,ou=attLabs,o=att",
                add_classes=["online"], remove_classes=["staffMember"],
            )
        assert serialize_ldif(fig1) == before
        delta = DirectoryInstance(attributes=fig1.attributes)
        for uid in ("fresh", "laks"):  # laks exists under databases
            delta.add_entry(None, f"uid={uid}", ["person", "top"],
                            {"uid": [uid], "name": [f"{uid} x"]})
        with pytest.raises(DuplicateEntryError):
            checker.try_insert("ou=databases,ou=attLabs,o=att", delta)
        assert serialize_ldif(fig1) == before

    def test_applied_outcome_carries_a_token_that_is_no_part_of_its_value(
        self, wp_schema, fig1
    ):
        checker = fresh_checker(fig1, wp_schema)
        before = serialize_ldif(fig1)
        outcome = checker.try_delete("uid=suciu,ou=databases,ou=attLabs,o=att")
        assert outcome.applied and outcome.token
        assert "token" not in repr(outcome)
        twin = type(outcome)(outcome.report, outcome.cost, list(outcome.checks))
        assert twin == outcome and not twin.token
        outcome.undo()
        assert not outcome.token and serialize_ldif(fig1) == before


class TestIncrementalEqualsFull:
    """Theorem 4.2's payoff: the incremental verdict always matches the
    full re-check of the updated instance."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_insertions(self, seed):
        schema = whitepages_schema()
        instance = generate_whitepages(orgs=1, units_per_level=2, depth=1,
                                       persons_per_unit=1, seed=seed % 5)
        checker = IncrementalChecker(schema, instance)
        full = LegalityChecker(schema)
        for parent, delta in random_insertions(instance, count=3, seed=seed):
            # Oracle: graft on a copy, check from scratch.
            hypothetical = instance.copy()
            hypothetical.insert_subtree(parent, delta)
            expected = full.is_legal(hypothetical)
            outcome = checker.try_insert(parent, delta)
            assert outcome.applied == expected
            # Instance stays legal either way.
            assert full.is_legal(instance)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_deletions(self, seed):
        schema = whitepages_schema()
        instance = generate_whitepages(orgs=1, units_per_level=2, depth=2,
                                       persons_per_unit=1, seed=seed % 5)
        checker = IncrementalChecker(schema, instance)
        full = LegalityChecker(schema)
        rng = random.Random(seed)
        candidates = deletable_units(instance) + [
            str(instance.dn_of(e))
            for e in sorted(instance.entries_with_class("person"))[:3]
        ]
        target = rng.choice(candidates)
        hypothetical = instance.copy()
        hypothetical.delete_subtree(target)
        expected = full.is_legal(hypothetical)
        outcome = checker.try_delete(target)
        assert outcome.applied == expected
        assert full.is_legal(instance)
