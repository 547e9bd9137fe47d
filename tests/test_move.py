"""Tests for guarded subtree move/rename (LDAP modrdn)."""

import pytest

from repro.errors import UpdateError
from repro.ldif import serialize_ldif
from repro.legality.checker import LegalityChecker
from repro.updates.incremental import IncrementalChecker
from repro.workloads import generate_whitepages, whitepages_schema

DATABASES = "ou=databases,ou=attLabs,o=att"
LAKS = "uid=laks,ou=databases,ou=attLabs,o=att"


@pytest.fixture()
def guard(wp_schema, fig1):
    return IncrementalChecker(wp_schema, fig1)


class TestMove:
    def test_move_person_between_units(self, guard, fig1):
        outcome = guard.try_move(LAKS, new_parent="ou=attLabs,o=att")
        assert outcome.applied
        assert fig1.find("uid=laks,ou=attLabs,o=att") is not None
        assert fig1.find(LAKS) is None
        assert LegalityChecker(whitepages_schema()).is_legal(fig1)

    def test_move_whole_unit_out_of_its_group_rejected(self, guard, fig1):
        """Moving databases out of attLabs leaves attLabs without a
        person descendant — the deletion-side check at the origin."""
        outcome = guard.try_move(DATABASES, new_parent="o=att")
        assert not outcome.applied
        assert any("orgGroup →→ person" in (v.element or "")
                   for v in outcome.report)

    def test_move_whole_unit_accepted_when_origin_keeps_a_person(self, guard, fig1):
        fig1.add_entry("ou=attLabs,o=att", "uid=stay", ["person", "top"],
                       {"uid": ["stay"], "name": ["stay er"]})
        outcome = guard.try_move(DATABASES, new_parent="o=att")
        assert outcome.applied
        assert fig1.find("uid=laks,ou=databases,o=att") is not None
        assert LegalityChecker(whitepages_schema()).is_legal(fig1)

    def test_rename_in_place(self, guard, fig1):
        outcome = guard.try_move(DATABASES, new_rdn="ou=data")
        assert outcome.applied
        assert fig1.find("ou=data,ou=attLabs,o=att") is not None
        assert fig1.find(DATABASES) is None

    def test_move_under_person_rejected_and_rolled_back(self, guard, fig1):
        before = serialize_ldif(fig1)
        outcome = guard.try_move(
            DATABASES, new_parent="uid=armstrong,o=att"
        )
        assert not outcome.applied
        assert any("person ↛ top" in (v.element or "") for v in outcome.report)
        assert serialize_ldif(fig1) == before

    def test_move_vacating_last_person_rejected(self, wp_schema):
        """Moving the only person-containing subtree out from under a
        unit violates orgGroup →→ person at the *origin* — the
        deletion-side check."""
        instance = generate_whitepages(orgs=2, units_per_level=1, depth=1,
                                       persons_per_unit=1, seed=13)
        guard = IncrementalChecker(wp_schema, instance)
        # find a unit with exactly one person child and no other branches
        unit = None
        person = None
        for eid in sorted(instance.entries_with_class("orgUnit")):
            children = instance.children_of(eid)
            persons = [c for c in children if c.belongs_to("person")]
            if len(children) == len(persons) == 1:
                unit = instance.entry(eid)
                person = persons[0]
                break
        assert unit is not None
        other_org = next(
            str(instance.dn_of(e))
            for e in sorted(instance.entries_with_class("organization"))
            if not instance.is_ancestor(e, unit)
        )
        before = serialize_ldif(instance)
        outcome = guard.try_move(str(instance.dn_of(person)), new_parent=other_org)
        assert not outcome.applied
        assert any("orgGroup →→ person" in (v.element or "")
                   for v in outcome.report)
        assert serialize_ldif(instance) == before

    def test_move_into_own_subtree_rejected(self, guard):
        with pytest.raises(UpdateError, match="inside the moved subtree"):
            guard.try_move("ou=attLabs,o=att", new_parent=DATABASES)

    def test_move_onto_itself_rejected(self, guard):
        with pytest.raises(UpdateError, match="inside the moved subtree"):
            guard.try_move(DATABASES, new_parent=DATABASES)

    def test_move_to_missing_destination_rejected(self, guard):
        with pytest.raises(UpdateError, match="does not exist"):
            guard.try_move(DATABASES, new_parent="ou=ghost,o=att")

    def test_duplicate_dn_at_destination_restores(self, guard, fig1):
        fig1.add_entry("o=att", "ou=databases",
                       ["orgUnit", "orgGroup", "top"], {"ou": ["databases"]})
        fig1.add_entry("ou=databases,o=att", "uid=p",
                       ["person", "top"], {"uid": ["p"], "name": ["p p"]})
        before = serialize_ldif(fig1)
        with pytest.raises(UpdateError, match="move failed"):
            guard.try_move(DATABASES, new_parent="o=att")
        assert serialize_ldif(fig1) == before

    @pytest.mark.parametrize("collide", ["new_rdn", "new_parent"])
    def test_failed_move_loses_nothing(self, guard, fig1, collide):
        """A move whose destination DN is taken raises — the documented
        ``UpdateError`` — with the entry still at its old DN, under its
        old RDN, at its old place among its siblings (laks is the
        *first* child of databases); the next legal move still works."""
        if collide == "new_rdn":
            move = dict(new_rdn="uid=suciu")  # a sibling's RDN
        else:
            fig1.add_entry("ou=attLabs,o=att", "uid=laks", ["person", "top"],
                           {"uid": ["laks2"], "name": ["other laks"]})
            move = dict(new_parent="ou=attLabs,o=att")
        before = serialize_ldif(fig1)
        with pytest.raises(UpdateError, match="move failed"):
            guard.try_move(LAKS, **move)
        assert str(fig1.entry(LAKS).rdn) == "uid=laks"
        assert len(fig1) == before.count("\ndn: ")
        assert serialize_ldif(fig1) == before
        assert guard.try_move(LAKS, new_rdn="uid=lakshmanan").applied
        assert fig1.find(LAKS) is None
        assert fig1.find(f"uid=lakshmanan,{DATABASES}") is not None

    def test_rename_rolls_back_rdn(self, guard, fig1):
        before = serialize_ldif(fig1)
        outcome = guard.try_move(
            DATABASES, new_parent="uid=armstrong,o=att", new_rdn="ou=data"
        )
        assert not outcome.applied
        assert serialize_ldif(fig1) == before

    def test_move_verdict_matches_full_recheck(self, wp_schema):
        """Differential: try_move's verdict equals checking the
        hypothetically moved instance from scratch."""
        instance = generate_whitepages(orgs=2, units_per_level=2, depth=1,
                                       persons_per_unit=2, seed=21)
        guard = IncrementalChecker(wp_schema, instance)
        full = LegalityChecker(wp_schema)
        units = sorted(
            str(instance.dn_of(e)) for e in instance.entries_with_class("orgUnit")
        )
        persons = sorted(
            str(instance.dn_of(e)) for e in instance.entries_with_class("person")
        )
        moves = [
            (persons[0], units[-1]),
            (persons[1], "o=org0"),
            (units[0], "o=org1"),
            (persons[2], persons[3]),  # person under person: illegal
        ]
        for source, dest in moves:
            hypothetical = instance.copy()
            sub = hypothetical.delete_subtree(source)
            try:
                hypothetical.insert_subtree(dest, sub)
            except Exception:
                continue
            expected = full.is_legal(hypothetical)
            outcome = guard.try_move(source, new_parent=dest)
            assert outcome.applied == expected, (source, dest)
            assert full.is_legal(instance)
            if outcome.applied:
                # keep following moves meaningful: recompute names
                break
