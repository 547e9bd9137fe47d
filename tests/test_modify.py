"""Tests for incremental in-place modification (the beyond-Figure-5
extension) and RFC 2849 modify records."""

import pytest

from repro.errors import LdifError
from repro.ldif import serialize_ldif
from repro.ldif.modify import apply_modification, parse_modifications
from repro.legality.checker import LegalityChecker
from repro.updates.incremental import IncrementalChecker
from repro.workloads import generate_whitepages

LAKS = "uid=laks,ou=databases,ou=attLabs,o=att"
SUCIU = "uid=suciu,ou=databases,ou=attLabs,o=att"
DATABASES = "ou=databases,ou=attLabs,o=att"


@pytest.fixture()
def guard(wp_schema, fig1):
    return IncrementalChecker(wp_schema, fig1)


class TestTryModify:
    def test_attribute_change_accepted(self, guard, fig1):
        outcome = guard.try_modify(
            SUCIU, replace_attributes={"mail": []}
        )
        assert outcome.applied  # suciu has no mail; no-op replace is fine
        outcome = guard.try_modify(
            LAKS, replace_attributes={"mail": ["laks@example.edu"]}
        )
        assert outcome.applied
        assert fig1.entry(LAKS).values("mail") == ("laks@example.edu",)

    def test_disallowed_attribute_rejected_and_rolled_back(self, guard, fig1):
        before = serialize_ldif(fig1)
        outcome = guard.try_modify(
            SUCIU, replace_attributes={"mail": ["dan@x.com"]}
        )
        # suciu is not online, so mail is not allowed
        assert not outcome.applied
        assert serialize_ldif(fig1) == before

    def test_required_attribute_removal_rejected(self, guard, fig1):
        before = serialize_ldif(fig1)
        outcome = guard.try_modify(SUCIU, replace_attributes={"name": []})
        assert not outcome.applied
        assert serialize_ldif(fig1) == before

    def test_class_addition_enables_attribute(self, guard, fig1):
        outcome = guard.try_modify(
            SUCIU,
            add_classes=["online"],
            replace_attributes={"mail": ["dan@x.com"]},
        )
        assert outcome.applied
        assert fig1.entry(SUCIU).belongs_to("online")

    def test_incomparable_class_addition_rejected(self, guard, fig1):
        outcome = guard.try_modify(SUCIU, add_classes=["orgUnit"])
        assert not outcome.applied
        assert not fig1.entry(SUCIU).belongs_to("orgUnit")

    def test_class_removal_breaking_required_edge_rejected(self, wp_schema, fig1):
        """Removing databases' orgGroup class breaks
        orgUnit ← orgGroup for its children... no — it breaks
        organization → orgUnit? databases is not under organization
        directly.  It breaks orgUnit ← orgGroup for nothing, but it
        breaks the *chain* (orgUnit ⊑ orgGroup) — a content violation."""
        guard = IncrementalChecker(wp_schema, fig1)
        outcome = guard.try_modify(DATABASES, remove_classes=["orgGroup"])
        assert not outcome.applied
        assert fig1.entry(DATABASES).belongs_to("orgGroup")

    def test_class_removal_breaking_structure_rejected(self, wp_schema, fig1):
        """attLabs is the orgGroup parent of databases; stripping both
        orgUnit+orgGroup from attLabs would orphan databases
        (orgUnit ← orgGroup)."""
        guard = IncrementalChecker(wp_schema, fig1)
        outcome = guard.try_modify(
            "ou=attLabs,o=att", remove_classes=["orgUnit", "orgGroup"]
        )
        assert not outcome.applied
        # the violation is structural, not just content
        assert any(
            "orgUnit ← orgGroup" in (v.element or "") for v in outcome.report
        ) or not outcome.report.is_legal

    def test_modify_verdict_matches_full_recheck(self, wp_schema):
        """Differential: try_modify's verdict equals a from-scratch check
        of the hypothetically modified instance."""
        import random

        rng = random.Random(5)
        instance = generate_whitepages(orgs=1, units_per_level=2, depth=1,
                                       persons_per_unit=2, seed=3)
        guard = IncrementalChecker(wp_schema, instance)
        full = LegalityChecker(wp_schema)
        person_dns = sorted(
            str(instance.dn_of(e)) for e in instance.entries_with_class("person")
        )
        scenarios = [
            dict(add_classes=["online"]),
            dict(add_classes=["orgUnit"]),
            dict(replace_attributes={"name": []}),
            dict(replace_attributes={"telephoneNumber": ["+1 555 0100"]}),
            dict(add_classes=["staffMember"]),
        ]
        for scenario in scenarios:
            target = rng.choice(person_dns)
            hypothetical = instance.copy()
            mirror = IncrementalChecker(wp_schema, hypothetical, assume_legal=True)
            mirror_outcome = mirror.try_modify(target, **scenario)
            # build the hypothetical end state by force
            if not mirror_outcome.applied:
                entry = hypothetical.entry(target)
                for cls in scenario.get("add_classes", []):
                    entry.add_class(cls)
                for name, values in scenario.get("replace_attributes", {}).items():
                    entry.replace_values(name, values)
            expected = full.is_legal(hypothetical)
            outcome = guard.try_modify(target, **scenario)
            assert outcome.applied == expected, scenario
            assert full.is_legal(instance)


    @pytest.mark.parametrize("seed", range(20, 32))
    def test_class_change_verdict_matches_the_oracle(self, seed):
        """The extension table against the sequential oracle, on schemas
        with no content constraints in the way: auxiliary classes come
        and go freely, so every verdict is the structure rows'."""
        import random

        from oracle import oracle_check
        from repro.axes import Axis
        from repro.model.instance import DirectoryInstance
        from repro.schema.attribute_schema import AttributeSchema
        from repro.schema.class_schema import TOP, ClassSchema
        from repro.schema.directory_schema import DirectorySchema
        from repro.schema.structure_schema import StructureSchema

        rng = random.Random(seed)
        marks = ["a", "b", "c", "d"]
        classes = ClassSchema().add_core("n")
        for mark in marks:
            classes.add_auxiliary(mark)
        classes.allow_auxiliary("n", *marks)
        structure = StructureSchema()
        for _ in range(rng.randrange(1, 4)):
            structure.require(rng.choice(marks), rng.choice(list(Axis)), rng.choice(marks))
        for _ in range(rng.randrange(0, 3)):
            structure.forbid(
                rng.choice(marks), rng.choice([Axis.CHILD, Axis.DESCENDANT]),
                rng.choice(marks),
            )
        if rng.random() < 0.5:
            structure.require_class(rng.choice(marks))
        schema = DirectorySchema(AttributeSchema(), classes, structure)
        for _ in range(300):  # sample a legal instance
            instance, entries = DirectoryInstance(), []
            for i in range(rng.randrange(2, 9)):
                held = {TOP, "n", *rng.sample(marks, rng.randrange(0, 3))}
                parent = rng.choice(entries) if entries and rng.random() < 0.8 else None
                entries.append(instance.add_entry(parent, f"id=e{i}", held))
            if oracle_check(schema, instance).is_legal:
                break
        else:
            pytest.skip("no legal instance sampled for this schema")
        guard = IncrementalChecker(schema, instance, assume_legal=True)
        for _ in range(25):
            entry = rng.choice(list(instance))
            held = sorted(entry.classes & set(marks))
            lacking = sorted(set(marks) - entry.classes)
            add = rng.sample(lacking, rng.randrange(0, min(2, len(lacking)) + 1))
            remove = rng.sample(held, rng.randrange(0, min(2, len(held)) + 1))
            forced = instance.copy()
            twin = forced.entry(str(entry.dn))
            for mark in add:
                twin.add_class(mark)
            for mark in remove:
                twin.remove_class(mark)
            outcome = guard.try_modify(
                str(entry.dn), add_classes=add, remove_classes=remove
            )
            assert outcome.applied == oracle_check(schema, forced).is_legal, (
                str(entry.dn), add, remove, [str(e) for e in structure.elements()]
            )


class TestModifyRecords:
    RECORD = f"""\
dn: {LAKS}
changetype: modify
add: objectClass
objectClass: manager
-
replace: mail
mail: laks@example.edu
-
delete: telephoneNumber
-
"""

    def test_parse(self):
        records = parse_modifications(self.RECORD)
        assert len(records) == 1
        record = records[0]
        assert str(record.dn) == LAKS
        ops = {(op.op, op.attribute): op.values for op in record.ops}
        assert ops[("add", "objectClass")] == ("manager",)
        assert ops[("replace", "mail")] == ("laks@example.edu",)
        assert ops[("delete", "telephoneNumber")] == ()

    def test_apply(self, guard, fig1):
        record = parse_modifications(self.RECORD)[0]
        outcome = apply_modification(guard, record)
        assert outcome.applied
        laks = fig1.entry(LAKS)
        assert laks.belongs_to("manager")
        assert laks.values("mail") == ("laks@example.edu",)

    def test_apply_rejects_and_rolls_back(self, guard, fig1):
        bad = f"""\
dn: {SUCIU}
changetype: modify
replace: mail
mail: dan@x.com
-
"""
        before = serialize_ldif(fig1)
        record = parse_modifications(bad)[0]
        outcome = apply_modification(guard, record)
        assert not outcome.applied
        assert serialize_ldif(fig1) == before

    def test_delete_specific_values(self, guard, fig1):
        record = parse_modifications(
            f"dn: {LAKS}\nchangetype: modify\n"
            "delete: mail\nmail: laks@cse.iitb.ernet.in\n-\n"
        )[0]
        outcome = apply_modification(guard, record)
        assert outcome.applied
        assert fig1.entry(LAKS).values("mail") == ("laks@cs.concordia.ca",)

    def test_add_merges_values(self, guard, fig1):
        record = parse_modifications(
            f"dn: {LAKS}\nchangetype: modify\n"
            "add: mail\nmail: laks@third.example\n-\n"
        )[0]
        assert apply_modification(guard, record).applied
        assert len(fig1.entry(LAKS).values("mail")) == 3

    def test_non_modify_record_rejected(self):
        with pytest.raises(LdifError, match="not a modify record"):
            parse_modifications("dn: o=x\nchangetype: add\nobjectClass: top\n")

    def test_clause_attribute_mismatch_rejected(self):
        with pytest.raises(LdifError, match="targets"):
            parse_modifications(
                "dn: o=x\nchangetype: modify\nreplace: mail\nphone: 123\n-\n"
            )

    def test_modrdn_rename(self, guard, fig1):
        record = parse_modifications(
            f"dn: {DATABASES}\nchangetype: modrdn\nnewrdn: ou=data\n"
            "deleteoldrdn: 1\n"
        )[0]
        outcome = apply_modification(guard, record)
        assert outcome.applied
        assert fig1.find("ou=data,ou=attLabs,o=att") is not None

    def test_moddn_with_newsuperior(self, guard, fig1):
        record = parse_modifications(
            f"dn: {LAKS}\nchangetype: moddn\n"
            "newsuperior: ou=attLabs,o=att\n"
        )[0]
        outcome = apply_modification(guard, record)
        assert outcome.applied
        assert fig1.find("uid=laks,ou=attLabs,o=att") is not None

    def test_modrdn_without_fields_rejected(self):
        with pytest.raises(LdifError, match="needs newrdn"):
            parse_modifications(
                "dn: o=x\nchangetype: modrdn\ndeleteoldrdn: 1\n"
            )

    def test_modrdn_with_junk_rejected(self):
        with pytest.raises(LdifError, match="unexpected line"):
            parse_modifications(
                "dn: o=x\nchangetype: modrdn\nnewrdn: o=y\ncolour: red\n"
            )

    def test_mixed_document(self, guard, fig1):
        text = (
            f"dn: {LAKS}\nchangetype: modify\n"
            "replace: mail\nmail: laks@new.example\n-\n"
            "\n"
            f"dn: {SUCIU}\nchangetype: moddn\n"
            "newsuperior: ou=attLabs,o=att\n"
        )
        records = parse_modifications(text)
        assert len(records) == 2
        for record in records:
            assert apply_modification(guard, record).applied
        assert fig1.find("uid=suciu,ou=attLabs,o=att") is not None

    def test_replace_object_class_rejected(self, guard):
        record = parse_modifications(
            f"dn: {LAKS}\nchangetype: modify\n"
            "replace: objectClass\nobjectClass: person\n-\n"
        )[0]
        with pytest.raises(LdifError, match="replace on objectClass"):
            apply_modification(guard, record)


class TestJournaledModify:
    """The store-level modify path: committed modifies are one ordinary
    WAL frame that lock-free readers blind-replay.  (Commit, reject and
    composite-veto footprints on both store layouts are pinned by
    ``TestWritePipeline`` in ``tests/test_store.py``.)"""

    GOOD = (
        f"dn: {LAKS}\nchangetype: modify\n"
        "replace: mail\nmail: laks@example.edu\n-\n"
    )
    def _record(self, text):
        return parse_modifications(text)[0]

    def test_reader_follows_modify_frames(
        self, tmp_path, wp_schema, wp_registry
    ):
        from repro.store import DirectoryStore
        from repro.store.reader import StoreReader
        from repro.workloads import figure1_instance

        path = str(tmp_path / "store")
        store = DirectoryStore.create(
            path, wp_schema, figure1_instance(), wp_registry
        )
        try:
            with StoreReader.open(path, wp_schema, wp_registry) as reader:
                assert store.modify(self._record(self.GOOD)).applied
                result = reader.refresh()
                assert result.advanced
                assert (
                    reader.instance.entry(LAKS).values("mail")
                    == ("laks@example.edu",)
                )
        finally:
            store.close()

    def test_modrdn_record_refused_by_store(
        self, tmp_path, wp_schema, wp_registry
    ):
        from repro.errors import UpdateError
        from repro.store import DirectoryStore
        from repro.workloads import figure1_instance

        record = parse_modifications(
            f"dn: {DATABASES}\nchangetype: modrdn\nnewrdn: ou=data\n"
            "deleteoldrdn: 1\n"
        )[0]
        store = DirectoryStore.create(
            str(tmp_path / "store"), wp_schema, figure1_instance(), wp_registry
        )
        try:
            with pytest.raises(UpdateError, match="changetype: modify"):
                store.modify(record)
            assert store.journal_length == 0
        finally:
            store.close()

    def test_sharded_modify_survives_checker_crash(
        self, tmp_path, wp_schema, wp_registry, monkeypatch
    ):
        """The composite check *raising* mid-modify (a checker bug, not
        a verdict) rolls the staged memory back and writes nothing."""
        import repro.store.sharded as sharded_module
        from repro.store.sharded import ShardedStore
        from repro.workloads import figure1_instance

        bases = {"att": "o=att", "labs": "ou=attLabs,o=att"}
        store = ShardedStore.create(
            str(tmp_path / "sharded"), wp_schema, bases,
            figure1_instance(), wp_registry,
        )
        try:
            before = serialize_ldif(store.composite_instance())

            def boom(*args, **kwargs):
                raise RuntimeError("checker bug")

            monkeypatch.setattr(sharded_module, "_composite_report", boom)
            with pytest.raises(RuntimeError, match="checker bug"):
                store.modify(self._record(self.GOOD))
            monkeypatch.undo()
            assert serialize_ldif(store.composite_instance()) == before
            assert store.shard("labs").journal_length == 0
            assert store.check().is_legal
        finally:
            store.close()
