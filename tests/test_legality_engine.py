"""Tests for the legality engine (``CheckSession``).

The engine must be verdict-identical to the sequential reference
(``tests/oracle.py``) on every call, and its observability counters
must account for exactly the work done.
"""

import pytest
from oracle import oracle_check, verdicts

from repro.legality.checker import LegalityChecker
from repro.legality.content import ContentChecker
from repro.legality.engine import CheckSession
from repro.legality.metrics import CheckStats
from repro.legality.report import Kind
from repro.updates.incremental import IncrementalChecker
from repro.workloads import generate_whitepages, whitepages_schema


def corrupt_some(instance, count=4):
    """Drop a required value from ``count`` person entries."""
    broken = 0
    for eid in sorted(instance.entries_with_class("person")):
        if broken == count:
            break
        entry = instance.entry(eid)
        entry.remove_value("name", next(iter(entry.values("name"))))
        broken += 1
    return instance


class TestVerdictEquivalence:
    def test_sequential_engine_matches_checker(self, wp_schema, fig1):
        with CheckSession(wp_schema) as session:
            assert verdicts(session.check(fig1)) == verdicts(
                oracle_check(wp_schema, fig1)
            )

    def test_engine_matches_on_violations(self, wp_schema, wp_medium):
        corrupt_some(wp_medium)
        expected = verdicts(oracle_check(wp_schema, wp_medium))
        assert expected
        with CheckSession(wp_schema) as session:
            assert verdicts(session.check(wp_medium)) == expected
            # a second pass gives the same verdicts
            assert verdicts(session.check(wp_medium)) == expected

    def test_naive_structure_strategy(self, wp_schema, fig1):
        # An empty orgUnit violates orgGroup →→ person; the session
        # reports exactly what the quadratic pairwise oracle reports.
        fig1.add_entry("ou=attLabs,o=att", "ou=empty",
                       ["orgUnit", "orgGroup", "top"], {"ou": ["empty"]})
        with CheckSession(wp_schema) as session:
            report = session.check(fig1)
        assert report.structure_violations()
        assert verdicts(report) == verdicts(
            oracle_check(wp_schema, fig1, structure="naive")
        )

    def test_unknown_structure_rejected(self, wp_schema):
        # The selector is gone from the session; LegalityChecker, which
        # keeps it as an expectation, is that same session.
        with pytest.raises(TypeError):
            CheckSession(wp_schema, structure="batched")
        assert isinstance(
            LegalityChecker(wp_schema, structure="batched"), CheckSession
        )

    def test_extras_checked(self, wp_schema_extras, fig1):
        # Section 6.1 extras (uid keys) still run on the engine path.
        clone = fig1.entry("uid=laks,ou=databases,ou=attLabs,o=att")
        fig1.add_entry("ou=databases,ou=attLabs,o=att", "uid=laks2",
                       sorted(clone.classes),
                       {"uid": ["laks"], "name": ["laks again"]})
        expected = verdicts(oracle_check(wp_schema_extras, fig1))
        assert any("key" in message for _, message, _, _ in expected)
        with CheckSession(wp_schema_extras) as session:
            assert verdicts(session.check(fig1)) == expected


class TestPerEntryVerdicts:
    def test_identical_content_reports_each_dn(self, wp_schema, wp_registry):
        # Two entries with identical (illegal) content each report their
        # own DN.
        from repro.model.instance import DirectoryInstance

        instance = DirectoryInstance(attributes=wp_registry)
        root = instance.add_entry(None, "o=org", ["organization", "top"],
                                  {"o": ["org"]})
        instance.add_entry(root, "uid=a", ["person", "top"], {"uid": ["x"]})
        instance.add_entry(root, "uid=b", ["person", "top"], {"uid": ["x"]})
        with CheckSession(wp_schema) as session:
            report = session.check(instance)
        dns = {v.dn for v in report.violations}
        assert {"uid=a,o=org", "uid=b,o=org"} <= dns

    def test_every_check_checks_every_entry(self, wp_schema, fig1):
        with CheckSession(wp_schema) as session:
            session.check(fig1)
            entry = fig1.entry("uid=laks,ou=databases,ou=attLabs,o=att")
            entry.add_value("telephoneNumber", "908-555-0100")
            again = session.check(fig1)
            assert again.stats.entries_checked == len(fig1)
            assert session.check_entry(entry) == []
            assert session.stats.entries_checked == 2 * len(fig1) + 1
            assert session.stats.cache_hits == session.stats.cache_misses == 0


class TestContentPlans:
    """The content pass is compiled once per class set: a legal entry is
    passed by its set's plan, any other goes to the literal
    :meth:`ContentChecker.check_entry`, so the verdict is the oracle's."""

    def test_plans_built_are_the_class_sets_not_the_entries(self, wp_schema):
        # the legality_audit benchmark's data: 8,066 entries, 20 class sets
        instance = generate_whitepages(
            orgs=4, units_per_level=5, depth=3, persons_per_unit=12, seed=42
        )
        class_sets = {entry.classes for entry in instance}
        assert len(class_sets) == 20 and len(instance) == 8066
        with CheckSession(wp_schema) as session:
            assert session.check(instance).is_legal
            assert session.plans_built == len(class_sets)
            assert session.check(instance).is_legal
            assert session.plans_built == len(class_sets)

    def test_every_content_kind_matches_the_oracle(self, wp_registry):
        schema = whitepages_schema(extras=True)
        schema.extras.declare_extensible("consultant")
        instance = generate_whitepages(
            orgs=1, units_per_level=2, depth=1, persons_per_unit=3, seed=3,
            registry=wp_registry,
        )
        unit = sorted(instance.entries_with_class("orgUnit"))[0]
        person = {"name": ["b"]}
        bad = [
            ("b1", ["mystery", "person", "top"], person),  # unknown class
            ("b2", ["online"], {"mail": ["b2@x"]}),  # no core class
            ("b3", ["staffMember", "top"], person),  # missing superclass
            ("b4", ["staffMember", "person", "researcher", "top"], person),
            ("b5", ["person", "manager", "top"], person),  # disallowed aux
            ("b6", ["person", "top"], {}),  # missing required attribute
            ("b7", ["person", "top"], {**person, "location": ["FP"]}),
            # an extensible class exempts it from the allowed check only
            ("b8", ["staffMember", "person", "consultant", "top"],
             {**person, "location": ["FP"]}),
            ("b9", ["staffMember", "person", "consultant", "top"], {}),
        ]
        for uid, classes, values in bad:
            instance.add_entry(unit, f"uid={uid}", classes, {"uid": [uid], **values})
        expected = oracle_check(schema, instance)
        with CheckSession(schema) as session:
            report = session.check(instance)
            assert verdicts(report) == verdicts(expected)
            assert [str(v) for v in report.violations] == [
                str(v) for v in expected.violations
            ]
            assert {v.kind for v in report.violations} >= Kind.CONTENT_KINDS
            assert not [v for v in report.violations if v.dn.startswith("uid=b8,")]
            # the Δ hook agrees entry by entry, DN given or not
            content = ContentChecker(schema)
            for entry in instance:
                dn = instance.dn_string_of(entry)
                assert session.check_entry(entry, dn=dn) == content.check_entry(
                    entry, dn=dn
                )
                assert session.check_entry(entry) == content.check_entry(entry)
            assert session.plans_built == len({entry.classes for entry in instance})


class TestStats:
    def test_report_carries_per_call_stats(self, wp_schema, fig1):
        with CheckSession(wp_schema) as session:
            report = session.check(fig1)
        stats = report.stats
        assert stats.entries_checked == len(fig1)
        assert stats.queries_evaluated > 0
        assert stats.violations == 0
        assert stats.phase_seconds["content"] >= 0
        assert stats.phase_seconds["structure"] >= 0

    def test_session_stats_accumulate(self, wp_schema, fig1):
        with CheckSession(wp_schema) as session:
            session.check(fig1)
            session.check(fig1)
            assert session.stats.entries_checked == 2 * len(fig1)

    def test_violation_count_recorded(self, wp_schema, wp_medium):
        corrupt_some(wp_medium, count=3)
        with CheckSession(wp_schema) as session:
            report = session.check(wp_medium)
        assert report.stats.violations == len(report.violations) == 3

    def test_format_table(self):
        stats = CheckStats(entries_checked=10)
        stats.phase_seconds["content"] = 0.5
        table = stats.format_table()
        assert "entries content-checked" in table
        assert "content" in table
        assert "cache" not in table and "memo" not in table

    def test_merge(self):
        a = CheckStats(entries_checked=3, structure_checks=1)
        b = CheckStats(entries_checked=1, structure_checks=3)
        a.merge(b)
        assert a.entries_checked == 4 and a.structure_checks == 4


class TestLifecycle:
    def test_close_is_idempotent(self, wp_schema, fig1):
        session = CheckSession(wp_schema)
        session.check(fig1)
        session.close()
        session.close()
        # a closed session still checks: it holds nothing to release
        assert session.check(fig1).is_legal


class TestIncrementalIntegration:
    def test_private_session_by_default(self, wp_schema, wp_medium):
        guard = IncrementalChecker(wp_schema, wp_medium)
        assert isinstance(guard.session, CheckSession)
        assert guard.full_recheck().is_legal
