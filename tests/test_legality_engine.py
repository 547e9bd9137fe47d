"""Tests for the legality engine (``CheckSession``).

The engine must be verdict-identical to the sequential reference
(``tests/oracle.py``) on every call, and its observability counters
must account for exactly the work done.
"""

import pytest
from oracle import oracle_check, verdicts

from repro.legality.checker import LegalityChecker
from repro.legality.engine import CheckSession
from repro.legality.metrics import CheckStats
from repro.updates.incremental import IncrementalChecker


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
