"""Tests for the memoized legality engine (``CheckSession``).

The engine must be verdict-identical to the sequential reference
(``tests/oracle.py``) cold and warm, and its observability counters
must account for exactly the work done.
"""

import pytest
from oracle import oracle_check, verdicts

from repro.legality import engine
from repro.legality.checker import LegalityChecker
from repro.legality.engine import CheckSession
from repro.legality.metrics import CheckStats
from repro.updates.incremental import IncrementalChecker
from repro.workloads import generate_whitepages, make_unit_subtree


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
            # warm pass: same verdicts straight from the cache
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


class TestMemoization:
    def test_second_check_is_all_hits(self, wp_schema, fig1):
        with CheckSession(wp_schema) as session:
            cold = session.check(fig1)
            warm = session.check(fig1)
        assert cold.stats.cache_hits == 0
        assert warm.stats.entries_checked == 0
        assert warm.stats.cache_hits == len(fig1)

    def test_mutation_invalidates_fingerprint(self, wp_schema, fig1):
        with CheckSession(wp_schema) as session:
            session.check(fig1)
            entry = fig1.entry("uid=laks,ou=databases,ou=attLabs,o=att")
            entry.add_value("telephoneNumber", "908-555-0100")
            report = session.check(fig1)
        assert report.stats.entries_checked == 1
        assert report.stats.cache_hits == len(fig1) - 1

    def test_identical_content_checked_once(self, wp_schema, wp_registry):
        # 50 clones of one entry shape -> a single content check.
        from repro.model.instance import DirectoryInstance

        instance = DirectoryInstance(attributes=wp_registry)
        root = instance.add_entry(None, "o=org", ["organization", "top"],
                                  {"o": ["org"]})
        for i in range(50):
            instance.add_entry(root, f"uid=u{i}", ["person", "top"],
                               {"uid": ["same"], "name": ["same name"]})
        with CheckSession(wp_schema) as session:
            report = session.check(instance)
        # the org plus one representative clone
        assert report.stats.entries_checked == 2
        assert session.cache_size == 2

    def test_cached_verdicts_rebind_dns(self, wp_schema, wp_registry):
        # Two entries with identical (illegal) content report their own
        # DNs even though the verdict is computed once.
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

    def test_check_entry_is_memoized(self, wp_schema, fig1):
        with CheckSession(wp_schema) as session:
            entry = fig1.entry("uid=laks,ou=databases,ou=attLabs,o=att")
            assert session.check_entry(entry) == []
            assert session.stats.cache_misses == 1
            assert session.check_entry(entry) == []
            assert session.stats.cache_hits == 1

    def test_clear_cache(self, wp_schema, fig1):
        with CheckSession(wp_schema) as session:
            session.check(fig1)
            assert session.cache_size > 0
            session.clear_cache()
            assert session.cache_size == 0
            assert session.check(fig1).stats.cache_hits == 0

    def test_cache_limit_bounds_memory(self, wp_schema, fig1, monkeypatch):
        monkeypatch.setattr(engine, "CACHE_LIMIT", 3)
        with CheckSession(wp_schema) as session:
            session.check(fig1)
            assert session.cache_size <= 3
            assert session.check(fig1).is_legal

    def test_lru_keeps_hot_verdicts_under_adversarial_stream(
        self, wp_schema, wp_registry, monkeypatch
    ):
        # A hot entry re-checked between every one-shot stranger must
        # keep hitting the cache: eviction is LRU, not wholesale.
        from repro.model.instance import DirectoryInstance

        instance = DirectoryInstance(attributes=wp_registry)
        root = instance.add_entry(None, "o=org", ["organization", "top"],
                                  {"o": ["org"]})
        hot = instance.add_entry(root, "uid=hot", ["person", "top"],
                                 {"uid": ["hot"], "name": ["hot one"]})
        monkeypatch.setattr(engine, "CACHE_LIMIT", 4)
        with CheckSession(wp_schema) as session:
            session.check_entry(hot)
            for i in range(3 * engine.CACHE_LIMIT):
                stranger = instance.add_entry(
                    root, f"uid=s{i}", ["person", "top"],
                    {"uid": [f"s{i}"], "name": [f"stranger {i}"]},
                )
                session.check_entry(stranger)
                before = session.stats.cache_hits
                session.check_entry(hot)
                assert session.stats.cache_hits == before + 1, (
                    f"hot verdict evicted by one-shot stream at step {i}"
                )
                assert session.cache_size <= engine.CACHE_LIMIT


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
            assert session.stats.entries_checked == len(fig1)
            assert session.stats.cache_hits == len(fig1)

    def test_violation_count_recorded(self, wp_schema, wp_medium):
        corrupt_some(wp_medium, count=3)
        with CheckSession(wp_schema) as session:
            report = session.check(wp_medium)
        assert report.stats.violations == len(report.violations) == 3

    def test_format_table(self):
        stats = CheckStats(entries_checked=10, cache_hits=90, cache_misses=10)
        stats.phase_seconds["content"] = 0.5
        table = stats.format_table()
        assert "entries content-checked" in table
        assert "cache hit rate" in table
        assert "content" in table

    def test_merge_and_hit_rate(self):
        a = CheckStats(cache_hits=3, cache_misses=1)
        b = CheckStats(cache_hits=1, cache_misses=3)
        a.merge(b)
        assert a.cache_hits == 4 and a.cache_misses == 4
        assert a.hit_rate == pytest.approx(0.5)


class TestLifecycle:
    def test_close_is_idempotent(self, wp_schema, fig1):
        session = CheckSession(wp_schema)
        session.check(fig1)
        session.close()
        session.close()
        # a closed session still checks: it holds nothing to release
        assert session.check(fig1).is_legal


class TestIncrementalIntegration:
    def test_shared_session_makes_recheck_delta_scoped(self, wp_schema):
        instance = generate_whitepages(orgs=2, units_per_level=2, depth=2,
                                       persons_per_unit=2, seed=3)
        total = len(instance)
        with CheckSession(wp_schema) as session:
            guard = IncrementalChecker(wp_schema, instance, session=session)
            # the baseline warmed the cache: a re-check re-runs nothing
            warm = guard.recheck()
            assert warm.is_legal
            assert warm.stats.entries_checked == 0
            assert warm.stats.cache_hits == total

            import random

            delta = make_unit_subtree(random.Random(5), persons=2,
                                      attributes=instance.attributes)
            assert guard.try_insert("o=org0", delta).applied
            # Δ was vetted through the session pre-graft; fingerprints
            # are position-independent, so post-graft it is still cached.
            after = guard.recheck()
            assert after.is_legal
            assert after.stats.entries_checked == 0
            assert after.stats.cache_hits == total + len(delta)

    def test_private_session_by_default(self, wp_schema, wp_medium):
        guard = IncrementalChecker(wp_schema, wp_medium)
        assert isinstance(guard.session, CheckSession)
        assert guard.recheck().is_legal
