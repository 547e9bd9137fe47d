"""Integration tests for the full legality test (Definition 2.7),
including corruption-sensitivity: every random corruption must be
detected with the right violation kind."""

import pytest
from hypothesis import given, settings, strategies as st
from oracle import oracle_check, verdicts

from repro.legality.checker import LegalityChecker
from repro.legality.report import Kind, LegalityReport, Violation
from repro.workloads import corrupt, figure1_instance, generate_whitepages


class TestFullCheck:
    def test_figure1_is_legal(self, wp_schema, fig1):
        report = LegalityChecker(wp_schema).check(fig1)
        assert report.is_legal
        assert str(report) == "legal (no violations)"

    def test_generated_instances_are_legal(self, wp_schema):
        for seed in range(3):
            instance = generate_whitepages(
                orgs=2, units_per_level=2, depth=2, persons_per_unit=2, seed=seed
            )
            assert LegalityChecker(wp_schema).is_legal(instance)

    def test_naive_strategy_equivalent(self, wp_schema, fig1):
        fig1.add_entry("ou=attLabs,o=att", "ou=empty",
                       ["orgUnit", "orgGroup", "top"], {"ou": ["empty"]})
        naive = oracle_check(wp_schema, fig1, structure="naive")
        assert not naive.is_legal
        assert verdicts(LegalityChecker(wp_schema).check(fig1)) == verdicts(naive)

    def test_unknown_strategy_rejected(self, wp_schema):
        # ``structure`` is an expectation, not a selector: the strategies
        # it used to select are refused like any unknown name.
        for strategy in ("quantum", "query", "naive"):
            with pytest.raises(ValueError):
                LegalityChecker(wp_schema, structure=strategy)
        assert LegalityChecker(wp_schema, structure="batched").is_legal(
            figure1_instance()
        )

    def test_structure_violation_reported(self, wp_schema, fig1):
        # An empty orgUnit violates orgGroup →→ person.
        fig1.add_entry("ou=attLabs,o=att", "ou=empty",
                       ["orgUnit", "orgGroup", "top"], {"ou": ["empty"]})
        report = LegalityChecker(wp_schema).check(fig1)
        assert not report.is_legal
        assert report.structure_violations()
        assert not report.content_violations()

    def test_content_violation_reported(self, wp_schema, fig1):
        fig1.entry("uid=suciu,ou=databases,ou=attLabs,o=att").add_class("packetRouter")
        report = LegalityChecker(wp_schema).check(fig1)
        assert [v.kind for v in report] == [Kind.UNKNOWN_CLASS]

    def test_is_legal_matches_check(self, wp_schema, fig1):
        checker = LegalityChecker(wp_schema)
        assert checker.is_legal(fig1) == checker.check(fig1).is_legal
        fig1.entry("uid=suciu,ou=databases,ou=attLabs,o=att").add_class("packetRouter")
        assert checker.is_legal(fig1) == checker.check(fig1).is_legal is False


class TestCorruptionSensitivity:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_every_corruption_detected(self, wp_schema, seed):
        instance = figure1_instance()
        kind, dn = corrupt(instance, wp_schema, seed=seed)
        report = LegalityChecker(wp_schema).check(instance)
        assert not report.is_legal
        assert any(v.kind == kind for v in report), (
            f"expected a {kind} violation at {dn}, got {report}"
        )

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_corruption_detected_on_generated(self, wp_schema, seed):
        instance = generate_whitepages(orgs=1, units_per_level=2, depth=1,
                                       persons_per_unit=2, seed=seed)
        kind, _ = corrupt(instance, wp_schema, seed=seed)
        assert not LegalityChecker(wp_schema).is_legal(instance)


class TestReportApi:
    def test_merge_and_filters(self):
        a = LegalityReport([Violation(Kind.UNKNOWN_CLASS, "x")])
        b = LegalityReport([Violation(Kind.REQUIRED_RELATIONSHIP, "y")])
        merged = a.merged_with(b)
        assert len(merged) == 2
        assert len(merged.content_violations()) == 1
        assert len(merged.structure_violations()) == 1
        assert merged.of_kind(Kind.UNKNOWN_CLASS)[0].message == "x"
        assert merged.summary() == (1, 1, 0)

    def test_str_lists_violations(self):
        report = LegalityReport([Violation(Kind.UNKNOWN_CLASS, "bad", dn="o=x")])
        text = str(report)
        assert "ILLEGAL" in text and "o=x" in text

    def test_iteration(self):
        report = LegalityReport([Violation(Kind.SINGLE_VALUED, "v")])
        assert [v.kind for v in report] == [Kind.SINGLE_VALUED]


class TestExtrasChecking:
    def test_duplicate_key_detected(self, wp_schema_extras, fig1):
        fig1.add_entry(
            "ou=databases,ou=attLabs,o=att", "uid=laks2",
            ["person", "top"], {"uid": ["laks"], "name": ["imposter"]},
        )
        report = LegalityChecker(wp_schema_extras).check(fig1)
        assert [v.kind for v in report] == [Kind.DUPLICATE_KEY]

    def test_single_valued_violation_detected(self, wp_schema_extras, fig1):
        entry = fig1.entry("uid=suciu,ou=databases,ou=attLabs,o=att")
        entry.add_value("uid", "suciu2")
        report = LegalityChecker(wp_schema_extras).check(fig1)
        assert Kind.SINGLE_VALUED in [v.kind for v in report]

    def test_extras_pass_on_legal_instance(self, wp_schema_extras, fig1):
        assert LegalityChecker(wp_schema_extras).check(fig1).is_legal
