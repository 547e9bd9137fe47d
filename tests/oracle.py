"""The sequential reference verdict (Definition 2.7), composed from the
paper's literal algorithms — never from ``CheckSession``, which is what
the differentials compare against it."""

from repro.legality import (
    ContentChecker,
    ExtrasChecker,
    NaiveStructureChecker,
    QueryStructureChecker,
)

STRUCTURE_ORACLES = {"query": QueryStructureChecker, "naive": NaiveStructureChecker}


def oracle_check(schema, instance, structure="query"):
    """Content, then structure (one Figure 4 query at a time, or the
    quadratic pairwise scan), then the Section 6.1 extras."""
    report = ContentChecker(schema).check(instance)
    report.extend(
        STRUCTURE_ORACLES[structure](schema.structure_schema).check(instance).violations
    )
    if schema.extras is not None:
        report.extend(ExtrasChecker(schema.extras).check(instance).violations)
    return report


def verdicts(report):
    """Ordered verdict list — the strongest equality we can assert."""
    return [(v.kind, v.message, v.dn, v.element) for v in report.violations]
