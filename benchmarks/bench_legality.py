"""Experiment LEG — the legality engine.

Gate for :class:`repro.legality.engine.CheckSession`:

* **Differential** — the session, on a first and a second check,
  agrees verdict-for-verdict with the sequential reference
  (``tests/oracle.py``: one Figure 4 query at a time, and the naive
  quadratic baseline) on legal and corrupted instances.

There is one checking path and no engine knob: every check is one full
pass, so every timing below is a cold one.
"""

import random

import pytest

from repro.legality.engine import CheckSession

from _helpers import (
    oracle_check,
    whitepages_instance,
    wp_schema,
)


def _verdicts(report):
    """A report as an order-independent multiset of verdicts."""
    return sorted((v.kind, v.message, v.dn or "", v.element or "") for v in report.violations)


def _corrupt(instance, rng, count):
    """Inject ``count`` content violations; returns the mutated copy."""
    mutated = instance.copy()
    persons = sorted(mutated.entries_with_class("person"))
    for eid in rng.sample(persons, min(count, len(persons))):
        entry = mutated.entry(eid)
        value = next(iter(entry.values("name")))
        entry.remove_value("name", value)
    return mutated


# ----------------------------------------------------------------------
# the gate: differential — session vs the sequential reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad", [0, 7])
def test_engine_sequential_naive_agree(benchmark, bad):
    """The session, on a first and a second check, agrees
    verdict-for-verdict with both sequential oracles, on a legal
    instance and on one with injected content violations."""
    schema = wp_schema()
    rng = random.Random(bad)
    instance = whitepages_instance("large")
    if bad:
        instance = _corrupt(instance, rng, bad)

    sequential = _verdicts(oracle_check(schema, instance, structure="query"))
    naive = _verdicts(oracle_check(schema, instance, structure="naive"))
    with CheckSession(schema) as session:
        first = _verdicts(session.check(instance))
        second = _verdicts(session.check(instance))

    assert first == sequential
    assert second == sequential
    assert naive == sequential
    assert bool(sequential) == bool(bad)

    benchmark.extra_info["entries"] = len(instance)
    benchmark.extra_info["violations"] = len(sequential)
    with CheckSession(schema) as session:
        benchmark(lambda: session.check(instance))
