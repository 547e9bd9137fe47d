"""Shared fixtures: the paper's running example and the DEN workload."""

from __future__ import annotations

import os
import sys

import pytest

# Make the multi-process test harness (tests/harness/) importable as
# ``harness`` regardless of how pytest was invoked.
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.consistency import engine as consistency_engine
from repro.consistency.rules import RULES
from repro.workloads import (
    den_schema,
    figure1_instance,
    generate_den,
    generate_whitepages,
    whitepages_registry,
    whitepages_schema,
)


@pytest.fixture(scope="session", autouse=True)
def every_derivation_names_a_catalogued_rule():
    """Whatever closure any test computes, each fact in it is an axiom
    or carries the name of a rule in the table — nothing the engine
    writes into a proof is a label of its own making."""
    add = consistency_engine._Engine.add

    def checked_add(self, fact, rule, premises=()):
        assert rule == "axiom" or rule in RULES, f"uncatalogued rule {rule!r}"
        add(self, fact, rule, premises)

    consistency_engine._Engine.add = checked_add
    yield
    consistency_engine._Engine.add = add


@pytest.fixture(scope="session")
def wp_schema():
    """The Figures 2-3 bounding-schema (session-scoped: immutable)."""
    return whitepages_schema()


@pytest.fixture(scope="session")
def wp_schema_extras():
    """The white-pages schema with Section 6.1 extras (uid as a key)."""
    return whitepages_schema(extras=True)


@pytest.fixture()
def fig1():
    """A fresh copy of the Figure 1 instance (function-scoped: tests
    mutate it)."""
    return figure1_instance()


@pytest.fixture(scope="session")
def wp_registry():
    return whitepages_registry()


@pytest.fixture()
def wp_medium():
    """A mid-sized generated white-pages instance."""
    return generate_whitepages(orgs=2, units_per_level=2, depth=2,
                               persons_per_unit=2, seed=11)


@pytest.fixture(scope="session")
def den():
    return den_schema()


@pytest.fixture()
def den_instance():
    return generate_den(sites=2, devices_per_site=2, interfaces_per_device=2,
                        domains=1, policies_per_domain=2, seed=5)
