"""Shared benchmark helpers.

All benchmarks measure two things:

* **wall-clock** via ``pytest-benchmark`` (the usual timing table), and
* **shape** via the library's machine-independent work counters
  (entries touched), asserted inside the tests so a regression in
  asymptotics fails the run rather than just looking slow.

Instances are cached per size so the timing loops measure checking, not
generation.
"""

from __future__ import annotations

import os
import sys
from functools import lru_cache
from typing import List, Tuple

from repro.workloads import generate_whitepages, whitepages_schema

# The sequential reference verdict the differentials compare against
# and the growth fit the complexity gates share live with the tests;
# there is one copy of each.
sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests")
)
from growth import fit_growth  # noqa: E402,F401
from oracle import oracle_check  # noqa: E402,F401

#: (orgs, units_per_level, depth, persons_per_unit) per size tier.
WHITEPAGES_TIERS = {
    "small": (1, 3, 1, 3),
    "medium": (2, 3, 2, 3),
    "large": (3, 4, 2, 4),
    "xlarge": (4, 4, 3, 4),
}


def cold_check(session, instance):
    """A full check that reuses nothing memoized: what the paper's
    Theorem 3.1 series and every cold timing measure."""
    session.clear_cache()
    return session.check(instance)


@lru_cache(maxsize=None)
def whitepages_instance(tier: str):
    """A cached legal white-pages instance of the given tier."""
    orgs, units, depth, persons = WHITEPAGES_TIERS[tier]
    return generate_whitepages(
        orgs=orgs, units_per_level=units, depth=depth,
        persons_per_unit=persons, seed=42,
    )


@lru_cache(maxsize=None)
def wp_schema():
    return whitepages_schema()


def print_series(title: str, rows: List[Tuple]) -> None:
    """Print a labelled series (shows under ``pytest -s`` and in the
    captured bench log)."""
    print()
    print(f"--- {title}")
    for row in rows:
        print("   ", *row)
