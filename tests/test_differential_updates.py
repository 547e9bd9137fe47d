"""Differential property test: the incremental checker (Figure 5 rules)
against from-scratch legality checking, step for step.

A random stream of subtree insertions and deletions is played through
an :class:`IncrementalChecker`; at every step the incremental verdict
must match the from-scratch sequential reference (``tests/oracle.py``)
run on a copy with the update applied unconditionally — and the guarded instance itself
must remain legal throughout (Theorem 4.2: the incremental test accepts
exactly the legality-preserving updates).
"""

import random

import pytest
from oracle import oracle_check

from repro.updates.incremental import IncrementalChecker
from repro.workloads import generate_whitepages
from repro.workloads.update_streams import (
    deletable_units,
    insertion_points,
    make_person_subtree,
    make_unit_subtree,
)

STEPS = 12


def raw_insert_is_legal(schema, instance, parent, delta):
    """Apply the graft unconditionally on a copy; check from scratch."""
    trial = instance.copy()
    trial.insert_subtree(parent, delta)
    return oracle_check(schema, trial).is_legal


def raw_delete_is_legal(schema, instance, dn):
    trial = instance.copy()
    trial.delete_subtree(dn)
    return oracle_check(schema, trial).is_legal


@pytest.mark.parametrize("seed", [0, 1, 7, 23])
def test_incremental_matches_from_scratch_on_random_streams(wp_schema, seed):
    rng = random.Random(seed)
    instance = generate_whitepages(orgs=2, units_per_level=2, depth=2,
                                   persons_per_unit=2, seed=seed)
    guard = IncrementalChecker(wp_schema, instance)

    inserts = deletes = rejected = 0
    for _ in range(STEPS):
        do_delete = rng.random() < 0.4 and deletable_units(instance)
        if do_delete:
            target = rng.choice(deletable_units(instance))
            expected = raw_delete_is_legal(wp_schema, instance, target)
            outcome = guard.try_delete(target)
            deletes += 1
        else:
            parent = rng.choice(insertion_points(instance))
            if rng.random() < 0.5:
                delta = make_unit_subtree(rng, persons=rng.randrange(1, 3),
                                          attributes=instance.attributes)
            else:
                delta = make_person_subtree(rng, attributes=instance.attributes)
            expected = raw_insert_is_legal(wp_schema, instance, parent, delta)
            outcome = guard.try_insert(parent, delta)
            inserts += 1

        assert outcome.applied == expected, (
            f"incremental verdict {outcome.applied} != from-scratch "
            f"{expected} at step insert={inserts} delete={deletes}:\n"
            f"{outcome.report}"
        )
        rejected += not outcome.applied
        # rollback (on reject) and commit (on apply) both leave a legal
        # instance — checked from scratch, not through the guard
        assert oracle_check(wp_schema, instance).is_legal

    assert inserts + deletes == STEPS


def test_rejected_stream_steps_roll_back_cleanly(wp_schema):
    """Force rejections: inserting under a non-orgGroup parent violates
    structure; the guard must refuse and restore the exact DN set."""
    rng = random.Random(99)
    instance = generate_whitepages(orgs=1, units_per_level=2, depth=1,
                                   persons_per_unit=2, seed=99)
    guard = IncrementalChecker(wp_schema, instance)
    person_dn = sorted(
        str(instance.dn_of(e)) for e in instance.entries_with_class("person")
    )[0]
    before = sorted(instance.dn_string_of(e) for e in instance)

    delta = make_unit_subtree(rng, persons=1, attributes=instance.attributes)
    outcome = guard.try_insert(person_dn, delta)  # unit under a person
    assert not outcome.applied
    after = sorted(instance.dn_string_of(e) for e in instance)
    assert before == after
    assert oracle_check(wp_schema, instance).is_legal
