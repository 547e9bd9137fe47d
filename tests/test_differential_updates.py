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

from repro.axes import Axis
from repro.errors import BoundingSchemaError
from repro.ldif import serialize_ldif
from repro.model.pathcounts import PathCounts
from repro.updates.incremental import IncrementalChecker, attach_path_counts
from repro.workloads import den_schema, generate_den, generate_whitepages, whitepages_schema
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


# ----------------------------------------------------------------------
# the path plan against the full rows
# ----------------------------------------------------------------------
# A store instance carries path counts, and the guard answers Figure 5's
# required child/descendant deletion rows (and the extension table's
# lost-target row) on the path above the change.  A bare twin, built by
# the same deterministic generator and so equal down to entry ids, runs
# the paper's full re-check; both must judge every step alike.
_WORLDS = {
    "whitepages": (
        whitepages_schema,
        lambda seed: generate_whitepages(orgs=2, units_per_level=2, depth=2,
                                         persons_per_unit=2, seed=seed),
    ),
    "den": (
        den_schema,
        lambda seed: generate_den(sites=2, devices_per_site=3, interfaces_per_device=2,
                                  domains=2, policies_per_domain=3, seed=seed),
    ),
}


def _twins(world, seed):
    schema_of, make = _WORLDS[world]
    schema = schema_of()
    counted, bare = make(seed), make(seed)
    attach_path_counts(counted, schema)
    assert counted.path_counts is not None and bare.path_counts is None
    return schema, IncrementalChecker(schema, counted), IncrementalChecker(schema, bare)


def assert_counts_exact(instance):
    """The maintained counts equal a from-scratch recount."""
    counts = instance.path_counts
    tracked = counts.export()
    fresh = PathCounts(
        instance,
        [c for axis, c in tracked if axis is Axis.CHILD],
        [c for axis, c in tracked if axis is Axis.DESCENDANT],
    )
    fresh.rebuild()
    assert fresh.export() == tracked


def _judged(run):
    """``(applied, violations)`` of a step, or the error it raised."""
    try:
        outcome = run()
    except BoundingSchemaError as exc:
        return ("raised", type(exc).__name__, str(exc))
    return (outcome.applied, [str(v) for v in outcome.report])


def _step(schema, instance, rng):
    """One random delete, class-dropping modify or move, as a function
    of a guard (the DNs are drawn once, so both twins get the same)."""
    entries = list(instance)
    entry = rng.choice(entries)
    dn = instance.dn_string_of(entry)
    kind = rng.choice(["delete", "modify", "move"])
    if kind == "delete":
        return lambda guard: guard.try_delete(dn)
    if kind == "modify":
        classes = schema.class_schema
        core = sorted(entry.classes & classes.core_classes() - {"top"})
        if core and rng.random() < 0.8:
            # demote the entry to the superclasses of one of its classes:
            # content-legal, so the structure rows get to judge the loss
            dropped = rng.choice(core)
            keep = set(classes.superclasses(dropped)) - {dropped}
            remove = sorted(entry.classes - keep)
            clear = {a: [] for a in entry.attribute_names() if a != "objectClass"}
        else:
            remove = rng.sample(sorted(entry.classes), 1)
            clear = {}
        return lambda guard: guard.try_modify(dn, remove_classes=remove,
                                              replace_attributes=clear)
    new_parent = instance.dn_string_of(rng.choice(entries)) if rng.random() < 0.8 else None
    new_rdn = f"{entry.rdn.attribute}=moved{rng.randrange(10**6)}" if rng.random() < 0.3 else None
    return lambda guard: guard.try_move(dn, new_parent=new_parent, new_rdn=new_rdn)


def _in_step(counted, bare, run):
    got, expected = _judged(lambda: run(counted)), _judged(lambda: run(bare))
    assert got == expected
    assert serialize_ldif(counted.instance) == serialize_ldif(bare.instance)
    assert_counts_exact(counted.instance)
    return got


@pytest.mark.parametrize("world", sorted(_WORLDS))
@pytest.mark.parametrize("seed", [0, 1, 7, 23])
def test_path_plan_matches_the_full_rows(world, seed):
    schema, counted, bare = _twins(world, seed)
    rng = random.Random(seed)
    verdicts = []
    for _ in range(40):
        if len(counted.instance) < 4:
            break
        verdicts.append(_in_step(counted, bare, _step(schema, counted.instance, rng)))
    # the stream applies, and rejects on a lost required relative
    assert any(v[0] is True for v in verdicts)
    assert any(v[0] is False and any("→" in x for x in v[1]) for v in verdicts)


def _strip_to_last(counted, bare, parent_dn, object_class):
    """Delete ``parent_dn``'s ``object_class`` children one by one: all
    are allowed but the last, which both plans must refuse alike."""
    instance = counted.instance
    children = [
        instance.dn_string_of(c) for c in instance.children_of(parent_dn)
        if c.belongs_to(object_class)
    ]
    assert len(children) >= 2
    for dn in children[:-1]:
        assert _in_step(counted, bare, lambda guard: guard.try_delete(dn))[0] is True
    applied, violations = _in_step(counted, bare, lambda guard: guard.try_delete(children[-1]))
    assert applied is False
    return violations


def _leaf_unit(instance):
    """A unit with no sub-units: its persons are all it has below it."""
    return next(
        instance.dn_string_of(e) for e in instance
        if e.belongs_to("orgUnit")
        and not any(c.belongs_to("orgUnit") for c in instance.children_of(e))
    )


@pytest.mark.parametrize(
    "world, parent, object_class, element",
    [
        # the last person of a unit
        ("whitepages", _leaf_unit, "person", "orgGroup →→ person"),
        # the last orgUnit of an organization
        ("whitepages", lambda _: "o=org1", "orgUnit", "organization → orgUnit"),
        # the last interface of a router
        ("den", lambda _: "hostname=router-0-0,siteName=site0", "interface",
         "router → interface"),
        # the last policy of a domain
        ("den", lambda _: "domainName=domain1", "policy", "policyDomain →→ policy"),
    ],
)
def test_last_required_relative_is_refused_on_the_path(world, parent, object_class, element):
    _, counted, bare = _twins(world, 3)
    violations = _strip_to_last(counted, bare, parent(counted.instance), object_class)
    assert any(element in v for v in violations)


def test_modify_that_gains_the_source_and_drops_the_target():
    """A person turned into a bare ``orgGroup``: it loses its unit a
    person and is itself an ``orgGroup`` with no person below.  The full
    lost-target row names it as well as the gained-source row does, and
    so must the path plan."""
    _, counted, bare = _twins("whitepages", 3)
    instance = counted.instance
    entry = next(e for e in instance if e.belongs_to("person"))
    dn = instance.dn_string_of(entry)
    remove = sorted(entry.classes - {"top"})
    clear = {a: [] for a in entry.attribute_names() if a != "objectClass"}
    applied, violations = _in_step(counted, bare, lambda guard: guard.try_modify(
        dn, add_classes=["orgGroup"], remove_classes=remove, replace_attributes=clear))
    assert applied is False
    assert violations == [f"[required-relationship] at {dn}: update violates "
                          "orgGroup →→ person"] * 2
