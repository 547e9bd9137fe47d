"""Property test: the undo token is exact.

Every change the :class:`IncrementalChecker` makes goes through one
guarded step, which records — while it applies the change — the token
that undoes it.  Whatever the change, and whether it was kept, rejected
or *raised* half-way:

* not applied, or raised  ⇒  the instance is exactly as before: LDIF
  serialization, class counts, index postings, document order;
* applied  ⇒  the sequential oracle (``tests/oracle.py``) finds the
  instance legal — and the verdict is the oracle's verdict on a copy
  with the change forced in;
* applied, then the token  ⇒  exactly as before — what
  ``StagedWrite.abort`` and a 2PC abort rely on.

"Exactly as before" includes the path counts a store instance carries
(:func:`~repro.updates.incremental.attach_path_counts`), so every world
here carries them.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st
from invariants import instance_state
from oracle import oracle_check

from repro.consistency.engine import close
from repro.consistency.witness import WitnessSynthesisError, synthesize_witness
from repro.errors import BoundingSchemaError
from repro.model.dn import parse_rdn
from repro.model.instance import DirectoryInstance
from repro.schema.class_schema import TOP
from repro.store.index import AttributeIndexes
from repro.store.recovery import replay_transaction
from repro.updates.incremental import IncrementalChecker, attach_path_counts
from repro.updates.operations import UpdateTransaction
from repro.workloads import generate_whitepages, random_schema, whitepages_schema

KINDS = ("insert", "delete", "move", "modify", "transaction")


# ----------------------------------------------------------------------
# worlds: a schema, a legal instance of it, and the classes to draw from
# ----------------------------------------------------------------------
def _random_world(seed):
    try:
        schema = random_schema(n_classes=5, n_required=3, n_forbidden=2, seed=seed)
        instance = synthesize_witness(schema, close(schema.all_elements()))
    except (RuntimeError, WitnessSynthesisError):
        return None
    return schema, instance


def _whitepages_world(seed):
    instance = generate_whitepages(
        orgs=1, units_per_level=2, depth=1, persons_per_unit=2, seed=seed
    )
    return whitepages_schema(), instance


def _chain(schema, rng):
    """A content-legal class set: one core class and its superclasses."""
    core = sorted(schema.class_schema.core_classes() - {TOP})
    return list(schema.class_schema.superclasses(rng.choice(core)))


def _delta(schema, rng, like=None):
    """A small random Δ: chain-class entries, or copies of ``like``."""
    delta = DirectoryInstance(attributes=like.attributes if like else None)
    nodes = []
    for i in range(rng.randrange(1, 5)):
        parent = rng.choice(nodes) if nodes and rng.random() < 0.7 else None
        name = f"id=d{rng.randrange(10**6)}"
        if like is not None and rng.random() < 0.6:
            source = rng.choice(list(like))
            attributes = {
                a: list(source.values(a))
                for a in source.attribute_names() if a != "objectClass"
            }
            nodes.append(delta.add_entry(parent, name, source.classes, attributes))
        else:
            nodes.append(delta.add_entry(parent, name, _chain(schema, rng)))
    return delta


# ----------------------------------------------------------------------
# one random change: run it guarded, and force it onto a copy
# ----------------------------------------------------------------------
def _change(kind, schema, instance, guard, rng):
    """``(run, force)``: ``run()`` takes the change through the guard;
    ``force(copy)`` applies it to a copy with no guard (it may raise —
    then there is no hypothetical state to compare verdicts on).  About
    one change in four is built to raise part-way."""
    entries = list(instance)

    def dn(entry):
        return str(entry.dn)

    booby = rng.random() < 0.25

    if kind == "insert":
        parent = dn(rng.choice(entries)) if rng.random() < 0.85 else None
        delta = _delta(schema, rng, like=instance if rng.random() < 0.5 else None)
        if booby:  # a later root's DN is taken: the graft raises part-way
            siblings = instance.children_of(parent) if parent else instance.roots()
            if siblings:
                delta.add_entry(None, str(rng.choice(siblings).rdn), _chain(schema, rng))
        return (
            lambda: guard.try_insert(parent, delta),
            lambda copy: copy.insert_subtree(parent, delta),
        )

    if kind == "delete":
        target = dn(rng.choice(entries))
        return (
            lambda: guard.try_delete(target),
            lambda copy: copy.delete_subtree(target),
        )

    if kind == "move":
        entry = rng.choice(entries)
        target, new_parent, new_rdn = dn(entry), None, None
        if rng.random() < 0.7:
            new_parent = dn(rng.choice(entries))
        if new_parent is None or rng.random() < 0.3:
            new_rdn = f"id=m{rng.randrange(10**6)}"
        if booby:  # collide with a sibling at the destination
            home = instance.find(new_parent) if new_parent else instance.parent_of(entry)
            siblings = instance.children_of(home) if home else instance.roots()
            others = [s for s in siblings if s.eid != entry.eid]
            if others:
                new_rdn = str(rng.choice(others).rdn)

        def force(copy):
            moved = copy.delete_subtree(target)
            if new_rdn is not None:
                moved.roots()[0].rdn = parse_rdn(new_rdn)
            old_parent = instance.parent_of(entry)
            home = new_parent if new_parent else (dn(old_parent) if old_parent else None)
            copy.insert_subtree(home, moved)

        return (
            lambda: guard.try_move(target, new_parent=new_parent, new_rdn=new_rdn),
            force,
        )

    if kind == "modify":
        entry = rng.choice(entries)
        target = dn(entry)
        pool = sorted(schema.class_schema.all_classes())
        add = rng.sample(pool, rng.randrange(0, 3))
        held = sorted(entry.classes)
        remove = rng.sample(held, rng.randrange(0, min(2, len(held)) + 1))
        replace = {}
        names = [n for n in entry.attribute_names() if n != "objectClass"]
        if rng.random() < 0.5:
            name = rng.choice(names) if names and rng.random() < 0.7 else "mail"
            replace[name] = [f"v{rng.randrange(100)}"][: rng.randrange(0, 2)]
        if booby:
            if rng.random() < 0.5:  # delete of a class not held
                remove = remove + [rng.choice([c for c in pool if c not in held] or ["nope"])]
            else:  # objectClass replace: refused after the class changes
                replace["objectClass"] = ["top"]

        def force(copy):
            twin = copy.entry(target)
            for cls in add:
                twin.add_class(cls)
            for cls in remove:
                twin.remove_class(cls)
            for name, values in replace.items():
                twin.replace_values(name, values)

        return (
            lambda: guard.try_modify(
                target, add_classes=add, remove_classes=remove,
                replace_attributes=replace,
            ),
            force,
        )

    assert kind == "transaction"
    transaction = UpdateTransaction()
    parent = rng.choice(entries)
    for i in range(rng.randrange(1, 3)):
        base = f"id=t{rng.randrange(10**6)},{dn(parent)}"
        transaction.insert(base, _chain(schema, rng))
        if rng.random() < 0.5:
            transaction.insert(f"id=c{i},{base}", _chain(schema, rng))
    leaves = [e for e in entries if not instance.children_ids(e) and e.eid != parent.eid]
    if leaves and rng.random() < 0.6:
        transaction.delete(dn(rng.choice(leaves)))
    if booby:
        if rng.random() < 0.5:  # the 2nd root's parent is unknown
            transaction.insert(f"id=orphan,id=nobody,{dn(parent)}", _chain(schema, rng))
        else:  # the 2nd subtree's DN is taken: raises after step 1 applied
            transaction.insert(dn(rng.choice(entries)), _chain(schema, rng))

    return (
        lambda: guard.apply_transaction(transaction),
        lambda copy: replay_transaction(copy, transaction),
    )


def _play(family, seed, plan):
    """Play ``plan`` — ``[(kind, undo it if applied?), ...]`` — against
    a fresh world and assert the three clauses after every change."""
    world = (_random_world if family == "random" else _whitepages_world)(seed)
    if world is None:
        return
    schema, instance = world
    AttributeIndexes.attach(instance)
    attach_path_counts(instance, schema)
    guard = IncrementalChecker(schema, instance)
    rng = random.Random(seed)
    for kind, undo in plan:
        before = instance_state(instance)
        run, force = _change(kind, schema, instance, guard, rng)
        hypothetical = instance.copy()
        try:
            force(hypothetical)
            expected = oracle_check(schema, hypothetical).is_legal
        except BoundingSchemaError:
            expected = None  # the change cannot even be carried out
        try:
            outcome = run()
        except BoundingSchemaError:
            assert instance_state(instance) == before, f"{kind}: raised, not restored"
            continue
        if expected is not None:
            assert outcome.applied == expected, f"{kind}: verdict differs from the oracle"
        if not outcome.applied:
            assert not outcome.token
            assert instance_state(instance) == before, f"{kind}: rejected, not restored"
            continue
        assert oracle_check(schema, instance).is_legal, f"{kind}: applied, now illegal"
        if undo:
            outcome.undo()
            assert instance_state(instance) == before, f"{kind}: token not exact"
            assert not outcome.token
            outcome.undo()  # spent: a second call does nothing
            assert instance_state(instance) == before


_PLANS = st.lists(
    st.tuples(st.sampled_from(KINDS), st.booleans()), min_size=1, max_size=8
)
_FAMILIES = st.sampled_from(["random", "whitepages"])
_SEEDS = st.integers(0, 10_000)


@settings(max_examples=50, deadline=None)
@given(_FAMILIES, _SEEDS, _PLANS)
def test_undo_token_is_exact(family, seed, plan):
    _play(family, seed, plan)


@pytest.mark.slow
@settings(max_examples=200, deadline=None)
@given(_FAMILIES, _SEEDS, _PLANS)
def test_undo_token_is_exact_slow(family, seed, plan):
    _play(family, seed, plan)


def test_rejected_delete_restored_before_a_sibling_keeps_the_counts():
    """A rejected delete of a subtree that is not its parent's last
    child: ``restore_subtree`` puts it back at its old place, the path
    that renumbers, and the path counts come back with it."""
    schema = whitepages_schema()
    instance = generate_whitepages(orgs=1, units_per_level=1, depth=1,
                                   persons_per_unit=1, seed=5)
    attach_path_counts(instance, schema)
    guard = IncrementalChecker(schema, instance)
    person = DirectoryInstance(attributes=instance.attributes)
    person.add_entry(None, "uid=late", ["person", "top"],
                     {"uid": ["late"], "name": ["late comer"]})
    assert guard.try_insert("o=org0", person).applied
    unit, late = instance.children_of("o=org0")  # the only unit, then a person
    before = instance_state(instance)
    renumbers = instance.renumbers
    outcome = guard.try_delete(str(unit.dn))
    assert not outcome.applied  # organization → orgUnit
    assert any("path check for organization → orgUnit" in c for c in outcome.checks)
    assert instance_state(instance) == before
    assert instance.renumbers == renumbers + 1
    assert [e.rdn for e in instance.children_of("o=org0")] == [unit.rdn, late.rdn]
