"""Document order is maintained, not renumbered.

Once an instance's interval numbering has been asked for, every
``add_entry`` / ``delete_entry`` / ``delete_subtree`` patches it in
place.  After every op of a seeded random stream the maintained
``(_pre, _post, _depth, _order)`` must be order-isomorphic to what a
full renumber of a copy produces, and ``renumbers`` — the count of full
passes — must stay where the first reader left it.  Only a label gap
running out costs a second pass, and exactly one.
"""

import random

import pytest

from repro.ldif import parse_ldif, serialize_ldif
from repro.model.instance import DirectoryInstance
from repro.workloads import generate_whitepages


def assert_isomorphic_to_fresh_renumber(instance, rng):
    """Same document order, same depths, same ancestor relation as a
    copy numbered from scratch (entries matched by DN: copies re-issue
    entry ids)."""
    fresh = instance.copy()
    assert fresh.renumbers == 0
    order = [instance.dn_string_of(eid) for eid in instance.entry_ids()]
    assert order == [fresh.dn_string_of(eid) for eid in fresh.entry_ids()]
    assert fresh.renumbers == 1
    assert sorted(instance._pre) == sorted(instance._post) == sorted(instance._depth)
    assert len(instance._pre) == len(instance._order) == len(instance)
    for dn in order:
        assert instance.depth_of(dn) == fresh.depth_of(dn)
        low, high = instance.interval_of(dn)
        assert low < high
    for _ in range(40):
        a, b = rng.choice(order), rng.choice(order)
        assert instance.is_ancestor(a, b) == fresh.is_ancestor(a, b)
        assert (instance.interval_of(a) < instance.interval_of(b)) == (
            fresh.interval_of(a) < fresh.interval_of(b)
        )
        assert instance.subtree_size(a) == fresh.subtree_size(a)
        assert instance.subtree_size(a) == 1 + sum(1 for _ in instance.descendants_of(a))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_op_of_a_random_stream_keeps_the_numbering(seed):
    rng = random.Random(seed)
    instance = generate_whitepages(orgs=2, units_per_level=2, depth=2,
                                   persons_per_unit=2, seed=seed)
    assert instance.renumbers == 0  # bulk load: nothing numbered, nothing patched
    instance.entry_ids()
    expected = 1
    serial = 0
    for _ in range(150):
        entries = list(instance)
        op = rng.choice(["leaf", "leaf", "subtree", "delete", "prune", "root"])
        serial += 1
        if op == "leaf":
            instance.add_entry(rng.choice(entries), f"cn=n{serial}", ["top"])
        elif op == "root":
            instance.add_entry(None, f"o=r{serial}", ["top"])
        elif op == "subtree":
            graft = DirectoryInstance()
            top = graft.add_entry(None, f"ou=g{serial}", ["top"])
            for i in range(rng.randrange(1, 4)):
                child = graft.add_entry(top, f"cn=c{i}", ["top"])
                if rng.random() < 0.5:
                    graft.add_entry(child, "cn=deep", ["top"])
            instance.insert_subtree(rng.choice(entries), graft)
        elif op == "delete":
            leaves = [e for e in entries if not instance.children_ids(e)]
            instance.delete_entry(rng.choice(leaves))
        else:
            inner = [e for e in entries if instance.parent_id(e) is not None]
            if inner:
                instance.delete_subtree(rng.choice(inner))
        # Entries nested six deep under entries that were themselves
        # patched in run a gap out; nothing else may cost a renumber.
        expected += instance._order is None
        assert_isomorphic_to_fresh_renumber(instance, rng)
        assert instance.renumbers == expected
    assert expected <= 3  # of 150 ops; every op renumbered before


def test_hundreds_of_appends_under_one_parent_cost_one_renumber():
    instance = DirectoryInstance()
    parent = instance.add_entry(None, "o=wide", ["top"])
    instance.add_entry(parent, "cn=before", ["top"])
    after = instance.add_entry(None, "o=after", ["top"])
    instance.entry_ids()
    assert instance.renumbers == 1
    for i in range(2000):  # far past the room a renumber leaves under one entry
        instance.add_entry(parent, f"cn=a{i}", ["top"])
    assert instance._order is None  # the gap ran out: stale, and lazy about it
    assert instance.renumbers == 1
    assert_isomorphic_to_fresh_renumber(instance, random.Random(0))
    assert instance.renumbers == 2
    assert instance.interval_of(f"cn=a{1999},o=wide") < instance.interval_of(after)
    # maintained again from the fresh labels
    instance.add_entry(parent, "cn=one-more", ["top"])
    assert instance.entry_ids()[-2] == instance.entry("cn=one-more,o=wide").eid
    assert instance.renumbers == 2


def test_deep_chain_built_under_a_valid_numbering_costs_one_renumber():
    depth = 5000  # the chain of test_deep_trees.py
    instance = DirectoryInstance()
    parent = instance.add_entry(None, "o=deep", ["top"])
    assert instance.max_depth() == 1 and instance.renumbers == 1
    for i in range(depth - 1):
        parent = instance.add_entry(parent, f"ou=u{i}", ["top"])
    assert instance.renumbers == 1
    assert instance.max_depth() == depth
    assert instance.renumbers == 2
    assert instance.is_ancestor("o=deep", parent)
    assert instance.depth_of(parent) == depth


def test_bulk_loads_patch_nothing():
    generated = generate_whitepages(orgs=1, seed=4)
    assert generated._order is None and generated.renumbers == 0
    copied = generated.copy()  # walks children, not the order
    assert copied._order is None and copied.renumbers == 0
    assert generated.renumbers == 0
    parsed = parse_ldif(serialize_ldif(generated))
    assert parsed._order is None and parsed.renumbers == 0
