"""Path counts and the path plan (ROADMAP item 14).

A store instance carries :class:`~repro.model.pathcounts.PathCounts` —
per entry, how many children / descendants hold each target class of a
required child or descendant element — and the incremental guard judges
those elements' full deletion rows on the path above the pruned root.
These tests pin the costs that make that worth doing: a one-person
delete's work flat in |D|, and count maintenance O(depth) per entry on a
depth-5,000 chain.  The verdicts themselves are held to the full rows in
``tests/test_differential_updates.py``; the rollback in
``tests/test_undo_token.py``.
"""

import random
import statistics

from growth import fit_growth
from invariants import instance_state
from test_differential_updates import assert_counts_exact

from repro.axes import Axis
from repro.model.instance import DirectoryInstance
from repro.store import DirectoryStore, open_view
from repro.updates.incremental import IncrementalChecker, attach_path_counts
from repro.updates.operations import UpdateTransaction
from repro.workloads import generate_whitepages, whitepages_registry, whitepages_schema

DEPTH = 5000  # the chain of test_deep_trees.py


def _one_person_delete_costs(instance, schema, deletes=20):
    guard = IncrementalChecker(schema, instance, assume_legal=True)
    persons = sorted(instance.dn_string_of(e) for e in instance.entries_with_class("person"))
    return [guard.try_delete(dn).cost for dn in random.Random(3).sample(persons, deletes)]


def test_one_person_delete_work_is_flat_in_the_instance_size():
    """``incremental.query_work`` of a one-person delete on a counted
    instance does not grow over a 10× ladder; on the bare twin, the
    paper's full re-check, it grows with |D| (the FIG5 gate's shape)."""
    schema = whitepages_schema()
    sizes, counted_costs, bare_costs = [], [], []
    for orgs in (1, 3, 12):
        bare = generate_whitepages(orgs=orgs, seed=11)
        counted = generate_whitepages(orgs=orgs, seed=11)
        attach_path_counts(counted, schema)
        sizes.append(len(counted))
        counted_costs.append(statistics.median(_one_person_delete_costs(counted, schema)))
        bare_costs.append(statistics.median(_one_person_delete_costs(bare, schema)))
    assert sizes[-1] >= 10 * sizes[0]
    counted_exponent = fit_growth(sizes, counted_costs)
    bare_exponent = fit_growth(sizes, bare_costs)
    assert counted_exponent < 0.35, (sizes, counted_costs)
    assert bare_exponent > 0.8, (sizes, bare_costs)
    assert counted_costs[-1] * 10 < bare_costs[-1]


def test_deep_chain_count_maintenance_is_linear_in_depth():
    """Append a DEPTH-level unit chain and a person at its foot, then
    delete both ways: every change costs at most one visit per ancestor,
    and a pruned subtree moves its ancestors once, not once per entry."""
    schema = whitepages_schema()
    instance = DirectoryInstance(attributes=whitepages_registry())
    parent = instance.add_entry(None, "o=deep", ["organization", "orgGroup", "top"],
                                {"o": ["deep"]})
    counts = attach_path_counts(instance, schema)
    top_unit = None
    for depth in range(2, DEPTH):
        before = counts.steps
        parent = instance.add_entry(parent, "ou=u", ["orgUnit", "orgGroup", "top"],
                                    {"ou": ["u"]})
        if top_unit is None:
            top_unit = parent
        assert counts.steps - before <= depth - 1  # orgUnit: one child count
    assert counts.steps == 0
    person = ["person", "top"], {"uid": ["leaf"], "name": ["leaf person"]}

    leaf = instance.add_entry(parent, "uid=leaf", *person)
    assert counts.steps == DEPTH - 1  # one visit per ancestor
    assert counts.count(Axis.DESCENDANT, "person", instance.root_ids()[0]) == 1
    assert counts.count(Axis.CHILD, "orgUnit", instance.root_ids()[0]) == 1
    instance.delete_entry(leaf)
    assert counts.steps == 2 * (DEPTH - 1)
    assert counts.export()[(Axis.DESCENDANT, "person")] == {}

    # the guard refuses the leaf's delete on the path, and the undo
    # grafts it back at the same cost as the append
    instance.add_entry(parent, "uid=leaf", *person)
    guard = IncrementalChecker(schema, instance, assume_legal=True)
    before = counts.steps
    outcome = guard.try_delete(f"uid=leaf,{instance.dn_string_of(parent)}")
    assert not outcome.applied
    assert any(f"{DEPTH - 1} count lookup(s)" in c for c in outcome.checks)
    assert counts.steps - before == 2 * (DEPTH - 1)  # the prune and the restore
    assert_counts_exact(instance)

    # pruning the whole chain below the root: one visit (the root), and
    # the pruned entries' own counts go with them
    before = counts.steps
    instance.delete_subtree(top_unit)
    assert counts.steps - before == 1
    assert counts.export() == {
        (Axis.CHILD, "orgUnit"): {},
        (Axis.DESCENDANT, "person"): {},
    }


def test_store_and_view_instances_carry_counts(tmp_path):
    """The writer's instance and every view's carry the counts, kept
    exact through committed deletes, and a store delete takes the path
    plan while a bare instance runs the paper's full rows."""
    schema, registry = whitepages_schema(), whitepages_registry()
    data = generate_whitepages(orgs=2, seed=2, registry=registry)
    person = sorted(data.dn_string_of(e) for e in data.entries_with_class("person"))[0]
    with DirectoryStore.create(str(tmp_path / "s"), schema, data, registry) as store:
        view = open_view(str(tmp_path / "s"), schema, registry)
        assert view.check().is_legal  # arms the view's guard
        outcome = store.apply(UpdateTransaction().delete(person))
        assert outcome.applied
        assert any("path check for orgGroup →→ person" in c for c in outcome.checks)
        assert not any("full re-check" in c for c in outcome.checks)
        assert_counts_exact(store.instance)
        view.refresh()
        assert view.check().is_legal and view.full_checks == 1
        assert (instance_state(view.instance)["path_counts"]
                == instance_state(store.instance)["path_counts"])
        assert_counts_exact(view.instance)
        view.close()
