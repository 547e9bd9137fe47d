"""Experiment STRUCT — the batched structure-check engine.

Gates for :class:`repro.legality.structure_engine.StructureEngine`:

* **Batched flag propagation** — at ``|S| = 32`` flag-bound elements on
  a ~100k entry forest, evaluating the whole check set through the two
  shared bitmask sweeps must cost >= 3x fewer evaluator work units than
  the per-query checker's one-flag-pass-per-element strategy.  Reports
  must be byte-identical regardless.
* **Differential** — the batched engine, the per-query reduction, and
  the naive baseline agree verdict-for-verdict on randomized forests and
  randomized mixed-axis schemas.

``BENCH_STRUCTURE_SCALE`` scales the forest (1.0 -> ~100k entries; CI
smoke uses a small fraction).
"""

import os
import random
from functools import lru_cache

from repro.legality.structure import NaiveStructureChecker, QueryStructureChecker
from repro.legality.structure_engine import StructureEngine
from repro.model.instance import DirectoryInstance
from repro.schema.structure_schema import StructureSchema
from repro.workloads import random_forest

from _helpers import print_series

SCALE = float(os.environ.get("BENCH_STRUCTURE_SCALE", "1.0"))

#: 8 single-class labels -> every class holds ~n/8 entries, so the
#: adaptive evaluator picks the whole-forest flag pass for every
#: descendant/ancestor element at any scale.
LABELS = [f"k{i}" for i in range(8)]
CHAIN_DEPTH = 25


def _verdicts(report):
    """A report as the ordered verdict list (batched and per-query
    checkers must agree byte-for-byte, including order)."""
    return [(v.kind, v.message, v.dn, v.element) for v in report.violations]


@lru_cache(maxsize=None)
def _big_forest():
    """A tower-structured forest: chains of depth ~25, labels assigned
    round-robin (~n/8 members per class at every depth band)."""
    n = max(200, int(100_000 * SCALE))
    d = DirectoryInstance()
    i = 0
    while i < n:
        parent = None
        for _ in range(min(CHAIN_DEPTH, n - i)):
            d.add_entry(parent, f"o=e{i}", [LABELS[i % len(LABELS)], "top"])
            parent = f"o=e{i}" if parent is None else f"o=e{i},{parent}"
            i += 1
    return d


def _flag_bound_schema(n_elements=32):
    """``n_elements`` descendant/ancestor elements over the 8 labels —
    each would cost one whole-forest flag pass evaluated alone."""
    schema = StructureSchema()
    rng = random.Random(17)
    while len(schema.relationship_elements()) < n_elements:
        source, target = rng.sample(LABELS, 2)
        kind = rng.randrange(3)
        if kind == 0:
            schema.require_descendant(source, target)
        elif kind == 1:
            schema.require_ancestor(source, target)
        else:
            schema.forbid_descendant(source, target)
    assert len(schema.relationship_elements()) == n_elements
    return schema


# ----------------------------------------------------------------------
# gate 1: batched sweeps >= 3x cheaper than per-query flag passes
# ----------------------------------------------------------------------
def test_batched_beats_per_query_cost(benchmark):
    schema = _flag_bound_schema(32)
    instance = _big_forest()

    per_query = QueryStructureChecker(schema)
    query_report = per_query.check(instance)
    query_cost = per_query.last_cost

    engine = StructureEngine(schema)
    engine_report = engine.check(instance)
    batched_cost = engine.last_cost
    assert engine.last_batched == 32, (
        f"only {engine.last_batched} elements took the batched path"
    )
    assert engine.last_flag_passes <= 2

    assert _verdicts(engine_report) == _verdicts(query_report)

    ratio = query_cost / batched_cost if batched_cost else float("inf")
    print_series(
        "STRUCT: batched vs per-query cost",
        [
            (f"|D|={len(instance)}", f"|S|={len(schema)}"),
            (f"per-query cost={query_cost}",),
            (f"batched cost={batched_cost}",),
            (f"ratio={ratio:.2f}x",),
        ],
    )
    benchmark.extra_info["entries"] = len(instance)
    benchmark.extra_info["cost_ratio"] = round(ratio, 2)

    benchmark(lambda: engine.check(instance))
    assert ratio >= 3.0, (
        f"batched sweep should be >= 3x cheaper, got {ratio:.2f}x "
        f"({query_cost} vs {batched_cost} work units)"
    )


# ----------------------------------------------------------------------
# gate 2: randomized differential, three strategies
# ----------------------------------------------------------------------
def test_batched_per_query_naive_agree(benchmark):
    """The naive baseline is quadratic, so this gate runs on small
    random forests — many seeds, mixed axes and polarities."""
    rng = random.Random(23)
    axes_schema = None
    for trial in range(12):
        schema = StructureSchema()
        for _ in range(34):
            source, target = rng.sample(LABELS, 2)
            pick = rng.randrange(6)
            if pick == 0:
                schema.require_child(source, target)
            elif pick == 1:
                schema.require_descendant(source, target)
            elif pick == 2:
                schema.require_parent(source, target)
            elif pick == 3:
                schema.require_ancestor(source, target)
            elif pick == 4:
                schema.forbid_child(source, target)
            else:
                schema.forbid_descendant(source, target)
        schema.require_class(rng.choice(LABELS))
        axes_schema = schema
        instance = random_forest(
            n_entries=rng.randrange(40, 160), labels=LABELS, seed=trial
        )

        query_report = QueryStructureChecker(schema).check(instance)
        naive_report = NaiveStructureChecker(schema).check(instance)
        batched = StructureEngine(schema).check(instance)

        assert _verdicts(batched) == _verdicts(query_report)
        assert sorted(_verdicts(batched)) == sorted(_verdicts(naive_report))

    benchmark.extra_info["trials"] = 12
    checker = QueryStructureChecker(axes_schema)
    instance = random_forest(n_entries=120, labels=LABELS, seed=99)
    benchmark(lambda: checker.check(instance))
