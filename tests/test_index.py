"""Secondary indexes (:mod:`repro.store.index`).

Two properties matter and both are tested differentially against the
naive scan:

* **Planner soundness.**  The index-aware planner must never change
  what a search returns — only what it costs.  Unplannable shapes
  (``Not``, ``Approx``, the ordering filters, non-string equality)
  fall back cleanly, and randomized filter trees over an instance with
  deliberately mixed-typed values (the ``_comparable`` edges) produce
  byte-identical results with and without indexes.

* **Lifecycle.**  Nothing is persisted: every open derives the
  postings from its instance, a lock-free reader following the WAL
  across a compaction keeps its indexes in agreement with the scan
  oracle, and a postings file an older store left beside its snapshot
  changes nothing and is gone after the next compaction.

Postings are sorted id lists, and two more properties pin that down:
incremental maintenance leaves every posting strictly increasing and
equal to what a rebuild derives, and the lists take well under half the
memory of the ``set`` postings they replaced.  A copy costs its live
size: opening one allocates little beyond what it keeps, the indexes
hold no per-entry snapshot between changes, and equal class sets are
one object.
"""

from __future__ import annotations

import itertools
import os
import random
import tracemalloc

import pytest

from repro.model.types import INTEGER
from repro.query.filters import (
    And,
    Approx,
    Equals,
    GreaterOrEqual,
    LessOrEqual,
    Not,
    Or,
    Present,
    Substring,
)
from repro.query.evaluator import FilterPlanner
from repro.query.filter_parser import parse_filter
from repro.query.search import search
from repro.store import DirectoryStore
from repro.store.index import AttributeIndexes, PostingView
from repro.store.recovery import LEFTOVER_FILES
from repro.store.reader import StoreReader
from repro.updates.operations import UpdateTransaction
from repro.workloads import (
    generate_whitepages,
    whitepages_registry,
    whitepages_schema,
)

from growth import fit_growth
from invariants import postings_by_dn, probe_every_gram


def naive(instance, filt, **scoped):
    """The scan oracle: the same search with indexes detached."""
    indexes = instance.indexes
    instance.indexes = None
    try:
        return [str(e.dn) for e in search(instance, filter=filt, **scoped)]
    finally:
        instance.indexes = indexes


def indexed(instance, filt, **scoped):
    """The planned search, as DN strings for comparison."""
    return [str(e.dn) for e in search(instance, filter=filt, **scoped)]


@pytest.fixture()
def instance():
    """A generated instance with indexes attached plus a handful of
    entries holding *integer* values, so comparisons between stored
    values and string operands exercise every ``_comparable`` branch."""
    registry = whitepages_registry()
    registry.declare("score", INTEGER)
    built = generate_whitepages(
        orgs=1, units_per_level=2, depth=1, persons_per_unit=3,
        seed=11, registry=registry,
    )
    org = built.find("o=org0")
    for i, score in enumerate((5, 17, 200)):
        built.add_entry(
            org, f"uid=scored{i}", ["person", "top"],
            {"uid": [f"scored{i}"], "name": [f"scored {i}"], "score": [score]},
        )
    AttributeIndexes.attach(built, frozenset({"uid"}), frozenset())
    return built


class TestPlannerFallback:
    def test_unplannable_shapes_return_none(self, instance):
        planner = FilterPlanner(instance.indexes)
        for filt in (
            Approx("name", "scored"),
            GreaterOrEqual("score", 5),
            LessOrEqual("score", "17"),
            Not(Equals("uid", "scored0")),
            Equals("score", 5),  # non-string operand: text probe unsound
            And(()),  # TRUE: everything matches, nothing bounds it
            Present("objectClass"),  # vacuous: every entry has it
        ):
            assert planner.plan(filt) is None, f"expected no plan for {filt}"

    def test_false_filter_plans_empty(self, instance):
        assert FilterPlanner(instance.indexes).plan(Or(())) == set()

    def test_equality_and_substring_plans_bound_the_scan(self, instance):
        planner = FilterPlanner(instance.indexes)
        plan = planner.plan(Equals("uid", "scored1"))
        assert plan is not None and len(plan) == 1
        plan = planner.plan(Substring("uid", initial="scored"))
        assert plan is not None and len(plan) == 3
        # And needs one plannable conjunct; Or needs every disjunct.
        assert planner.plan(
            And((GreaterOrEqual("score", 5), Equals("uid", "scored1")))
        ) is not None
        assert planner.plan(
            Or((GreaterOrEqual("score", 5), Equals("uid", "scored1")))
        ) is None

    def test_fallback_shapes_still_answer_correctly(self, instance):
        for filt, expected in (
            (GreaterOrEqual("score", 17), {"uid=scored1,o=org0", "uid=scored2,o=org0"}),
            (LessOrEqual("score", "17"), {"uid=scored0,o=org0", "uid=scored1,o=org0"}),
            (Approx("name", "SCORED 0"), {"uid=scored0,o=org0"}),
            # A string operand that cannot coerce to int matches nothing.
            (GreaterOrEqual("score", "banana"), set()),
            # A string equality still matches the text form of an int.
            (Equals("score", "200"), {"uid=scored2,o=org0"}),
        ):
            assert set(indexed(instance, filt)) == expected
            assert indexed(instance, filt) == naive(instance, filt)


def _random_filter(rng: random.Random, vocabulary, depth: int):
    """A random filter tree mixing plannable and unplannable shapes."""
    attribute = rng.choice(
        ["uid", "name", "objectClass", "telephoneNumber", "mail", "score"]
    )
    value = rng.choice(vocabulary)
    if depth > 0 and rng.random() < 0.45:
        width = rng.randint(0, 3)
        children = tuple(
            _random_filter(rng, vocabulary, depth - 1) for _ in range(width)
        )
        return rng.choice(
            [And(children), Or(children), Not(_random_filter(rng, vocabulary, 0))]
        )
    kind = rng.randrange(6)
    if kind == 0:
        return Equals(attribute, value)
    if kind == 1:
        return Present(attribute)
    if kind == 2:
        text = value if isinstance(value, str) else str(value)
        middle = len(text) // 2
        return rng.choice(
            [
                Substring(attribute, initial=text[:middle]),
                Substring(attribute, final=text[middle:]),
                Substring(attribute, any_parts=(text[1:-1],) if len(text) > 2 else (text,)),
            ]
        )
    if kind == 3:
        return GreaterOrEqual(attribute, value)
    if kind == 4:
        return LessOrEqual(attribute, value)
    return Approx(attribute, value if isinstance(value, str) else str(value))


class TestPlannerDifferential:
    def test_randomized_trees_match_the_naive_scan(self, instance):
        vocabulary = ["u1", "u2", "scored1", "200", "banana", "", "or", 5, 17, 0]
        for eid in sorted(instance.entry_ids())[:10]:
            vocabulary.extend(
                str(v) for v in instance.entry(eid).values("uid")
            )
        for seed in range(150):
            rng = random.Random(seed)
            filt = _random_filter(rng, vocabulary, depth=3)
            assert indexed(instance, filt) == naive(instance, filt), (
                f"planner diverged from scan for {filt} (seed {seed})"
            )


    def test_scoped_searches_match_the_naive_scan(self, instance):
        """Every scope and size limit over a directory that keeps
        changing: the planner walks the smaller of scope and candidate
        set, in the maintained document order, and neither choice may
        show in the results."""
        vocabulary = ["u1", "u2", "scored1", "200", "or", 5]
        rng = random.Random(7)
        added = []
        for step in range(200):
            if step % 4 == 0:
                groups = sorted(instance.entries_with_class("orgGroup"))
                parent = instance.entry(rng.choice(groups))
                added.append(instance.add_entry(
                    parent, f"uid=s{step}", ["person", "top"],
                    {"uid": [f"s{step}"], "name": [f"scoped {step}"]},
                ))
            elif step % 4 == 2 and rng.random() < 0.5:
                instance.delete_entry(added.pop(rng.randrange(len(added))))
            base = rng.choice([None, *(str(e.dn) for e in instance)])
            scoped = dict(
                base=base,
                scope=rng.choice(["base", "one", "sub", "children"]),
                size_limit=rng.choice([None, None, 1, 3]),
            )
            filt = _random_filter(rng, vocabulary, depth=2)
            assert indexed(instance, filt, **scoped) == naive(
                instance, filt, **scoped
            ), f"planner diverged from scan for {filt} under {scoped}"

    def test_small_scope_is_walked_instead_of_the_candidates(
        self, instance, monkeypatch
    ):
        """``(objectClass=person)`` one level under a unit: probed as
        ever (the probe count is a benchmark metric), then judged on the
        unit's three children, not on every person of the directory —
        and the posting is weighed, never iterated (nor copied)."""
        judged, iterated = [], []
        iterate = PostingView.__iter__
        monkeypatch.setattr(
            PostingView, "__iter__",
            lambda view: iterated.append(len(view)) or iterate(view),
        )

        class Judged(Equals):
            def matches(self, entry):
                judged.append(entry.eid)
                return super().matches(entry)

        unit = next(
            e for e in instance if e.belongs_to("orgUnit")
        )
        filt = Judged("objectClass", "person")
        persons = len(instance.entries_with_class("person"))
        probes = instance.indexes.counters()[0]
        found = search(instance, base=str(unit.dn), scope="one", filter=filt)
        assert instance.indexes.counters()[0] == probes + 1
        assert len(found) == len(judged) == 3 < persons
        assert iterated == []
        del judged[:]
        assert len(search(instance, filter=filt)) == persons == len(judged)
        assert iterated == [persons]  # the directory-wide search walks it


#: A 10x span in |D| (~160 to ~1450 entries; persons dominate).
LADDER = (1, 2, 4, 10)
#: The needle every rung carries: its uid shares no trigram with the
#: generator's dense ``u<number>`` uids, so a probe for it measures
#: selectivity, not directory size.
NEEDLE = "zqxprobe"


def _rung(rung):
    return generate_whitepages(
        orgs=1, units_per_level=3, depth=2, persons_per_unit=12 * rung, seed=7
    )


class TestWorkAcrossTheLadder:
    """The counters are deterministic, so the sublinearity the indexes
    exist for is asserted on them: across a 10x ladder the work fits an
    exponent < 1 in |D| (a scan fits 1)."""

    def test_search_work_is_sublinear_and_results_match_the_scan(self):
        sizes, work = [], {"equality": [], "substring": []}
        for rung in LADDER:
            built = _rung(rung)
            built.add_entry(
                built.find("o=org0"), f"uid={NEEDLE}", ["person", "top"],
                {"uid": [NEEDLE], "name": ["probe person"]},
            )
            AttributeIndexes.attach(built, frozenset(), frozenset())
            sizes.append(len(built))
            eids = sorted(built.entry_ids())
            uid = next(  # mid-directory: its trigrams collide with neighbours
                str(built.entry(eid).values("uid")[0])
                for eid in eids[len(eids) // 2:] if built.entry(eid).values("uid")
            )
            for label, text in {
                "equality": f"(uid={NEEDLE})",
                "substring": f"(uid=*{NEEDLE[1:-1]}*)",
                "colliding-substring": f"(uid=*{uid[-3:]}*)",
                "and": f"(&(objectClass=person)(uid={uid}))",
                "or": f"(|(uid={uid})(uid={NEEDLE}))",
            }.items():
                filt = parse_filter(text)
                before = built.indexes.counters()
                found = indexed(built, filt)
                probes, _, candidates = (
                    n - b for n, b in zip(built.indexes.counters(), before)
                )
                # same entries, same document order, every shape, every rung
                assert found == naive(built, filt), (text, len(built))
                if label in work:
                    work[label].append(probes + candidates)
        for label, series in work.items():
            assert fit_growth(sizes, series) < 1.0, (label, sizes, series)

    def test_extras_delta_probe_work_is_sublinear(self, tmp_path):
        """With ``uid`` a Section 6.1 key, accepting a fresh insert and
        rejecting a duplicate both cost index probes bounded by the
        transaction, not the directory."""
        schema = whitepages_schema(extras=True)
        sizes, work = [], []

        def insert(uid, key):
            return UpdateTransaction().insert(
                f"uid={uid},o=org0", ["person", "top"],
                {"uid": [key], "name": ["delta probe"]},
            )

        for rung in LADDER:
            with DirectoryStore.create(
                str(tmp_path / f"rung{rung}"), schema, _rung(rung)
            ) as store:
                sizes.append(len(store.instance))
                taken = str(store.instance.entry(
                    max(store.instance.entry_ids())
                ).values("uid")[0])
                accepted = store.apply(insert("fresh0", "fresh0"))
                rejected = store.apply(insert("fresh1", taken))
                assert accepted.applied and not rejected.applied
                work.append(sum(
                    outcome.stats.index_probes + outcome.stats.index_candidates
                    for outcome in (accepted, rejected)
                ))
        assert fit_growth(sizes, work) < 1.0, (sizes, work)


SAMPLE_FILTERS = (
    "(uid=u1)",
    "(uid=*1*)",
    "(&(objectClass=person)(name=*a*))",
    "(|(uid=u1)(uid=u2))",
    "(telephoneNumber=*)",
)


def _agrees_with_oracle(instance):
    """Every sample filter answers identically with and without
    indexes on ``instance``."""
    for text in SAMPLE_FILTERS:
        filt = parse_filter(text)
        if indexed(instance, filt) != naive(instance, filt):
            return False
    return True


class TestIndexLifecycle:
    def test_a_leftover_index_file_is_ignored_and_compacted_away(self, tmp_path):
        """A store directory holding the postings file older stores
        wrote opens, serves and checks exactly like one created from the
        same instance without it, and its next compaction deletes the
        file."""
        schema = whitepages_schema(extras=True)
        paths = [str(tmp_path / name) for name in ("leftover", "clean")]
        instance = generate_whitepages(
            orgs=1, units_per_level=2, depth=1, persons_per_unit=3, seed=11
        )
        for path in paths:
            DirectoryStore.create(path, schema, instance.copy()).close()
        assert "indexes.cache" in LEFTOVER_FILES
        leftover = os.path.join(paths[0], "indexes.cache")
        with open(leftover, "w", encoding="utf-8") as fh:
            fh.write('{"format": 1, "postings": {"dns": []}}')
        answers = []
        for path in paths:
            with DirectoryStore.open(path, schema) as store:
                assert store.apply(
                    UpdateTransaction().insert(
                        "uid=late,o=org0", ["person", "top"],
                        {"uid": ["late"], "name": ["late one"]},
                    )
                ).applied
                assert _agrees_with_oracle(store.instance)
                view = StoreReader.open(path, schema)
                try:
                    answers.append((
                        postings_by_dn(store.instance.indexes),
                        postings_by_dn(view.instance.indexes),
                        [indexed(view.instance, parse_filter(text))
                         for text in SAMPLE_FILTERS],
                        [str(v) for v in view.check()],
                        [str(v) for v in store.check()],
                    ))
                finally:
                    view.close()
                if path == paths[0]:
                    assert os.path.exists(leftover)
                    store.compact()
                    assert not os.path.exists(leftover)
        assert answers[0] == answers[1]
        assert answers[0][0] == answers[0][1]

    def test_reader_follows_wal_across_compaction(self, tmp_path):
        schema = whitepages_schema(extras=True)
        path = str(tmp_path / "followed")
        store = DirectoryStore.create(
            path, schema,
            generate_whitepages(orgs=1, units_per_level=2, depth=1,
                                persons_per_unit=3, seed=11),
        )
        reader = StoreReader.open(path, schema)
        try:
            for i in range(3):
                assert store.apply(
                    UpdateTransaction().insert(
                        f"uid=live{i},o=org0", ["person", "top"],
                        {"uid": [f"live{i}"], "name": [f"live {i}"]},
                    )
                ).applied
            reader.refresh()
            assert indexed(reader.instance, None) != []
            assert _agrees_with_oracle(reader.instance)
            assert indexed(
                reader.instance, parse_filter("(uid=live2)")
            ) == ["uid=live2,o=org0"]
            # Compact (new generation, fresh snapshot), delete one
            # entry, add another: the reader re-bootstraps and its
            # indexes must still agree with the oracle.
            store.compact()
            assert store.apply(
                UpdateTransaction().delete("uid=live0,o=org0")
            ).applied
            reader.refresh()
            assert _agrees_with_oracle(reader.instance)
            filt = Equals("uid", "live0")
            assert indexed(reader.instance, filt) == []
            assert naive(reader.instance, filt) == []
        finally:
            reader.close()
            store.close()


def _postings(indexes):
    """Every posting of ``indexes``: ``{(table, attribute, key): ids}``,
    the 3-gram postings of every held attribute included."""
    probe_every_gram(indexes)
    flat = {
        ("present", attribute, None): posting
        for attribute, posting in indexes._present.items()
    }
    for table in ("_eq", "_grams", "_keys", "_refs"):
        for attribute, bucket in getattr(indexes, table).items():
            for key, posting in bucket.items():
                flat[table, attribute, key] = posting
    return flat


class TestGramsOnFirstProbe:
    """An attribute's 3-gram postings are derived on its first substring
    probe, not at open, and maintained from then on."""

    def test_a_copy_holds_grams_only_for_what_was_probed(self, tmp_path):
        schema = whitepages_schema(extras=True)
        path = str(tmp_path / "store")
        DirectoryStore.create(path, schema, generate_whitepages(
            orgs=1, units_per_level=2, depth=1, persons_per_unit=3, seed=11
        )).close()

        def person(uid, name):
            return UpdateTransaction().insert(
                f"uid={uid},o=org0", ["person", "top"],
                {"uid": [uid], "name": [name]},
            )

        with DirectoryStore.open(path, schema) as store, \
                StoreReader.open(path, schema) as view:
            copies = (store.instance, view.instance)
            assert store.apply(person("w1", "walter")).applied
            view.refresh()
            for copy in copies:
                copy.indexes.delta_checkpoint()
                assert copy.indexes._grams == {}
                assert copy.indexes._present  # the eager postings are there
            for copy in copies:
                filt = parse_filter("(name=*x*)")
                assert indexed(copy, filt) == naive(copy, filt)
                assert set(copy.indexes._grams) == {"name"}
            assert store.apply(person("x1", "xavier")).applied
            view.refresh()
            for copy in copies:
                filt = parse_filter("(name=*avie*)")
                found = indexed(copy, filt)
                assert found == naive(copy, filt) == ["uid=x1,o=org0"]
                assert set(copy.indexes._grams) == {"name"}
                assert copy.indexes._grams["name"]["avi"]


class TestPostingMaintenance:
    """Incremental maintenance of the sorted id lists, differentially:
    after every step of a seeded mutation stream each posting is
    strictly increasing and equals what :meth:`AttributeIndexes.rebuild`
    derives from the live entries — in the same instance, and, DN for
    DN, in a copy that numbers its entries in document order, as a
    reader bootstrapped from the snapshot does.  The stream mixes in
    substring probes, so gram postings derived mid-batch are held to
    the rebuild too."""

    KEYS = frozenset({"uid"})
    REFS = frozenset({"seeAlso"})

    def _assert_exact(self, indexes, step):
        indexes.delta_checkpoint()  # fold the pending maintenance in
        assert not indexes._old, f"step {step}: a flush kept unindex snapshots"
        held = _postings(indexes)
        for instance in (indexes.instance, indexes.instance.copy()):
            rebuilt = AttributeIndexes(instance, self.KEYS, self.REFS)
            rebuilt.rebuild()
            derived = _postings(rebuilt)
            for where, posting in derived.items():
                assert posting and all(
                    a < b for a, b in zip(posting, posting[1:])
                ), f"step {step}: {where} is not strictly increasing: {posting}"
            if instance is indexes.instance:
                assert held == derived, f"step {step}: maintenance disagrees"
            else:
                assert postings_by_dn(rebuilt) == postings_by_dn(indexes), (
                    f"step {step}: a copy's rebuild disagrees"
                )

    @staticmethod
    def _mutate(instance, rng, serial):
        persons = sorted(instance.entries_with_class("person"))
        units = sorted(instance.entries_with_class("orgUnit"))
        dns = [instance.dn_string_of(eid) for eid in instance.entry_ids()]
        kind = rng.choice(
            ["add", "add", "delete", "modify", "empty", "class", "subtree", "probe"]
        )
        if kind == "probe":  # mid-batch: derives or folds in grams lazily
            attribute = rng.choice(["name", "uid", "score", "seeAlso", "mail"])
            chunk = rng.choice(["son", "ali", "p1", "er", "1 2"])
            candidates = set(instance.indexes.substring_candidates(attribute, [chunk]))
            assert candidates >= {
                entry.eid for entry in instance
                if any(chunk in str(v) for v in entry.values(attribute))
            }
        elif kind == "add" or not persons:
            n = next(serial)
            # a shared uid puts several ids on one key posting
            uid = f"p{n}" if rng.random() < 0.7 else rng.choice(["dup", "twin"])
            attributes = {
                "uid": [uid],
                "name": [f"person {n}", f"alias {n % 5}"][: rng.randint(1, 2)],
                "score": [rng.randint(0, 30)],
            }
            if rng.random() < 0.5:
                attributes["seeAlso"] = [rng.choice(dns + ["not a dn"])]
            instance.add_entry(
                rng.choice(units), f"uid=n{n}", ["person", "top"], attributes
            )
        elif kind == "delete":
            instance.delete_entry(rng.choice(persons))
        elif kind == "modify":  # an older id re-indexed: an insert, not an append
            entry = instance.entry(rng.choice(persons))
            entry.add_value("name", f"renamed {next(serial)}")
            entry.replace_values("score", [rng.randint(0, 30)])
            if rng.random() < 0.5:
                entry.replace_values("seeAlso", [rng.choice(dns)])
        elif kind == "empty":  # every value of an attribute removed
            entry = instance.entry(rng.choice(persons))
            for value in entry.values("name"):
                entry.remove_value("name", value)
        elif kind == "class":
            entry = instance.entry(rng.choice(persons))
            if entry.belongs_to("manager"):
                entry.remove_class("manager")
            else:
                entry.add_class("manager")
        else:  # a subtree deleted and re-added under the same DN: new ids
            unit = rng.choice(units)
            parent = instance.parent_id(unit)
            instance.insert_subtree(parent, instance.delete_subtree(unit))

    def test_seeded_stream_keeps_every_posting_exact(self):
        registry = whitepages_registry()
        registry.declare("score", INTEGER)
        registry.declare("seeAlso")
        instance = generate_whitepages(
            orgs=1, units_per_level=2, depth=1, persons_per_unit=3,
            seed=11, registry=registry,
        )
        indexes = AttributeIndexes.attach(instance, self.KEYS, self.REFS)
        self._assert_exact(indexes, "attach")
        rng, serial = random.Random(30), itertools.count()
        for step in range(150):
            for _ in range(rng.randint(1, 3)):  # several changes per flush
                self._mutate(instance, rng, serial)
            self._assert_exact(indexes, step)
        postings = _postings(indexes)
        assert any(len(ids) > 1 for where, ids in postings.items() if where[0] == "_keys")
        assert any(where[0] == "_refs" for where in postings)


def test_list_postings_take_at_most_half_of_sets():
    """The memory the sorted-list layout exists for, as a ratio (an
    absolute byte count differs across Python versions): the postings
    :meth:`AttributeIndexes.attach` builds, and every attribute's gram
    postings, take at most half of what the same postings take as
    ``set``s."""
    instance = generate_whitepages(
        orgs=1, units_per_level=3, depth=2, persons_per_unit=40, seed=7
    )

    def as_sets(table):
        return {
            key: set(value) if isinstance(value, list) else as_sets(value)
            for key, value in table.items()
        }

    tracemalloc.start()
    try:
        indexes = AttributeIndexes.attach(instance, frozenset({"uid"}), frozenset())
        probe_every_gram(indexes)  # the gram postings are measured too
        tables = [getattr(indexes, name) for name in
                  ("_eq", "_present", "_grams", "_keys", "_refs")]
        before = tracemalloc.get_traced_memory()[0]
        sets = [as_sets(table) for table in tables]
        set_bytes = tracemalloc.get_traced_memory()[0] - before
        # Dropping the list postings frees their containers; the keys
        # stay, shared with the set copies, so neither side counts them.
        before = tracemalloc.get_traced_memory()[0]
        indexes._eq = indexes._present = indexes._grams = {}
        indexes._keys = indexes._refs = {}
        del tables
        list_bytes = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sets and list_bytes > 0
    assert list_bytes <= set_bytes / 2, (list_bytes, set_bytes)


class TestACopyCostsItsLiveSize:
    """Ratio gates, not byte counts (those differ across Python
    versions): what a served copy allocates and keeps beyond its
    instance and postings."""

    @pytest.fixture()
    def store_dir(self, tmp_path):
        """An indexed white-pages store (Section 6.1 extras, so the key
        and referential postings are live) with a committed journal."""
        schema = whitepages_schema(extras=True)
        path = str(tmp_path / "store")
        with DirectoryStore.create(
            path, schema,
            generate_whitepages(orgs=2, units_per_level=3, depth=2,
                                persons_per_unit=40, seed=7),
        ) as store:
            for i in range(5):
                assert store.apply(UpdateTransaction().insert(
                    f"uid=j{i},o=org0", ["person", "top"],
                    {"uid": [f"j{i}"], "name": [f"journal {i}"]},
                )).applied
        return path, schema

    def test_open_peaks_near_what_it_retains(self, store_dir):
        """A :meth:`StoreReader.open` of the store peaks at most 1.15x
        the bytes it keeps: its transients (the snapshot text, the
        journal scan, each entry's values while it is indexed) are small
        beside the copy itself."""
        path, schema = store_dir
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            reader = StoreReader.open(path, schema)
            retained, peak = tracemalloc.get_traced_memory()
            retained -= before
            peak -= before
        finally:
            tracemalloc.stop()
        try:
            assert len(reader.instance) > 900
            assert peak <= 1.15 * retained, (peak, retained, peak / retained)
        finally:
            reader.close()

    def test_no_unindex_snapshot_outlives_a_flush(self, store_dir):
        """After an open, and after every flush, the indexes hold no
        entry's values; between a change and its flush they hold the
        changed entries' old values, and only theirs."""
        path, schema = store_dir
        with DirectoryStore.open(path, schema) as store:
            reader = StoreReader.open(path, schema)
            try:
                for instance in (store.instance, reader.instance):
                    indexes = instance.indexes
                    assert indexes._old == {}
                    person = instance.find("uid=j1,o=org0")
                    person.add_value("name", "renamed")
                    person.add_value("name", "renamed twice")
                    unit = instance.find(str(instance.entry(
                        next(iter(instance.entries_with_class("orgUnit")))).dn))
                    fresh = instance.add_entry(
                        unit, "uid=fresh", ["person", "top"],
                        {"uid": ["fresh"], "name": ["fresh one"]},
                    )
                    fresh.add_class("manager")
                    assert set(indexes._old) == {person.eid}
                    assert indexes._old[person.eid]["name"] == ("journal 1",)
                    instance.delete_entry(person)
                    assert set(indexes._old) == {person.eid}
                    assert indexes.equality_candidates("uid", "fresh")
                    assert not indexes.equality_candidates("uid", "j1")
                    assert indexes._old == {}
            finally:
                reader.close()

    def test_equal_class_sets_are_one_object(self, store_dir):
        """Entries with equal class sets share one frozenset, also after
        a class is added and removed again."""
        path, schema = store_dir
        reader = StoreReader.open(path, schema)
        try:
            instance = reader.instance
            by_value = {}
            for entry in instance:
                assert isinstance(entry.classes, frozenset)
                assert by_value.setdefault(entry.classes, entry.classes) is entry.classes
            assert 20 * len(by_value) < len(instance)
            first, second = [
                instance.entry(eid)
                for eid in sorted(instance.entries_with_class("person"))
                if instance.entry(eid).classes == {"person", "top"}
            ][:2]
            first.add_class("manager")
            assert first.classes is not second.classes
            first.remove_class("manager")
            assert first.classes is second.classes
        finally:
            reader.close()
