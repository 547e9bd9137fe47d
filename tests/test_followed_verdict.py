"""Theorem 4.2 on the serving path, stated once: a reader's *followed*
verdict ≡ the full check of a freshly opened reader, and a writer's ≡ a
fresh full pass over its instance.

Once ``StoreReader.check()`` has found its view legal, the reader runs
every frame it replays through the incremental guard, and ``check()``
answers from that.  Everything here compares that answer with
``CheckSession.check`` over a reader opened from scratch at the same
position — same ``is_legal``, same violations — and pins the *work*:
a followed ``check()`` touches the session not at all, which is what
fails at a commit where the verdict does not follow the frames.

``DirectoryStore.check()`` (what a plain primary serves) follows the
same way (:class:`~repro.updates.incremental.FollowedVerdict`): every
write goes through its guard, a rejected one is rolled back, and only a
blind in-memory change — ``resolve_pending`` replaying an in-doubt
payload — brings the full pass back.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from invariants import canonical_records, followed_equals_full, state_digest
from repro.ldif.modify import ModifyOp, ModifyRecord, serialize_modification
from repro.legality.engine import CheckSession
from repro.model.dn import parse_dn
from repro.query.filter_parser import parse_filter
from repro.store import DirectoryStore, StoreReader, wal
from repro.store.index import AttributeIndexes
from repro.store.recovery import JOURNAL_FILE
from repro.store.sharded import CompositeReader, ShardedStore
from repro.updates.operations import UpdateTransaction
from repro.workloads import (
    figure1_instance,
    generate_whitepages,
    random_transaction,
    whitepages_registry,
    whitepages_schema,
)
from repro.workloads.update_streams import deletable_units, insertion_points


def strict_schema():
    """The white-pages schema plus one element the primary does not
    enforce: no staff member directly under an orgUnit.  Figure 1
    satisfies it; :func:`staff_tx` does not."""
    schema = whitepages_schema()
    schema.structure_schema.forbid_child("orgUnit", "staffMember")
    return schema.validate()


STAFF_DN = "uid=staff,ou=attLabs,o=att"


def staff_tx():
    return UpdateTransaction().insert(
        STAFF_DN,
        ["staffMember", "person", "top"],
        {"uid": ["staff"], "name": ["s taff"]},
    )


def person_tx(uid, parent="ou=attLabs,o=att"):
    return UpdateTransaction().insert(
        f"uid={uid},{parent}", ["person", "top"],
        {"uid": [uid], "name": [f"p {uid}"]},
    )


def make_store(tmp_path, name="store", schema=None):
    return DirectoryStore.create(
        str(tmp_path / name), schema or whitepages_schema(), figure1_instance(),
        whitepages_registry(),
    )


def open_reader(directory, schema=None):
    return StoreReader.open(
        directory, schema or whitepages_schema(), whitepages_registry()
    )


def violations(report):
    return sorted(str(violation) for violation in report)


def session_work(work):
    """Every unit of work a verdict can cost the checking session."""
    return (
        work.cache_hits + work.cache_misses + work.entries_checked
        + work.queries_evaluated + work.structure_checks
    )


def assert_check_matches_fresh(reader, directory, schema=None, was_legal=True):
    """``reader.check()`` held to :func:`invariants.followed_equals_full`
    against a reader opened now (``was_legal``: what this reader's
    previous report said)."""
    before = reader.session.stats.copy()
    report = reader.check()
    work = session_work(reader.session.stats.since(before))
    with open_reader(directory, schema) as fresh:
        assert fresh.position() == reader.position()
        full = fresh.check()
    followed_equals_full(report, full, work, was_legal)
    return report


def assert_writer_check_matches_fresh(store, was_legal=True):
    """``store.check()`` held to :func:`invariants.followed_equals_full`
    against a fresh :class:`CheckSession` pass over the writer's own
    instance."""
    before = store._guard.session.stats.copy()
    report = store.check()
    work = session_work(store._guard.session.stats.since(before))
    full = CheckSession(store.schema).check(store.instance)
    followed_equals_full(report, full, work, was_legal)
    return report


# ----------------------------------------------------------------------
# every position of the stress harness's writer stream
# ----------------------------------------------------------------------
def follow_writer_stream(tmp_path, transactions, compact_every, seed):
    """The stream of ``harness.stress.writer_main`` — same generator,
    same compaction cadence — stepped in-process so the reader can be
    stopped at every oracle position."""
    store = make_store(tmp_path)
    reader = open_reader(store._dir)
    try:
        assert reader.check().is_legal
        assert store.check().is_legal
        compactions = 0
        for i in range(transactions):
            tx = random_transaction(store.instance, inserts=2, seed=seed + i)
            assert store.apply(tx).applied
            reader.refresh()
            assert state_digest(reader.instance) == state_digest(store.instance)
            assert assert_check_matches_fresh(reader, store._dir).is_legal
            assert assert_writer_check_matches_fresh(store).is_legal
            if (i + 1) % compact_every == 0:
                store.compact()
                compactions += 1
                # a rebuilt instance: nothing vouches for it yet
                assert reader.refresh().rebootstrapped
                assert assert_check_matches_fresh(
                    reader, store._dir, was_legal=False
                ).is_legal
        # one full check at open, one per re-bootstrap; the rest followed
        assert reader.full_checks == 1 + compactions
        assert reader.followed_checks == transactions
        assert reader.bootstraps == 1 + compactions
        # a compaction rebuilds no writer instance: one full pass in all
        assert (store._verdict.full_checks, store._verdict.followed_checks) == (1, transactions)
    finally:
        reader.close()
        store.close()


def test_followed_equals_fresh_at_every_oracle_position(tmp_path):
    follow_writer_stream(tmp_path, transactions=45, compact_every=20, seed=20260806)


@pytest.mark.slow
def test_followed_equals_fresh_at_every_oracle_position_slow(tmp_path):
    follow_writer_stream(tmp_path, transactions=1000, compact_every=125, seed=9)


# ----------------------------------------------------------------------
# a Hypothesis stream of every frame kind
# ----------------------------------------------------------------------
def _frame(kind, pick, instance, serial):
    """One primary-side change of ``kind`` against the current state;
    ``pick`` chooses among the candidates.  ``None`` when the state
    offers no candidate."""
    def choose(candidates):
        return candidates[pick % len(candidates)] if candidates else None

    persons = sorted(
        instance.dn_string_of(eid) for eid in instance.entries_with_class("person")
    )
    if kind == "insert":
        parent = choose(insertion_points(instance))
        return person_tx(f"h{serial}", parent)
    if kind == "staff":  # legal for the primary, not under strict_schema()
        unit = choose(sorted(
            instance.dn_string_of(eid) for eid in instance.entries_with_class("orgUnit")
        ))
        return unit and UpdateTransaction().insert(
            f"uid=st{serial},{unit}", ["staffMember", "person", "top"],
            {"uid": [f"st{serial}"], "name": ["s t"]},
        )
    if kind == "subtree":
        parent = choose(insertion_points(instance))
        unit = f"ou=hu{serial},{parent}"
        return (
            UpdateTransaction()
            .insert(unit, ["orgUnit", "orgGroup", "top"], {"ou": [f"hu{serial}"]})
            .insert(f"uid=hm{serial},{unit}", ["person", "top"],
                    {"uid": [f"hm{serial}"], "name": ["h m"]})
        )
    if kind == "delete":
        target = choose(persons)
        return target and UpdateTransaction().delete(target)
    if kind == "prune":
        target = choose(deletable_units(instance))
        if target is None:
            return None
        root = instance.find(target)
        doomed = [root, *instance.descendants_of(root)]
        tx = UpdateTransaction()
        for entry in reversed(doomed):
            tx.delete(instance.dn_string_of(entry))
        return tx
    if kind == "modify":
        target = choose(persons)
        return target and ModifyRecord(
            parse_dn(target), (ModifyOp("replace", "name", (f"renamed {serial}",)),)
        )
    assert kind == "modrdn"
    # modrdn has no journal form; by Theorem 4.1 it is the delete of the
    # entry and its insertion under the new name, in one transaction.
    target = choose(persons)
    if target is None:
        return None
    entry = instance.find(target)
    parent = instance.dn_string_of(instance.parent_of(entry))
    attributes = {
        name: list(entry.values(name))
        for name in entry.attribute_names() if name != "objectClass"
    }
    attributes["uid"] = [f"r{serial}"]
    return (
        UpdateTransaction()
        .delete(target)
        .insert(f"uid=r{serial},{parent}", sorted(entry.classes), attributes)
    )


FRAME_KINDS = ["insert", "staff", "subtree", "delete", "prune", "modify", "modrdn"]


@settings(max_examples=20, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(FRAME_KINDS), st.integers(0, 1000)),
    min_size=1, max_size=12,
))
def test_followed_equals_fresh_under_a_frame_stream(tmp_path_factory, frames):
    """Same-schema follower: every committed frame passes its guard, so
    one full check serves the whole stream.  Strict follower: the same
    frames, some of which its schema rejects — applied anyway, verdict
    dropped, full check reports them.  Strict writer: a store under the
    strict schema asked the same changes rejects those and rolls them
    back, so its verdict follows the whole stream from one full pass."""
    tmp_path = tmp_path_factory.mktemp("frames")
    store = make_store(tmp_path)
    strict = strict_schema()
    writer = make_store(tmp_path, "strict", strict)
    same = open_reader(store._dir)
    stricter = open_reader(store._dir, strict)
    try:
        assert same.check().is_legal and stricter.check().is_legal
        assert writer.check().is_legal
        legal = {same: True, stricter: True}
        committed = 0
        for serial, (kind, pick) in enumerate(frames):
            change = _frame(kind, pick, writer.instance, serial)
            if change is not None:
                writer.stage(change).commit()  # kept or rolled back
                assert assert_writer_check_matches_fresh(writer).is_legal
            change = _frame(kind, pick, store.instance, serial)
            if change is None:
                continue
            outcome = store.stage(change).commit()
            if not outcome.applied:
                continue  # the primary's own guard refused: no frame
            committed += 1
            # (canonical: a delete the primary refused left its siblings
            # re-ordered in the primary's memory, never in any journal)
            expected = canonical_records(store.instance)
            for reader, schema in ((same, None), (stricter, strict)):
                reader.refresh()
                assert canonical_records(reader.instance) == expected
                legal[reader] = assert_check_matches_fresh(
                    reader, store._dir, schema, legal[reader]
                ).is_legal
        assert same.full_checks == 1
        assert same.followed_checks == committed
        assert writer._verdict.full_checks == 1
    finally:
        same.close()
        stricter.close()
        store.close()
        writer.close()


# ----------------------------------------------------------------------
# the reject path
# ----------------------------------------------------------------------
def test_rejected_frame_is_applied_and_costs_full_checks_until_legal(tmp_path):
    store = make_store(tmp_path)
    strict = strict_schema()
    with open_reader(store._dir, strict) as reader:
        assert reader.check().is_legal
        assert store.apply(person_tx("fine")).applied
        reader.refresh()
        assert assert_check_matches_fresh(reader, store._dir, strict).is_legal
        assert (reader.full_checks, reader.followed_checks) == (1, 1)

        # Committed history this view's schema rejects: applied blind,
        # verdict dropped, the full check names the offender.
        assert store.apply(staff_tx()).applied
        assert reader.refresh().frames_replayed == 1
        assert reader.instance.find(STAFF_DN) is not None
        report = assert_check_matches_fresh(reader, store._dir, strict)
        assert not report.is_legal
        assert any("staffMember" in line for line in violations(report))
        assert (reader.full_checks, reader.followed_checks) == (2, 1)

        # Illegal views never arm: later frames replay blind.
        assert store.apply(person_tx("later")).applied
        reader.refresh()
        assert not assert_check_matches_fresh(
            reader, store._dir, strict, was_legal=False
        ).is_legal
        assert (reader.full_checks, reader.followed_checks) == (3, 1)

        # Legal again: that takes a full check to find out, which re-arms.
        assert store.apply(UpdateTransaction().delete(STAFF_DN)).applied
        reader.refresh()
        assert assert_check_matches_fresh(
            reader, store._dir, strict, was_legal=False
        ).is_legal
        assert (reader.full_checks, reader.followed_checks) == (4, 1)
        assert store.apply(person_tx("after")).applied
        reader.refresh()
        assert assert_check_matches_fresh(reader, store._dir, strict).is_legal
        assert (reader.full_checks, reader.followed_checks) == (4, 2)
    store.close()


def test_rejected_write_leaves_the_writer_verdict_legal(tmp_path):
    """The writer's reject path: its guard refuses the change and rolls
    it back, so the verdict it follows still holds — every check after
    the first is followed, at no session work, and equals a fresh pass."""
    store = make_store(tmp_path, schema=strict_schema())
    try:
        assert store.check().is_legal
        for change, kept in (
            (person_tx("fine"), True), (staff_tx(), False), (person_tx("after"), True)
        ):
            assert store.apply(change).applied == kept
            assert assert_writer_check_matches_fresh(store).is_legal
        assert store.instance.find(STAFF_DN) is None
        assert (store._verdict.full_checks, store._verdict.followed_checks) == (1, 3)
    finally:
        store.close()


@pytest.mark.parametrize("verdict", ["commit", "abort"])
def test_resolve_pending_checks_the_writer_in_full_again(tmp_path, verdict):
    """An in-doubt prepare found at open is resolved by a blind replay of
    its payload (commit) — no guard vouches for that change, so the next
    check is a full pass; an abort changes nothing in memory, and the
    verdict goes on following."""
    directory = str(tmp_path / "store")
    store = make_store(tmp_path)
    store.stage(person_tx("doubt")).prepare("tx-1")
    store.close()  # a crash before the decide frame
    store = DirectoryStore.open(directory, whitepages_schema(), whitepages_registry())
    try:
        assert store.pending_txid == "tx-1"
        assert store.instance.find("uid=doubt,ou=attLabs,o=att") is None
        assert assert_writer_check_matches_fresh(store, was_legal=False).is_legal
        assert assert_writer_check_matches_fresh(store).is_legal
        assert (store._verdict.full_checks, store._verdict.followed_checks) == (1, 1)
        assert store.resolve_pending(verdict) == "tx-1"
        resolved = store.instance.find("uid=doubt,ou=attLabs,o=att")
        assert (resolved is not None) == (verdict == "commit")
        report = assert_writer_check_matches_fresh(
            store, was_legal=verdict == "abort"
        )
        assert report.is_legal
        assert store._verdict.full_checks == (2 if verdict == "commit" else 1)
        assert store.apply(person_tx("later")).applied
        assert assert_writer_check_matches_fresh(store).is_legal
    finally:
        store.close()


def test_a_search_between_writes_leaves_the_extras_probe_its_delta(
    tmp_path, monkeypatch
):
    """On a schema with Section 6.1 extras, a search and a check of the
    writer between two writes — both probe its indexes, and so flush
    their pending maintenance — leave the next write's extras probe the
    same delta (its dirty set, collected after the write), the same
    index work and the same verdict as a twin store asked no read."""
    schema = whitepages_schema(extras=True)
    collected = []
    delta_collect = AttributeIndexes.delta_collect

    def recorded(indexes):
        delta = delta_collect(indexes)
        collected.append(delta)
        return delta

    monkeypatch.setattr(AttributeIndexes, "delta_collect", recorded)
    #: Each write, and the ``uid=k*`` people a search finds after it.
    writes = [
        (person_tx("k1"), ["k1"]),
        (person_tx("k2"), ["k1", "k2"]),
        # a duplicate key: rejected by the extras probe
        (person_tx("k1", "ou=databases,ou=attLabs,o=att"), ["k1", "k2"]),
        (UpdateTransaction().delete("uid=k2,ou=attLabs,o=att"), ["k1"]),
    ]
    seen = {}
    for read in (True, False):
        collected.clear()
        store = make_store(tmp_path, f"extras-{read}", schema)
        outcomes = []
        try:
            assert store.check().is_legal
            for change, people in writes:
                outcome = store.apply(change)
                outcomes.append((
                    outcome.applied, violations(outcome.report),
                    outcome.stats.index_probes, outcome.stats.index_hits,
                    outcome.stats.index_candidates,
                ))
                if read:
                    found = store.plan_search(filter=parse_filter("(uid=k*)")).run()
                    assert sorted(e.values("uid")[0] for e in found) == people
                    assert store.check().is_legal
        finally:
            store.close()
        seen[read] = (list(collected), outcomes)
    assert seen[True] == seen[False]
    assert len(seen[True][0]) == len(writes)  # one settled probe per write
    assert [applied for applied, *_ in seen[True][1]] == [True, True, False, True]


def test_writer_verdict_follows_commits_in_delta_work(tmp_path):
    """The writer twin of the reader's work-unit gate: after one full
    pass, 60 one-entry commits cost the writer's session one content
    check per committed entry (Σ|Δ|, inside each write's guard), and the
    ``check()`` after each costs it nothing."""
    schema, registry = whitepages_schema(), whitepages_registry()
    instance = generate_whitepages(
        orgs=4, units_per_level=5, depth=2, persons_per_unit=10, seed=42
    )
    commits = 60
    with DirectoryStore.create(
        str(tmp_path / "writer"), schema, instance, registry
    ) as store:
        assert store.check().is_legal
        armed = store._guard.session.stats.copy()
        rng = random.Random(5)
        points = insertion_points(store.instance)
        for i in range(commits):
            assert store.apply(person_tx(f"gate{i}", rng.choice(points))).applied
            assert len(store.plan_search(filter=parse_filter(f"(uid=gate{i})")).run()) == 1
            before = store._guard.session.stats.copy()
            assert store.check().is_legal
            assert session_work(store._guard.session.stats.since(before)) == 0
        followed = store._guard.session.stats.since(armed)
        assert followed.entries_checked == commits  # Σ|Δ|
        assert followed.queries_evaluated > 0  # the Figure 5 Δ-queries did run
        assert (store._verdict.full_checks, store._verdict.followed_checks) == (1, commits)


def test_a_view_never_asked_for_a_verdict_replays_blind(tmp_path):
    store = make_store(tmp_path)
    with open_reader(store._dir) as reader:
        for i in range(5):
            assert store.apply(person_tx(f"q{i}")).applied
            reader.refresh()
        idle = reader.session.stats
        assert (idle.entries_checked, idle.queries_evaluated) == (0, 0)
        assert (reader.full_checks, reader.followed_checks) == (0, 0)
    store.close()


def test_reader_verdict_follows_commits_in_delta_work(tmp_path):
    """Work-unit gate: a reader's answer to a commit is O(|Δ|).

    60 one-entry commits against a reader of a ~1.3k-entry store that
    has checked once cost it one full check in total, one content check
    per committed entry (inside ``refresh()``, where the frame's Δ-check
    runs), no session work at all in the ``check()`` after each refresh,
    and no renumbering of the document order beyond the first.  The
    same commits against a reader nobody asked for a verdict cost no
    Δ-checks: it replays blind, as ever."""
    schema, registry = whitepages_schema(), whitepages_registry()
    path = str(tmp_path / "followed")
    instance = generate_whitepages(
        orgs=4, units_per_level=5, depth=2, persons_per_unit=10, seed=42
    )
    commits = 60
    with DirectoryStore.create(path, schema, instance, registry) as store, \
            open_reader(path) as checked, open_reader(path) as unasked:
        assert checked.check().is_legal
        armed = checked.session.stats.copy()
        rng = random.Random(5)
        points = insertion_points(store.instance)
        for i in range(commits):
            assert store.apply(person_tx(f"gate{i}", rng.choice(points))).applied
            for reader in (checked, unasked):
                assert reader.refresh(strict=True).frames_replayed == 1
                # index-planned, so it sorts by document order
                assert len(reader.search(filter=f"(uid=gate{i})")) == 1
            before = checked.session.stats.copy()
            assert checked.check().is_legal
            idle = checked.session.stats.since(before)
            assert idle.queries_evaluated == 0 and idle.structure_checks == 0
            assert idle.cache_hits + idle.cache_misses + idle.entries_checked == 0
        followed = checked.session.stats.since(armed)
        assert followed.entries_checked == commits  # Σ|Δ|
        assert followed.queries_evaluated > 0  # the Figure 5 Δ-queries did run
        assert (checked.full_checks, checked.followed_checks) == (1, commits)
        assert (unasked.full_checks, unasked.followed_checks) == (0, 0)
        assert unasked.session.stats.entries_checked == 0
        assert unasked.session.stats.queries_evaluated == 0
        assert checked.instance.renumbers == unasked.instance.renumbers == 1


def test_multi_record_modify_frame_with_one_rejected_record(tmp_path):
    """A frame of three modify records whose second the strict schema
    rejects: all three land, the verdict drops at the second."""
    store = make_store(tmp_path)
    assert store.apply(person_tx("mod")).applied
    target = parse_dn("uid=mod,ou=attLabs,o=att")
    records = [
        ModifyRecord(target, (ModifyOp("replace", "name", ("m od",)),)),
        ModifyRecord(target, (ModifyOp("add", "objectClass", ("staffMember",)),)),
        ModifyRecord(
            parse_dn("uid=suciu,ou=databases,ou=attLabs,o=att"),
            (ModifyOp("replace", "name", ("after the reject",)),),
        ),
    ]
    strict = strict_schema()
    same = open_reader(store._dir)
    stricter = open_reader(store._dir, strict)
    try:
        assert same.check().is_legal and stricter.check().is_legal
        frame = wal.encode_record(
            store.journal_length + 1, store.generation,
            "\n".join(serialize_modification(record) for record in records),
        )
        store.close()  # the store journals one record per frame; append by hand
        with open(f"{store._dir}/{JOURNAL_FILE}", "ab") as journal:
            journal.write(frame)
        for reader in (same, stricter):
            assert reader.refresh().frames_replayed == 1
            modified = reader.instance.find(str(target))
            assert modified.values("name") == ("m od",)
            assert modified.belongs_to("staffMember")
            suciu = reader.instance.find("uid=suciu,ou=databases,ou=attLabs,o=att")
            assert suciu.values("name") == ("after the reject",)
        assert assert_check_matches_fresh(same, store._dir).is_legal
        assert (same.full_checks, same.followed_checks) == (1, 1)
        assert not assert_check_matches_fresh(stricter, store._dir, strict).is_legal
        assert (stricter.full_checks, stricter.followed_checks) == (2, 0)
    finally:
        same.close()
        stricter.close()


# ----------------------------------------------------------------------
# sharded: a spanning #PREPARE/#DECIDE pair through the composite
# ----------------------------------------------------------------------
def test_spanning_pair_is_followed_by_every_shard_view(tmp_path):
    schema, registry = whitepages_schema(), whitepages_registry()
    path = str(tmp_path / "sharded")
    store = ShardedStore.create(
        path, schema, {"att": "o=att", "labs": "ou=attLabs,o=att"},
        figure1_instance(), registry,
    )
    try:
        with CompositeReader.open(path, schema, registry) as reader:
            assert reader.check().is_legal
            tx = person_tx("a", "o=att")
            tx.insert("uid=b,ou=attLabs,o=att", ["person", "top"],
                      {"uid": ["b"], "name": ["b b"]})
            outcome = store.apply(tx)
            assert outcome.applied and any("2pc" in c for c in outcome.checks)
            reader.refresh()
            assert reader.position() == {"att": (1, 2), "labs": (1, 2)}
            shards = [reader.shard_reader(name) for name in ("att", "labs")]
            before = [shard.session.stats.copy() for shard in shards]
            report = reader.check()
            work = sum(
                session_work(shard.session.stats.since(baseline))
                for shard, baseline in zip(shards, before)
            )
            for shard in shards:
                assert (shard.full_checks, shard.followed_checks) == (1, 1)
            # each shard Δ-checked its own half of the pair: one entry
            assert report.stats.entries_checked == 2
            with CompositeReader.open(path, schema, registry) as fresh:
                full = fresh.check()
            assert report.is_legal
            followed_equals_full(report, full, work)
    finally:
        store.close()
