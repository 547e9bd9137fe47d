"""Section 6.1 extras over the sharded store.

PR 8 lifts the historical refusal: a schema declaring directory-wide
keys now shards, with global key uniqueness enforced at the composite
check step by merging per-shard index probes (O(|Delta|), riding the
same transaction machinery as the Figure 4 composite elements).

The acceptance gate is differential: a ``ShardedStore`` and a single
union ``DirectoryStore`` applying the same randomized stream — fresh
inserts, same-shard duplicates, *cross-shard* duplicates, spanning
transactions through 2PC, and modifies — must produce identical
verdicts violation for violation, identical committed states, and
identical full-check reports, including after a reopen.
"""

from __future__ import annotations

import random

import pytest

from invariants import cohort_equals_union
from repro.errors import UpdateError
from repro.ldif.modify import parse_modifications
from repro.store import DirectoryStore
from repro.store.sharded import CompositeReader, ShardedStore
from repro.updates.operations import UpdateTransaction
from repro.workloads import (
    generate_whitepages,
    whitepages_registry,
    whitepages_schema,
)
from repro.workloads.update_streams import insertion_points

FLAT_BASES = {"a": "o=org0", "b": "o=org1", "c": "o=org2"}


@pytest.fixture()
def schema():
    return whitepages_schema(extras=True)


@pytest.fixture()
def registry():
    return whitepages_registry()


def verdict_tuples(report):
    """The comparable face of a rejection: (kind, dn, message) per
    violation — extras violations carry no element, so the PR 5
    element-set comparison would be vacuous here."""
    return sorted((v.kind, str(v.dn), v.message) for v in report)


def all_uids(instance):
    """Every uid value in the instance, with its entry's DN."""
    pairs = []
    for entry in instance:
        for value in entry.values("uid"):
            pairs.append((str(value), instance.dn_string_of(entry)))
    return sorted(pairs)


def person_tx(dn, uid):
    return UpdateTransaction().insert(
        dn, ["person", "top"], {"uid": [uid], "name": [f"n {uid}"]}
    )


def probe_work(outcome):
    """The Section 6.1 delta probe's share of a write's stats."""
    stats = outcome.stats
    return stats.index_probes, stats.index_hits, stats.index_candidates


class TestLifecycle:
    def test_create_accepts_extras_and_enforces_baseline(
        self, tmp_path, schema, registry
    ):
        initial = generate_whitepages(orgs=3, units_per_level=2, depth=1,
                                      persons_per_unit=2, seed=5)
        with ShardedStore.create(
            str(tmp_path / "ok"), schema, FLAT_BASES, initial, registry
        ) as store:
            assert store.check().is_legal

    def test_create_rejects_duplicate_keys_like_the_union_store(
        self, tmp_path, schema, registry
    ):
        tainted = generate_whitepages(orgs=3, units_per_level=2, depth=1,
                                      persons_per_unit=2, seed=5)
        # Two persons in *different* orgs (hence different shards)
        # sharing one uid: only a global key check can see it.
        for org in ("o=org0", "o=org2"):
            tainted.add_entry(
                tainted.find(org), "uid=dup", ["person", "top"],
                {"uid": ["dupkey"], "name": ["d up"]},
            )
        with pytest.raises(UpdateError, match="not legal to begin with"):
            DirectoryStore.create(
                str(tmp_path / "union"), schema, tainted, registry
            )
        with pytest.raises(UpdateError, match="not legal to begin with"):
            ShardedStore.create(
                str(tmp_path / "sharded"), schema, FLAT_BASES, tainted,
                registry,
            )


@pytest.mark.parametrize("seed", [3, 19])
def test_key_verdict_differential_against_union_store(
    tmp_path, schema, registry, seed
):
    """Randomized single-shard stream: fresh uids commit, reused uids —
    whether their holder lives in the same shard or another one — are
    rejected with the union store's exact violations."""
    initial = generate_whitepages(orgs=3, units_per_level=2, depth=1,
                                  persons_per_unit=2, seed=seed)
    union = DirectoryStore.create(
        str(tmp_path / "union"), schema, initial, registry
    )
    sharded = ShardedStore.create(
        str(tmp_path / "sharded"), schema, FLAT_BASES, initial, registry
    )
    rng = random.Random(seed)
    accepted = rejected = cross_shard = 0
    try:
        for step in range(16):
            parent = rng.choice(insertion_points(union.instance))
            if rng.random() < 0.5:
                uid = f"fresh{step}"
            else:
                uid, holder_dn = rng.choice(all_uids(union.instance))
                target = sharded.shard_map.route(f"uid=x,{parent}").name
                holder = sharded.shard_map.route(holder_dn).name
                if target != holder:
                    cross_shard += 1
            tx = person_tx(f"uid=new{step},{parent}", uid)
            union_outcome = union.apply(tx)
            sharded_outcome = sharded.apply(tx)
            union_report = union.check()
            assert union_report.is_legal
            cohort_equals_union(
                union.instance, sharded.instance, union_outcome, sharded_outcome,
                (union_report, sharded.check()), verdict_tuples, f" at step {step}",
            )
            accepted += union_outcome.applied
            rejected += not union_outcome.applied
            # ... and the same work: one key probe, finding the new
            # entry alone or beside the holder it collides with — asked
            # of every shard's postings, naming the same candidates.
            probes, hits, candidates = probe_work(union_outcome)
            assert (probes, hits, candidates) == (
                (1, 1, 1) if union_outcome.applied else (1, 1, 2)
            ), f"step {step}"
            sharded_work = probe_work(sharded_outcome)
            assert sharded_work[0] == len(FLAT_BASES) * probes
            assert sharded_work[2] == candidates
        assert accepted >= 3 and rejected >= 3, (accepted, rejected)
        assert cross_shard >= 1, "stream never reused a uid across shards"
    finally:
        union.close()
        sharded.close()
    # Reopen both: the durable states (and their extras verdicts)
    # survived the restart identically.
    with DirectoryStore.open(
        str(tmp_path / "union"), schema, registry=registry
    ) as union, ShardedStore.open(
        str(tmp_path / "sharded"), schema, registry
    ) as sharded:
        with CompositeReader.open(
            str(tmp_path / "sharded"), schema, registry
        ) as reader:
            reports = (union.check(), sharded.check(), reader.check())
        assert reports[0].is_legal
        cohort_equals_union(union.instance, sharded.instance, reports=reports,
                            face=verdict_tuples)


def test_one_shard_store_does_the_plain_stores_probe_work(
    tmp_path, schema, registry
):
    """The plain store's delta probe is the sharded one with a single
    member: write for write — accepted, rejected, delete, modify — the
    three probe counters are equal, and are what they always were."""
    initial = generate_whitepages(orgs=1, units_per_level=2, depth=1,
                                  persons_per_unit=2, seed=3)
    parent = insertion_points(initial)[0]
    taken = all_uids(initial)[0][0]
    stream = [
        (person_tx(f"uid=n1,{parent}", "fresh1"), True, (1, 1, 1)),
        (person_tx(f"uid=n2,{parent}", taken), False, (1, 1, 2)),
        (UpdateTransaction().delete(f"uid=n1,{parent}"), True, (0, 0, 0)),
    ]
    with DirectoryStore.create(
        str(tmp_path / "plain"), schema, initial, registry
    ) as plain, ShardedStore.create(
        str(tmp_path / "one"), schema, {"all": "o=org0"}, initial, registry
    ) as one:
        for tx, applied, work in stream:
            plain_outcome, one_outcome = plain.apply(tx), one.apply(tx)
            assert plain_outcome.applied == one_outcome.applied == applied
            assert probe_work(plain_outcome) == probe_work(one_outcome) == work
        (record,) = parse_modifications(
            f"dn: uid=n3,{parent}\nchangetype: modify\n"
            f"replace: uid\nuid: {taken}\n"
        )
        assert plain.apply(person_tx(f"uid=n3,{parent}", "fresh3")).applied
        assert one.apply(person_tx(f"uid=n3,{parent}", "fresh3")).applied
        plain_outcome, one_outcome = plain.modify(record), one.modify(record)
        assert not plain_outcome.applied and not one_outcome.applied
        assert probe_work(plain_outcome) == probe_work(one_outcome) == (1, 1, 2)


class TestSpanningTransactions:
    @pytest.fixture()
    def pair(self, tmp_path, schema, registry):
        initial = generate_whitepages(orgs=3, units_per_level=2, depth=1,
                                      persons_per_unit=2, seed=9)
        union = DirectoryStore.create(
            str(tmp_path / "union"), schema, initial, registry
        )
        sharded = ShardedStore.create(
            str(tmp_path / "sharded"), schema, FLAT_BASES, initial, registry
        )
        yield union, sharded
        union.close()
        sharded.close()

    def test_duplicate_inside_one_spanning_transaction_aborts(self, pair):
        union, sharded = pair
        tx = UpdateTransaction()
        for org in ("o=org0", "o=org1"):
            tx.insert(
                f"uid=twin,{org}", ["person", "top"],
                {"uid": ["twinkey"], "name": ["t win"]},
            )
        union_outcome = union.apply(tx)
        sharded_outcome = sharded.apply(tx)
        assert not union_outcome.applied
        cohort_equals_union(union.instance, sharded.instance, union_outcome,
                            sharded_outcome, face=verdict_tuples)
        assert any("2pc: aborted" in c for c in sharded_outcome.checks), (
            sharded_outcome.checks
        )

    def test_spanning_duplicate_of_a_third_shard_key_aborts(self, pair):
        union, sharded = pair
        taken, _ = next(
            (uid, dn) for uid, dn in all_uids(union.instance)
            if sharded.shard_map.route(dn).name == "c"
        )
        tx = (
            person_tx("uid=s0,o=org0", "spankey")
            .insert(
                "uid=s1,o=org1", ["person", "top"],
                {"uid": [taken], "name": ["s one"]},
            )
        )
        union_outcome = union.apply(tx)
        sharded_outcome = sharded.apply(tx)
        assert not union_outcome.applied
        cohort_equals_union(union.instance, sharded.instance, union_outcome,
                            sharded_outcome, face=verdict_tuples)

    def test_legal_spanning_transaction_commits_via_2pc(self, pair):
        union, sharded = pair
        tx = UpdateTransaction()
        for i, org in enumerate(("o=org0", "o=org1", "o=org2")):
            tx.insert(
                f"uid=span{i},{org}", ["person", "top"],
                {"uid": [f"spankey{i}"], "name": [f"s pan{i}"]},
            )
        union_outcome = union.apply(tx)
        sharded_outcome = sharded.apply(tx)
        assert union_outcome.applied
        assert any("2pc: committed" in c for c in sharded_outcome.checks), (
            sharded_outcome.checks
        )
        reports = (union.check(), sharded.check())
        assert reports[0].is_legal
        cohort_equals_union(union.instance, sharded.instance, union_outcome,
                            sharded_outcome, reports, verdict_tuples)


def test_modify_duplicating_a_key_is_rejected_identically(
    tmp_path, schema, registry
):
    initial = generate_whitepages(orgs=3, units_per_level=2, depth=1,
                                  persons_per_unit=2, seed=13)
    union = DirectoryStore.create(
        str(tmp_path / "union"), schema, initial, registry
    )
    sharded = ShardedStore.create(
        str(tmp_path / "sharded"), schema, FLAT_BASES, initial, registry
    )
    try:
        uids = all_uids(union.instance)
        victim_uid, victim_dn = uids[0]
        taken_uid, _ = next(
            (uid, dn) for uid, dn in uids
            if sharded.shard_map.route(dn).name
            != sharded.shard_map.route(victim_dn).name
        )
        record = parse_modifications(
            f"dn: {victim_dn}\nchangetype: modify\n"
            f"replace: uid\nuid: {taken_uid}\n-\n"
        )[0]
        union_outcome = union.modify(record)
        sharded_outcome = sharded.modify(record)
        assert not union_outcome.applied
        # The blind revert left both stores untouched and still legal.
        reports = (union.check(), sharded.check())
        assert reports[0].is_legal
        cohort_equals_union(union.instance, sharded.instance, union_outcome,
                            sharded_outcome, reports, verdict_tuples)
        # A rename to a fresh uid goes through on both.
        fresh = parse_modifications(
            f"dn: {victim_dn}\nchangetype: modify\n"
            "replace: uid\nuid: renamed0\n-\n"
        )[0]
        union_outcome, sharded_outcome = union.modify(fresh), sharded.modify(fresh)
        assert union_outcome.applied
        cohort_equals_union(union.instance, sharded.instance, union_outcome,
                            sharded_outcome)
    finally:
        union.close()
        sharded.close()
