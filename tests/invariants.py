"""The store's contracts, stated once.

Every crash matrix, stress driver and union differential in ``tests/``
takes its verdict from here.  Two kinds of definition:

**State forms** — how two observations of a directory are compared:

* :func:`state_digest` — byte identity of the serialized instance;
* :func:`canonical_records` — order-free (attribute and sibling order
  are not content);
* :func:`instance_state` — rollback-exact: the serialization plus class
  counts, document order and every index posting
  (:func:`postings_by_dn`).

**Contracts** — each a pure function of (acknowledged history,
observed state) that raises :class:`AssertionError` naming itself:

* :func:`committed_prefix` / :func:`committed_prefix_durable` — after a
  crash, the last state whose I/O completed, or its in-flight
  successor;
* :func:`committed_at` — a follower at a position holds the state its
  writer committed there;
* :func:`spanning_commit_atomic` — a spanning commit recovers whole or
  not at all, and nothing stays in doubt;
* :func:`composite_never_torn` — the member slices sum to the composite;
* :func:`spanning_read_whole` — a read shows every spanning transaction
  whole or not at all;
* :func:`read_floor_monotonic` — a read meets its ``require_seq`` and
  never goes behind what its connection was served;
* :func:`followed_equals_full` — Theorem 4.2: a followed verdict is the
  full check of a fresh view;
* :func:`cohort_equals_union` — Theorem 4.1: a sharded cohort judges
  and holds exactly what one union store does.
"""

from __future__ import annotations

import hashlib

from repro.ldif import serialize_ldif
from repro.server.frontdoor import position_geq
from repro.store.index import AttributeIndexes

__all__ = [
    "canonical_records",
    "cohort_equals_union",
    "committed_at",
    "committed_prefix",
    "committed_prefix_durable",
    "composite_never_torn",
    "followed_equals_full",
    "instance_state",
    "postings_by_dn",
    "probe_every_gram",
    "read_floor_monotonic",
    "spanning_commit_atomic",
    "spanning_read_whole",
    "state_digest",
    "violation_elements",
]


# ----------------------------------------------------------------------
# state forms
# ----------------------------------------------------------------------
def state_digest(instance) -> str:
    """Byte identity: the digest of the instance's serialized content."""
    return hashlib.blake2b(serialize_ldif(instance).encode("utf-8")).hexdigest()


def canonical_records(instance):
    """Order-free: one record per entry — display DN plus sorted
    attribute lines (the case-folded DN orders, the display spelling is
    compared)."""
    records = []
    for entry in instance:
        dn = instance.dn_string_of(entry)
        lines = tuple(sorted(
            f"{name}: {value}"
            for name in entry.attribute_names()
            for value in entry.values(name)
        ))
        records.append((dn.casefold(), dn, lines))
    return sorted(records)


def instance_state(instance):
    """Rollback-exact: everything an undo must restore.  Entry ids are
    never reused, so the postings and the path counts are keyed by DN."""
    by_interval = sorted(instance, key=instance.interval_of)
    classes = sorted({c for entry in instance for c in entry.classes})
    state = {
        "ldif": serialize_ldif(instance),
        "counts": {c: instance.class_count(c) for c in classes},
        "order": [str(entry.dn) for entry in by_interval],
    }
    counts = instance.path_counts
    if counts is not None:
        state["path_counts"] = {
            (axis.value, cls): {instance.dn_string_of(eid): n for eid, n in table.items()}
            for (axis, cls), table in counts.export().items()
        }
    indexes = instance.indexes
    if isinstance(indexes, AttributeIndexes):  # a composite has none of its own
        state["postings"] = postings_by_dn(indexes)
    return state


def postings_by_dn(indexes):
    """Every posting of ``indexes`` — equality, presence, 3-gram, key and
    referential — as ``{(table, attribute, key): sorted DNs}``, pending
    maintenance folded in first.  Entry ids are never reused, so only
    DNs compare across an undo or across two instances."""
    probe_every_gram(indexes)
    name = indexes.instance.dn_string_of
    flat = {
        ("present", attribute, None): sorted(map(name, posting))
        for attribute, posting in indexes._present.items()
    }
    for table in ("_eq", "_grams", "_keys", "_refs"):
        for attribute, bucket in getattr(indexes, table).items():
            for key, posting in bucket.items():
                flat[table, attribute, key] = sorted(map(name, posting))
    return flat


def probe_every_gram(indexes):
    """Probe every held attribute for a substring, so each one's 3-gram
    postings exist (they are derived on an attribute's first probe) and
    a comparison covers all of them, pending maintenance folded in."""
    indexes.delta_checkpoint()
    for attribute in list(indexes._present):
        indexes.substring_candidates(attribute, ["xxx"])


# ----------------------------------------------------------------------
# durability
# ----------------------------------------------------------------------
def committed_prefix(states, crash_op):
    """The states a crash at I/O op ``crash_op`` may leave, given the
    ``(ops_executed, state)`` pairs an undisturbed run recorded at each
    commit: the last one whose I/O completed before the crash, or its
    successor when the in-flight commit reached the disk whole."""
    done = [i for i, (ops, _) in enumerate(states) if ops <= crash_op]
    last = max(done) if done else 0
    return {state for _, state in states[last:last + 2]}


def committed_prefix_durable(states, crash_op, observed, where="") -> None:
    """What is read back after a crash is a committed prefix — never a
    state the writer did not commit, never short of one it finished."""
    assert observed in committed_prefix(states, crash_op), (
        f"committed_prefix_durable{where}: crash at op {crash_op} left a "
        "state the writer never committed"
    )


def committed_at(oracle, position, digest, where="") -> None:
    """A follower standing at ``position`` holds the state its writer
    committed there: ``oracle`` maps each committed position to the
    writer's digest at it."""
    assert position in oracle, (
        f"committed_at{where}: {position} is no position the writer "
        "committed"
    )
    assert oracle[position] == digest, (
        f"committed_at{where}: the state at {position} differs from the "
        "writer's there"
    )


def spanning_commit_atomic(states, crash_op, composite, in_doubt, where="") -> None:
    """A crash anywhere in two-phase commit recovers to a decided
    composite state — every member committed or every member rolled
    back, never a mix — and leaves nothing in doubt (``in_doubt``: the
    pending prepares and unfinished coordinator records found)."""
    assert composite in committed_prefix(states, crash_op), (
        f"spanning_commit_atomic{where}: crash at op {crash_op} recovered "
        "a composite that is neither all-committed nor all-rolled-back"
    )
    assert not in_doubt, (
        f"spanning_commit_atomic{where}: still in doubt after recovery: "
        f"{sorted(in_doubt)}"
    )


# ----------------------------------------------------------------------
# reads
# ----------------------------------------------------------------------
def composite_never_torn(composite, slices, where="") -> None:
    """A composite view holds exactly its member slices: the slices sum
    to the composite (a plain store is its own one slice)."""
    sizes = [len(piece) for piece in slices]
    assert len(composite) == sum(sizes), (
        f"composite_never_torn{where}: the composite holds "
        f"{len(composite)} entries, its slices {sizes}"
    )


def spanning_read_whole(held, spanning, where="") -> None:
    """A read holds each spanning transaction's entries all or none:
    ``held`` is what it returned, ``spanning`` the entries of each
    spanning transaction (a torn cut shows some of one's and not the
    rest)."""
    held = set(held)
    for entries in spanning:
        shown = sorted(entry for entry in entries if entry in held)
        assert not shown or len(shown) == len(set(entries)), (
            f"spanning_read_whole{where}: the read shows {shown} of the "
            f"spanning transaction {sorted(entries)}"
        )


def read_floor_monotonic(served, require=None, last_served=None) -> None:
    """A read carrying ``require_seq`` is served at or past it, and no
    connection is ever served behind a position it was served before."""
    if require is not None:
        assert position_geq(served, require), (
            f"read_floor_monotonic: served {served} for require_seq {require}"
        )
    if last_served is not None:
        assert position_geq(served, last_served), (
            f"read_floor_monotonic: served {served} after {last_served} "
            "on one connection"
        )


# ----------------------------------------------------------------------
# the paper's theorems on the serving path
# ----------------------------------------------------------------------
def _violations(report):
    return sorted(str(violation) for violation in report)


def followed_equals_full(followed, full, session_work, was_legal=True) -> None:
    """Theorem 4.2: a view's followed verdict ``followed`` ≡ ``full``,
    the full check of a view opened fresh at the same position — and
    from one legal report to the next (``was_legal``) the followed
    answer cost the session no work (``session_work``)."""
    assert followed.is_legal == full.is_legal, (
        f"followed_equals_full: followed says legal={followed.is_legal}, "
        f"the full check legal={full.is_legal}"
    )
    assert _violations(followed) == _violations(full), (
        "followed_equals_full: the followed violations differ from the "
        "full check's"
    )
    assert (session_work == 0) == (was_legal and followed.is_legal), (
        f"followed_equals_full: {session_work} units of session work for "
        f"a verdict followed from legal={was_legal} to "
        f"legal={followed.is_legal}"
    )


def violation_elements(report):
    """The schema elements a report cites — how a rejection is compared
    across store layouts."""
    return {v.element for v in report if v.element}


def cohort_equals_union(
    union, cohort, union_outcome=None, cohort_outcome=None, reports=(),
    face=violation_elements, where="",
) -> None:
    """Theorem 4.1: a sharded cohort asked the same write as one union
    store gives the same verdict (rejections compared by ``face``) and
    then holds the same entries (``union``/``cohort``: the two committed
    instances); every full check in ``reports`` — the union's first —
    says what the union's says."""
    if union_outcome is not None:
        assert union_outcome.applied == cohort_outcome.applied, (
            f"cohort_equals_union{where}: the union said "
            f"{union_outcome.applied}, the cohort {cohort_outcome.applied}\n"
            f"union: {union_outcome.report}\ncohort: {cohort_outcome.report}"
        )
        if not union_outcome.applied:
            assert face(union_outcome.report) == face(cohort_outcome.report), (
                f"cohort_equals_union{where}: the rejections differ"
            )
    assert canonical_records(cohort) == canonical_records(union), (
        f"cohort_equals_union{where}: the committed states differ"
    )
    for report in reports[1:]:
        assert report.is_legal == reports[0].is_legal, (
            f"cohort_equals_union{where}: a full check says "
            f"legal={report.is_legal}, the union's {reports[0].is_legal}"
        )
        assert face(report) == face(reports[0]), (
            f"cohort_equals_union{where}: a full check cites other "
            "violations than the union's"
        )
