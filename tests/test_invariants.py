"""The contracts of ``tests/invariants.py`` can fail: each is fed one
input that breaks it and must raise an ``AssertionError`` naming it —
a contract that cannot fail would pass every harness built on it."""

from types import SimpleNamespace

import pytest

from invariants import (
    cohort_equals_union,
    committed_at,
    committed_prefix,
    committed_prefix_durable,
    composite_never_torn,
    followed_equals_full,
    read_floor_monotonic,
    spanning_commit_atomic,
    spanning_read_whole,
    state_digest,
)
from repro.workloads import figure1_instance

STATES = [(3, "s0"), (7, "s1"), (12, "s2")]


class Report(list):
    """A legality report's face: iterable violations, ``is_legal``."""

    @property
    def is_legal(self):
        return not self


def outcome(applied, *violations):
    return SimpleNamespace(applied=applied, report=Report(violations))


def violation(element):
    return SimpleNamespace(element=element)


def breaks(contract):
    return pytest.raises(AssertionError, match=contract)


def test_committed_prefix_is_the_last_completed_state_or_its_successor():
    assert committed_prefix(STATES, 8) == {"s1", "s2"}
    assert committed_prefix(STATES, 0) == {"s0", "s1"}
    with breaks("committed_prefix_durable"):
        committed_prefix_durable(STATES, 2, "s2")


def test_committed_at():
    committed_at({(1, 2): "d"}, (1, 2), "d")
    with breaks("committed_at"):
        committed_at({(1, 2): "d"}, (1, 3), "d")
    with breaks("committed_at"):
        committed_at({(1, 2): "d"}, (1, 2), "torn")


def test_spanning_commit_atomic():
    with breaks("spanning_commit_atomic"):
        spanning_commit_atomic(STATES, 4, "half of s1", [])
    with breaks("spanning_commit_atomic"):
        spanning_commit_atomic(STATES, 4, "s1", ["tx-1"])


def test_composite_never_torn():
    with breaks("composite_never_torn"):
        composite_never_torn(range(5), [range(2), range(2)])


def test_spanning_read_whole():
    spanning = [("a", "b"), ("c", "d")]
    spanning_read_whole(["a", "b", "x"], spanning)
    with breaks("spanning_read_whole"):
        spanning_read_whole(["a", "b", "c"], spanning)


def test_read_floor_monotonic():
    floor = {"generation": 1, "seq": 4}
    read_floor_monotonic({"generation": 2, "seq": 0}, floor, floor)
    with breaks("read_floor_monotonic"):
        read_floor_monotonic({"generation": 1, "seq": 3}, require=floor)
    with breaks("read_floor_monotonic"):
        read_floor_monotonic({"generation": 1, "seq": 3}, last_served=floor)


def test_followed_equals_full():
    legal, illegal = Report(), Report(["v"])
    followed_equals_full(legal, legal, 0)
    with breaks("followed_equals_full"):
        followed_equals_full(legal, illegal, 0)
    with breaks("followed_equals_full"):
        followed_equals_full(Report(["v"]), Report(["w"]), 5)
    with breaks("followed_equals_full"):
        followed_equals_full(legal, legal, 3)  # a followed answer that cost work


def test_cohort_equals_union():
    union, other = figure1_instance(), figure1_instance()
    other.add_entry(other.find("o=att"), "uid=extra", ["person", "top"],
                    {"uid": ["extra"], "name": ["e x"]})
    cohort_equals_union(union, figure1_instance(), outcome(True), outcome(True))
    with breaks("cohort_equals_union"):
        cohort_equals_union(union, union, outcome(True), outcome(False))
    with breaks("cohort_equals_union"):
        cohort_equals_union(union, union, outcome(False, violation("a")),
                            outcome(False, violation("b")))
    with breaks("cohort_equals_union"):
        cohort_equals_union(union, other)
    with breaks("cohort_equals_union"):
        cohort_equals_union(union, union, reports=(Report(), Report([violation("a")])))
    assert state_digest(union) != state_digest(other)
