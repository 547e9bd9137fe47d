"""Property-based fuzz for the reader: randomized interleavings of
``apply`` / ``compact`` / ``refresh`` / reader-reopen (ISSUE 4
satellite).

Hypothesis drives a single-process interleaving of writer operations
and reader refreshes against one on-disk store.  The invariant after
*every* reader operation: the reader's ``(generation, seq)`` position
appears in the oracle of states the writer really committed, with a
byte-identical serialized instance — and since there is no concurrent
writer mid-refresh here, a refresh must always land exactly on the
writer's current position with zero lag.

Seeded and shrinkable by construction (hypothesis owns the entropy).
A bounded example count runs in the default CI lane; the heavier
configuration runs under ``-m slow``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from invariants import committed_at, state_digest
from repro.store import DirectoryStore
from repro.store.reader import StoreReader
from repro.workloads import (
    figure1_instance,
    random_transaction,
    whitepages_registry,
    whitepages_schema,
)

OPS = st.lists(
    st.sampled_from(["apply", "apply", "apply", "compact", "refresh", "reopen"]),
    min_size=4,
    max_size=24,
)


def run_interleaving(tmp_path_factory, seed: int, ops) -> None:
    schema = whitepages_schema()
    registry = whitepages_registry()
    path = str(tmp_path_factory.mktemp("fuzz") / "store")
    store = DirectoryStore.create(path, schema, figure1_instance(), registry)
    reader = StoreReader.open(path, schema, registry)
    # oracle of every committed state the writer passed through
    oracle = {store.position(): state_digest(store.instance)}
    try:
        for i, op in enumerate(ops):
            if op == "apply":
                tx = random_transaction(
                    store.instance, inserts=1, seed=seed * 100 + i
                )
                assert store.apply(tx).applied
            elif op == "compact":
                store.compact()
            elif op == "refresh":
                result = reader.refresh(strict=True)
                assert not result.stale
            elif op == "reopen":
                reader.close()
                reader = StoreReader.open(path, schema, registry)
            oracle[store.position()] = state_digest(store.instance)
            # Invariants after *every* step, whoever moved:
            committed_at(oracle, reader.position(), state_digest(reader.instance))
            if op in ("refresh", "reopen"):
                # no concurrent writer: the reader must be fully caught up
                assert reader.position() == store.position()
                assert reader.lag().current
        # the final view always converges
        reader.refresh(strict=True)
        assert state_digest(reader.instance) == state_digest(store.instance)
    finally:
        reader.close()
        store.close()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), OPS)
def test_reader_interleavings(tmp_path_factory, seed, ops):
    run_interleaving(tmp_path_factory, seed, ops)


@pytest.mark.slow
@settings(max_examples=200, deadline=None)
@given(st.integers(0, 1_000_000), OPS)
def test_reader_interleavings_slow(tmp_path_factory, seed, ops):
    run_interleaving(tmp_path_factory, seed, ops)
