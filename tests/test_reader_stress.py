"""Multi-process differential stress tests, one driver for both kinds
(``tests/harness/stress.py``): one writer process per member —
the plain store is its own one member — and follower processes over
the whole store.  Every position a follower's refresh lands a member on
is digest-checked against that member's writer oracle, every view is
checked whole, and every follower must end at every writer's final
position (catch-up, not sampling).  The heavier configurations run
under ``-m slow``.
"""

import pytest

from harness.stress import run_stress


def _assert_followed(results, readers, least):
    assert len(results) == readers
    for result in results:
        # every follower verified several distinct positions of EVERY member
        assert all(count >= least for count in result["checked"].values())
    # compactions really happened under the followers (the interesting part)
    assert any(result["rebootstraps"] > 0 for result in results)


def test_stress_differential_oracle(tmp_path):
    results = run_stress(
        str(tmp_path), transactions=200, readers=4, compact_every=50, seed=20260806
    )
    _assert_followed(results, 4, 5)


def test_shard_stress_differential_oracle(tmp_path):
    results = run_stress(
        str(tmp_path), shards=2, transactions=40, readers=2, compact_every=15,
        seed=20260806,
    )
    _assert_followed(results, 2, 3)


@pytest.mark.slow
def test_stress_differential_oracle_slow(tmp_path):
    # The full-content digest the writer logs per commit is O(|D|), so
    # the stream cost grows quadratically with its length — 600
    # transactions with 6 followers is ~10 minutes of single-core work.
    results = run_stress(
        str(tmp_path), transactions=600, readers=6, compact_every=40, seed=9,
        deadline_seconds=900,
    )
    _assert_followed(results, 6, 10)


@pytest.mark.slow
def test_shard_stress_differential_oracle_slow(tmp_path):
    results = run_stress(
        str(tmp_path), shards=4, transactions=150, readers=4, compact_every=25,
        seed=7, deadline_seconds=900,
    )
    _assert_followed(results, 4, 5)
