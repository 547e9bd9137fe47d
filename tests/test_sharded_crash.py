"""The 2PC crash matrix: kill the coordinator/participant process at
every named protocol step and at every I/O boundary, and assert the
sharded store recovers to an all-or-nothing state.

The default lane runs the named-point matrix (every protocol step of
the commit and abort paths) and a strided slice of the full I/O-op
matrix; the nightly slow lane runs every op index at three torn-write
fractions.  The scenario is ``tests/harness/crash2pc.py``, the contract
``invariants.spanning_commit_atomic``.  A coordinator-log append that
fails without a crash is held to the same contract.
"""

from __future__ import annotations

import errno
import os

import pytest

from harness.crash import dry_run, run_matrix
from harness.crash2pc import (
    abort_tx,
    commit_tx,
    make_sharded,
    spanning_scenario,
    verify_atomic,
)
from invariants import committed_prefix
from repro.errors import StoreError
from repro.store.faults import FaultPlan, FaultyIO, InjectedCrash
from repro.store.sharded import ShardedStore
from repro.store.txlog import TXLOG_FILE
from repro.store.wal import StoreIO
from repro.workloads import whitepages_registry, whitepages_schema

COMMIT_PATH_POINTS = (
    "2pc:begin",
    "2pc:prepared:att",
    "2pc:prepared:labs",
    "2pc:decision",
    "2pc:committed",
    "2pc:decided:att",
    "2pc:decided:labs",
    "2pc:complete",
)
# Every point at or before "2pc:decision" precedes the coordinator
# log's durable commit record — the single commit point — so a crash
# there must recover to the pre-transaction state; every point after it
# must recover to the committed state.
PRE_DECISION = COMMIT_PATH_POINTS[:4]
POST_DECISION = COMMIT_PATH_POINTS[4:]


class TestNamedFaultPoints:
    def test_commit_path_covers_every_protocol_step(self, tmp_path):
        _, plan = dry_run(tmp_path, spanning_scenario(commit_tx(1)))
        assert tuple(plan.points) == COMMIT_PATH_POINTS

    @pytest.mark.parametrize("point", COMMIT_PATH_POINTS)
    def test_kill_at_point_on_commit_path(self, tmp_path, point):
        """Crashing at each named step of a committing 2PC round leaves
        — after recovery — exactly the state the commit point dictates:
        pre-transaction before the durable commit record, committed
        after it.  Never a mix."""
        scenario = spanning_scenario(commit_tx(1))
        states, _ = dry_run(tmp_path / "dry", scenario)
        io = FaultyIO(FaultPlan(crash_at_point=point))
        (tmp_path / "crash").mkdir()
        with pytest.raises(InjectedCrash):
            scenario(tmp_path / "crash", io)
        got = verify_atomic(tmp_path / "crash", states, io.plan.ops_executed - 1, point)
        expected = states[0][1] if point in PRE_DECISION else states[1][1]
        assert got == expected, (
            f"crash at {point}: recovered to the wrong side of the commit point"
        )

    def test_abort_path_points_and_recovery(self, tmp_path):
        """The abort path (composite rejection after the prepares)
        crosses begin/prepare/decide points but never the commit-side
        ones — and a crash at any of them recovers to the pre state."""
        scenario = spanning_scenario(abort_tx())
        _, plan = dry_run(tmp_path / "plan", scenario)
        points = tuple(plan.points)
        assert "2pc:begin" in points and "2pc:decided:att" in points
        assert "2pc:committed" not in points and "2pc:complete" not in points

        def verify(workdir, history, crash_op, label):
            got = verify_atomic(workdir, history, crash_op, label)
            assert got == history[0][1], (
                f"{label}: an aborting transaction must never surface its prepares"
            )

        assert run_matrix(tmp_path, scenario, verify, fractions=()) == len(set(points))


class _FailingTxlogAppend(StoreIO):
    """Lands the coordinator-log record in ``state`` whole, then raises
    ``EIO`` once — what a failed fsync after the write looks like."""

    def __init__(self, state: str) -> None:
        self.record = f'"state": "{state}"'.encode("utf-8")
        self.failed = False

    def append_bytes(self, path, data):
        super().append_bytes(path, data)
        if (
            not self.failed
            and os.path.basename(path) == TXLOG_FILE
            and self.record in data
        ):
            self.failed = True
            raise OSError(errno.EIO, "fsync failed (injected)")


class TestFailedCoordinatorAppend:
    """A failed coordinator-log append may still have landed, so the
    coordinator fails stop like a store whose journal append failed:
    every later spanning write is refused until a reopen, which resolves
    the transaction from what is on disk — pre-transaction after a
    failed ``begin``, committed after a failed ``commit``."""

    @pytest.mark.parametrize("state, side", [("begin", 0), ("commit", 1)],
                             ids=["begin", "commit"])
    def test_reopen_resolves_a_failed_append(self, tmp_path, state, side):
        states, _ = dry_run(tmp_path / "dry", spanning_scenario(commit_tx(1)))
        workdir = tmp_path / "failed"
        workdir.mkdir()
        path = str(workdir / "store")
        make_sharded(path)
        store = ShardedStore.open(
            path, whitepages_schema(), whitepages_registry(),
            io=_FailingTxlogAppend(state),
        )
        try:
            with pytest.raises(StoreError, match=rf"append failed \({state} for tx-1\)"):
                store.apply(commit_tx(1))
            with pytest.raises(StoreError, match="reopen"):
                store.apply(commit_tx(2))
        finally:
            store.close()
        # reopen: nothing in doubt, a clean coordinator log, and the
        # transaction on the side its durable records name
        got = verify_atomic(workdir, states, states[1][0] - 1, f"failed {state}")
        assert got == states[side][1]


class TestOpMatrix:
    def test_strided_io_crash_matrix(self, tmp_path):
        """Default-lane smoke slice: every 5th I/O boundary of the full
        scenario (commit → abort → commit), full-frame writes.  The
        named points are ``TestNamedFaultPoints``'."""
        run_matrix(
            tmp_path, spanning_scenario(), verify_atomic,
            stride=5, fractions=(1.0,), least_ops=30,
        )

    @pytest.mark.slow
    def test_every_io_boundary_and_torn_fraction(self, tmp_path):
        """Nightly lane: the full matrix — every I/O boundary of the
        scenario at three torn-write fractions."""
        run_matrix(tmp_path, spanning_scenario(), verify_atomic, least_ops=30)


def test_in_flight_states_match_dry_run(tmp_path):
    """The committed-prefix rule's sanity check: the undisturbed run's
    own decided states are each allowed at their recorded op index."""
    states, _ = dry_run(tmp_path, spanning_scenario())
    for ops, state in states:
        assert state in committed_prefix(states, ops)
