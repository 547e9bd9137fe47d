"""The failover crash matrices: kill a follower — plain or a sharded
cohort — at every named replication/promotion step and at every I/O
boundary, and assert the recovered (and then promoted) copy is a
committed prefix of the primary's history; kill a cohort promotion
anywhere, and assert running it again finishes it.

The default lane runs every named point once (``TestNamedFaultPoints``)
and a strided slice of the I/O-op matrix; the nightly slow lane runs
every op index at three torn-write fractions.  The scenarios are in
``tests/harness/replication_crash.py``; the promotion-refusal scenarios
at the bottom pin the in-doubt 2PC gate.
"""

from __future__ import annotations

import os

import pytest

from harness.crash import dry_run, run_matrix
from harness.replication_crash import (
    FRONTIER,
    cohort_follower,
    cohort_promotion,
    plain_scenario,
    verify_cohort_follower,
    verify_cohort_promotion,
    verify_plain,
)
from invariants import state_digest
from repro.errors import StoreError
from repro.store import DirectoryStore
from repro.store import wal
from repro.store.faults import FaultPlan, FaultyIO
from repro.store.recovery import JOURNAL_FILE, recover
from repro.store.replicate import FrameSource, ReplicaApplier, promote, pump
from repro.workloads import (
    figure1_instance,
    random_transaction,
    whitepages_registry,
    whitepages_schema,
)

#: Every named step of the replica's apply path and the promotion
#: handoff — the full kill matrix the issue demands.
REPLICA_POINTS = (
    "repl:snapshot-install",
    "repl:journal-reset",
    "repl:state",
    "repl:frames-append",
    "repl:fold-snapshot",
    "repl:fold-journal",
)
PROMOTE_POINTS = (
    "promote:inspect",
    "promote:open",
    "promote:compact",
    "promote:state",
)

#: Each scenario with its verifier, the op count its dry run must reach
#: (a smaller one would silently thin the matrix), and the default
#: lane's stride over those ops.
SCENARIOS = {
    "plain": (plain_scenario, verify_plain, 30, 5),
    "cohort-follower": (cohort_follower, verify_cohort_follower, 100, 25),
    "cohort-promotion": (cohort_promotion, verify_cohort_promotion, 27, 10),
}


def test_dry_run_crosses_every_named_point(tmp_path):
    """The scenario really exercises every protocol step (a point the
    dry run never crosses would silently drop out of the matrix)."""
    _, plan = dry_run(tmp_path, plain_scenario)
    crossed = set(plan.points)
    for point in REPLICA_POINTS + PROMOTE_POINTS:
        assert point in crossed, f"scenario never crosses {point!r}"


class TestNamedFaultPoints:
    def test_kill_at_every_point(self, tmp_path):
        """Crash the plain follower at each named step once; recovery
        must land on a committed prefix, resume losslessly, and stay
        promotable."""
        fired = run_matrix(tmp_path, plain_scenario, verify_plain, fractions=())
        assert fired >= len(REPLICA_POINTS + PROMOTE_POINTS)

    @pytest.mark.parametrize("name", ["cohort-follower", "cohort-promotion"])
    def test_kill_cohort_at_every_point(self, tmp_path, name):
        """The same for the cohort scenarios: each named step once."""
        scenario, verify, _, _ = SCENARIOS[name]
        assert run_matrix(tmp_path, scenario, verify, fractions=()) > 0


class TestOpMatrix:
    @pytest.mark.parametrize("name", ["cohort-follower", "cohort-promotion"])
    def test_strided_cohort_matrix(self, tmp_path, name):
        """Default-lane slice of the cohort scenarios: a stride of the
        I/O boundaries with full-frame writes."""
        self._run_matrix(tmp_path, name, SCENARIOS[name][3], (1.0,))

    def test_strided_io_crash_matrix(self, tmp_path):
        """Default-lane slice of the plain follower: a crash at every
        5th I/O boundary of the replica's apply/promote path with
        full-frame writes; recovery lands on a committed prefix,
        resumes losslessly, stays promotable."""
        self._run_matrix(tmp_path, "plain", SCENARIOS["plain"][3], (1.0,))

    @pytest.mark.slow
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_every_io_boundary_and_torn_fraction(self, tmp_path, name):
        """Nightly lane: the full matrix — every I/O boundary at three
        torn-write fractions."""
        self._run_matrix(tmp_path, name, 1, (0.0, 0.5, 1.0))

    @staticmethod
    def _run_matrix(tmp_path, name, stride, fractions):
        scenario, verify, least_ops, _ = SCENARIOS[name]
        run_matrix(
            tmp_path, scenario, verify,
            stride=stride, fractions=fractions, least_ops=least_ops,
        )


def test_dry_run_oracle_matches_undisturbed_replica(tmp_path):
    """Sanity for the matrix's oracle: an undisturbed replica finishes
    exactly at the frontier with the primary's digest."""
    history = plain_scenario(tmp_path, FaultyIO(FaultPlan()))
    assert FRONTIER in history[0]
    _, report = recover(
        str(tmp_path / "replica"), whitepages_schema(), whitepages_registry(),
        repair=False,
    )
    # promotion compacted the replica into its own new epoch
    assert (report.generation, report.last_seq) == (3, 0)
    verify_plain(tmp_path, history, 0, "undisturbed")


# ----------------------------------------------------------------------
# the in-doubt 2PC gate
# ----------------------------------------------------------------------
def _store_with_trailing_prepare(path: str):
    """A store whose journal ends in an undecided ``#PREPARE`` — the
    shape a crashed 2PC participant leaves behind."""
    schema, registry = whitepages_schema(), whitepages_registry()
    store = DirectoryStore.create(path, schema, figure1_instance(), registry)
    outcome = store.apply(
        random_transaction(store.instance, inserts=1, seed=77)
    )
    assert outcome.applied
    seq = store.journal_length
    generation = store.generation
    store.close()
    payload = (
        "dn: uid=indoubt,ou=databases,ou=attLabs,o=att\n"
        "changetype: add\nobjectClass: person\nobjectClass: top\n"
        "uid: indoubt\nname: in doubt\n"
    )
    frame = wal.encode_prepare("tx-indoubt", seq + 1, generation, payload)
    with open(os.path.join(path, JOURNAL_FILE), "ab") as fh:
        fh.write(frame)
    return schema, registry


def test_promote_refuses_visible_in_doubt_prepare(tmp_path):
    """Promotion of a copy holding an undecided prepare must refuse
    with a clear, actionable error — only the old primary's coordinator
    log can decide the transaction."""
    path = str(tmp_path / "indoubt")
    schema, registry = _store_with_trailing_prepare(path)
    with pytest.raises(StoreError, match="refusing to promote") as info:
        promote(path, schema, registry)
    assert "in-doubt 2PC transaction tx-indoubt" in str(info.value)
    # the refusal touched nothing: the prepare is still there, and the
    # store is still openable read-wise
    _, report = recover(path, schema, registry, repair=False)
    assert report.in_doubt_txid == "tx-indoubt"


def test_stream_never_ships_in_doubt_prepare(tmp_path):
    """The committed cut stops in front of an undecided prepare, so a
    follower of an in-doubt primary holds only decided state — and is
    therefore immediately promotable."""
    primary = str(tmp_path / "primary")
    replica = str(tmp_path / "replica")
    schema, registry = _store_with_trailing_prepare(primary)

    source = FrameSource(primary, schema)
    with ReplicaApplier(replica, schema, registry) as applier:
        pump(source, applier)
        position = applier.position()
        digest = state_digest(applier.reader.instance)
    # the replica stands one frame short of the primary's journal tail
    # (last_seq counts the undecided prepare): the in-doubt frame
    # stayed home
    _, report = recover(primary, schema, registry, repair=False)
    assert report.in_doubt_txid is not None
    assert position == (report.generation, report.last_seq - 1)

    promoted = promote(replica, schema, registry)
    try:
        assert state_digest(promoted.instance) == digest
    finally:
        promoted.close()

