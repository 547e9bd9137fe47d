"""Crash matrices, stress drivers and the failover storm.

Every module takes its verdicts from ``tests/invariants.py``; none
keeps an oracle of its own.

* :mod:`harness.crash` — the one crash-matrix runner (``run_matrix``:
  a dry run, then a crash at every named fault point crossed or at
  every ``stride``-th I/O op × torn fraction, each wreckage verified),
  and the store scenario, whose wreckages are read lock-free first and
  reopened by the writer second.
* :mod:`harness.crash2pc` — the cross-shard 2PC scenario (commit,
  abort, commit) and its all-or-nothing verifier.
* :mod:`harness.replication_crash` — the replication scenarios: a plain
  follower promoted, a cohort of followers, and a cohort promotion.
* :mod:`harness.stress` — the stress driver: one writer process per
  member (the plain store is the one-member case) and lock-free
  follower processes, digest-checked against per-member writer oracles.
* :mod:`harness.replication_stress` — a primary server process and
  replica processes, on :mod:`harness.stress`'s oracle files and check.
* :mod:`harness.failover` — the front door under a write storm with the
  primary killed at a chosen write.

They are plain importable modules, driven by ``tests/test_store_faults.py``,
``test_sharded_crash.py``, ``test_replication_crash.py``,
``test_reader_stress.py``, ``test_replication_stress.py`` and
``test_failover.py``, so they can also be run by hand against bigger
parameters than CI uses.
"""
