"""Command-line interface.

Usage::

    bounding-schemas validate    --schema S.dsl --data D.ldif
    bounding-schemas check       --schema S.dsl (--data D.ldif | --store DIR)
                                 [--profile] [--follow] [--interval SEC]
                                 [--iterations N]
    bounding-schemas create      STORE_DIR --schema S.dsl [--data D.ldif]
                                 [--shard NAME=BASE_DN ...]
    bounding-schemas consistency --schema S.dsl [--witness OUT.ldif] [--proof]
                                 [--repair]
    bounding-schemas query       --data D.ldif --filter '(objectClass=person)'
    bounding-schemas translate   --schema S.dsl
    bounding-schemas generate    --workload whitepages|den --scale N --out D.ldif
                                 [--schema-out S.dsl] [--seed N]
    bounding-schemas apply       --schema S.dsl --data D.ldif --changes C.ldif
                                 [--out NEW.ldif]
    bounding-schemas discover    --data D.ldif [--out S.dsl]
                                 [--min-forbidden-support N]
    bounding-schemas fsck        STORE_DIR [--schema S.dsl] [--read-only]
    bounding-schemas recover     STORE_DIR [--schema S.dsl] [--force]
                                 [--wait-lock SEC]

Every command that takes a store directory (``check --store``, ``fsck``,
``recover``, ``serve``, ``replicate``, ``promote``) reads off the
directory whether it is plain or sharded (``create --shard``); on those
six ``--shards`` only states an expectation — against a plain store it
is exit 2 and one line — and selects nothing.  ``fsck`` and ``recover``
walk the store's members (:func:`repro.store.members`): a plain store
is the one-member case, a sharded one has a member per shard.

Exit codes, the same for every store kind: 0 legal, consistent or
healthy; 1 illegal (``validate``, ``check``, ``apply``), inconsistent
(``consistency``), or damaged (``fsck``/``recover``: a torn or corrupt
member journal, a live writer's lock, or — ``fsck --schema`` — any
violation, orphaned shards included); 2 a usage error; 3 undecided —
``consistency --witness`` derived no contradiction yet built no witness
(``witness synthesis failed: …`` goes to stderr as well), or ``fsck``
found a prepared 2PC transaction awaiting the coordinator log's
decision (run ``recover``, which needs ``--schema`` for that step).
``create`` and ``recover`` take the advisory locks; ``--wait-lock
SECONDS`` retries a held one with bounded exponential backoff and
jitter instead of failing at once.

``apply`` runs LDIF change records (``changetype: add``/``delete``)
through the Section 4 incremental checker: the whole transaction is
applied or, on any violation, rolled back with an explanation.

There is one checking path: ``validate``, ``check``, the server's
``check`` op, ``create`` and ``fsck --schema`` all reach
:meth:`repro.legality.engine.CheckSession.check` (content →
batched structure engine → Section 6.1 extras), one sequential path
with no setting.  ``validate`` is ``check --data`` under its old name.
``--profile`` prints the engine's counter/timer table (entries checked,
query work, per-phase wall time).
``--follow``, ``--interval`` and ``--iterations`` apply to ``--store``
only; with ``--data`` they are exit 2 and one line.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.consistency.checker import ConsistencyChecker
from repro.ldif.reader import load_ldif
from repro.ldif.writer import dump_ldif, serialize_ldif
from repro.query.evaluator import QueryEvaluator
from repro.query.ast import Select
from repro.query.filter_parser import parse_filter
from repro.query.translate import translate_element
from repro.schema.dsl import dump_dsl, load_dsl

__all__ = ["main"]


def _cmd_check(args: argparse.Namespace) -> int:
    """``check`` (and ``validate``, the same command under its old
    name with ``--data`` only): one :class:`CheckSession` pass."""
    from repro.legality.engine import CheckSession

    if args.store:
        return _check_store(args)
    given = {
        "--follow": args.follow,
        "--interval": args.interval is not None,
        "--iterations": args.iterations is not None,
    }
    stray = [flag for flag, on in given.items() if on]
    if stray:
        print(
            f"check: {', '.join(stray)} only applies to --store "
            "(a file does not change under the check)",
            file=sys.stderr,
        )
        return 2
    schema = load_dsl(args.schema)
    instance = load_ldif(args.data)
    report = CheckSession(schema).check(instance)
    return _print_verdict(
        args, report, "", f"{len(instance)} entries satisfy {args.schema}"
    )


def _print_verdict(args, report, prefix: str, legal: str) -> int:
    """One verdict as every ``check`` prints it — the LEGAL line or the
    violations, then the ``--profile`` table; returns the exit code."""
    if report.is_legal:
        print(f"{prefix}LEGAL: {legal}")
    else:
        print(f"{prefix}ILLEGAL: {len(report)} violation(s)")
        for violation in report:
            print(f"  {violation}")
    if args.profile and report.stats is not None:
        print(report.stats.format_table())
    return 0 if report.is_legal else 1


def _check_store(args: argparse.Namespace) -> int:
    """``check --store DIR [--follow]``: legality of a live store —
    plain or sharded, whichever DIR holds — through a lock-free reader
    view.  With ``--follow``, refresh
    and re-check in a loop (the verdict follows the frames, so each
    round costs only the delta) and print the view's position per
    round; ``--iterations`` bounds the loop (0 = until interrupted).
    Interrupting a follow (Ctrl-C) is a normal shutdown: message, exit
    0, no traceback; a store that vanishes mid-follow ends the loop with
    a clear message and exit 1."""
    import time

    from repro.errors import StoreError
    from repro.store import members, open_view

    interval = 1.0 if args.interval is None else args.interval
    if args.follow and interval <= 0:
        # A zero or negative interval would busy-spin the CPU between
        # refreshes; refuse it up front.
        print(
            f"check: --interval must be positive with --follow "
            f"(got {interval:g})",
            file=sys.stderr,
        )
        return 2
    schema = load_dsl(args.schema)
    try:
        reader = open_view(args.store, schema)
    except (StoreError, OSError) as exc:
        print(f"check: {exc}", file=sys.stderr)
        return 1
    status = 0
    rounds = 0
    try:
        while True:
            status |= _print_verdict(
                args,
                reader.check(),
                f"[{reader.position().tag()}] ",
                f"{len(reader.instance)} entries",
            )
            rounds += 1
            if not args.follow:
                break
            if args.iterations and rounds >= args.iterations:
                break
            time.sleep(interval)
            refreshed = reader.refresh()
            if refreshed.stale:
                try:
                    members(args.store)
                except StoreError:
                    what, why = (
                        ("store", "removed or compacted away")
                        if reader.position().is_plain
                        else ("sharded store", "removed mid-follow")
                    )
                    print(
                        f"{what} {args.store!r} is gone ({why}); "
                        "stopping follow",
                        file=sys.stderr,
                    )
                    status = 1
                    break
                print(f"stale view: {refreshed.note}", file=sys.stderr)
    except KeyboardInterrupt:
        print("follow interrupted; exiting", file=sys.stderr)
        status = 0
    finally:
        reader.close()
    return status


def _retry_locked(fn, wait_lock: float, command: str):
    """Run ``fn``, retrying on :class:`StoreLockedError` with bounded
    exponential backoff plus jitter for up to ``wait_lock`` seconds.

    The holder's pid (when the lock file records one) is reported on
    every retry, so an operator can see *who* to wait for.  With
    ``wait_lock`` 0 (the default) the first failure propagates —
    exactly the old fail-fast behavior."""
    import random
    import time

    from repro.errors import StoreLockedError

    deadline = time.monotonic() + max(0.0, wait_lock)
    delay = 0.05
    while True:
        try:
            return fn()
        except StoreLockedError as exc:
            remaining = deadline - time.monotonic()
            holder = (
                f" (held by pid {exc.holder_pid})"
                if exc.holder_pid is not None
                else ""
            )
            if remaining <= 0:
                if wait_lock > 0:
                    print(
                        f"{command}: gave up waiting after {wait_lock:g}s"
                        f"{holder}",
                        file=sys.stderr,
                    )
                raise
            sleep_for = min(delay, remaining) * (0.5 + random.random())
            print(
                f"{command}: store is locked{holder}; retrying in "
                f"{sleep_for:.2f}s",
                file=sys.stderr,
            )
            time.sleep(sleep_for)
            delay = min(delay * 2, 2.0)


def _parse_shard_args(pairs: List[str]) -> dict:
    """``NAME=BASE_DN`` pairs from repeated ``--shard`` flags."""
    bases = {}
    for pair in pairs:
        name, sep, base = pair.partition("=")
        if not sep or not name or not base:
            raise ValueError(
                f"--shard wants NAME=BASE_DN, got {pair!r}"
            )
        bases[name] = base
    return bases


def _cmd_create(args: argparse.Namespace) -> int:
    """``create``: initialize a store directory — plain, or sharded
    when ``--shard NAME=BASE_DN`` is given (repeatable, one per shard)."""
    from repro.errors import StoreError, UpdateError
    from repro.model.instance import DirectoryInstance
    from repro.store import DirectoryStore
    from repro.store.sharded import ShardedStore

    schema = load_dsl(args.schema)
    instance = (
        load_ldif(args.data) if args.data else DirectoryInstance()
    )
    wait_lock = getattr(args, "wait_lock", 0.0)
    try:
        if args.shard:
            bases = _parse_shard_args(args.shard)
            with _retry_locked(
                lambda: ShardedStore.create(
                    args.directory, schema, bases, instance
                ),
                wait_lock,
                "create",
            ) as store:
                print(
                    f"created sharded store {args.directory} "
                    f"({len(instance)} entries, {len(bases)} shard(s))"
                )
                for spec in store.shard_map:
                    print(
                        f"  {spec.name}: base {spec.base} "
                        f"({len(store.shard(spec.name).instance)} entries)"
                    )
        else:
            _retry_locked(
                lambda: DirectoryStore.create(args.directory, schema, instance),
                wait_lock,
                "create",
            ).close()
            print(f"created store {args.directory} ({len(instance)} entries)")
        return 0
    except (StoreError, UpdateError, ValueError, OSError) as exc:
        print(f"create: {exc}", file=sys.stderr)
        return 1


def _cmd_apply(args: argparse.Namespace) -> int:
    from repro.ldif.changes import load_changes
    from repro.updates.incremental import IncrementalChecker

    schema = load_dsl(args.schema)
    instance = load_ldif(args.data)
    transaction = load_changes(args.changes)
    guard = IncrementalChecker(schema, instance)
    outcome = guard.apply_transaction(transaction)
    if outcome.applied:
        print(
            f"APPLIED: {len(transaction)} operation(s); instance now has "
            f"{len(instance)} entries (work: {outcome.cost} entries touched)"
        )
        if args.out:
            dump_ldif(instance, args.out)
            print(f"wrote updated instance to {args.out}")
        return 0
    print("REJECTED (rolled back):")
    for violation in outcome.report:
        print(f"  {violation}")
    return 1


def _recover_members(paths: dict, **options) -> dict:
    """Run :func:`~repro.store.recovery.recover` with ``options`` on
    every member of :func:`repro.store.members`, printing each report:
    ``{member: report}``."""
    from repro.store.recovery import recover

    reports = {name: recover(path, **options)[1] for name, path in paths.items()}
    for report in reports.values():
        print(report.summary())
    return reports


def _pending(reports: dict, txlog) -> List[str]:
    """The in-doubt 2PC txids: prepared but undecided on a member, or
    unfinished in the coordinator log (``None`` on a plain store)."""
    held = {report.in_doubt_txid for report in reports.values()} - {None}
    return sorted(held | set(txlog.unfinished() if txlog is not None else ()))


def _cmd_fsck(args: argparse.Namespace) -> int:
    """``fsck DIR``: the same steps for every store, touching nothing —
    a recovery dry run per member (skipped with ``--read-only``, which
    judges no journal and so is safe against a live writer), the
    coordinator log, the replica state and, with ``--schema``, one view
    (:func:`_fsck_view`).  Exit 3 in doubt, 1 damaged or illegal, 0
    healthy."""
    from repro.errors import StoreError
    from repro.store import members, open_view
    from repro.store.txlog import inspect_txlog

    if getattr(args, "frontdoor", None):
        return _fsck_frontdoor(args.frontdoor)
    if args.directory is None:
        print("fsck: a store directory is required (or --frontdoor)",
              file=sys.stderr)
        return 2
    if args.read_only and not args.schema:
        print("fsck: --read-only requires --schema", file=sys.stderr)
        return 2
    try:
        paths = members(args.directory)
        reports = {} if args.read_only else _recover_members(paths, repair=False)
    except (StoreError, OSError) as exc:
        print(f"fsck: {exc}")
        return 1
    # A corrupt coordinator log means the decisions themselves cannot
    # be trusted: that is in doubt too.
    try:
        txlog = inspect_txlog(args.directory)
    except StoreError as exc:
        print(f"coordinator log: {exc}")
        print("IN-DOUBT 2PC STATE (coordinator log is corrupt)")
        return 3
    if None not in paths:
        _print_txlog(txlog)
    _print_replica_state(args.directory, reports)
    legal = True
    if args.schema:
        try:
            view = open_view(args.directory, load_dsl(args.schema))
        except (StoreError, OSError) as exc:
            print(f"fsck: {exc}")
            return 1
        with view:
            legal = _fsck_view(view).is_legal
    for name, report in reports.items():
        if report.in_doubt_txid is not None:
            txid = report.in_doubt_txid
            verdict = "abort" if txlog is None else txlog.verdict(txid)
            print(
                f"  IN DOUBT: shard {name} holds prepared transaction "
                f"{txid} (coordinator verdict: {verdict})"
            )
    pending = _pending(reports, txlog)
    if pending:
        print("IN-DOUBT 2PC STATE (run `recover` to resolve): "
              + ", ".join(pending))
        return 3
    damaged = [report.directory for report in reports.values()
               if not report.healthy]
    if damaged:
        print(f"DAMAGED: {', '.join(damaged)} (run `recover` to repair)")
        return 1
    print("HEALTHY" if legal else "ILLEGAL")
    return 0 if legal else 1


def _fsck_view(view):
    """The view half of ``fsck --schema``: the routing cut, a line per
    member (position, entries, lag), the view's totals, then the one
    verdict, which is returned."""
    from repro.store import Position, ReaderLag

    for line in view.describe_cut():
        print(line)
    lags = []
    for name, (generation, seq) in sorted(view.position().items()):
        member = view.shard_reader(name)
        lags.append(member.lag())
        print(
            f"  {Position({name: (generation, seq)})} "
            f"({len(member.instance)} entries; {lags[-1]})"
        )
    lag = ReaderLag(sum(one.generations for one in lags),
                    sum(one.frames for one in lags))
    print(f"view: {view.position()}; lag: {lag}")
    report = view.check()
    print("legality: " + ("legal" if report.is_legal else "ILLEGAL"))
    for violation in report:
        print(f"  {violation}")
    return report


def _print_txlog(txlog) -> None:
    """A sharded store's coordinator log in one line: its records (a
    serving primary never compacts it, so this keeps growing), its
    generation and its unfinished transactions."""
    if txlog is None:
        print("coordinator log: none (no spanning transaction yet)")
        return
    states = txlog.states()
    records = sum(len(entry.history) for entry in states.values())
    print(
        f"coordinator log: {records} records, generation "
        f"{txlog.generation}, {len(txlog.unfinished())} unfinished "
        "transaction(s)"
    )


def _print_replica_state(directory: str, reports: dict) -> None:
    """Report the replication-follower sidecars, when present.  A
    cohort is synced to its recorded cut; a plain follower to its
    recovered journal in ``reports`` (none under ``--read-only``,
    whose view lines carry it instead)."""
    from repro.store import Position
    from repro.store.replicate import read_cut_state, read_replica_state

    members = None
    if reports:
        members = Position(
            {name: (report.generation, report.last_seq)
             for name, report in reports.items()}
        )
    cut = read_cut_state(directory)
    state = read_replica_state(directory)
    if state is not None:
        synced = cut if cut is not None else members
        print(
            "replica state: following "
            f"{state.get('upstream') or '<unknown upstream>'}"
            f"{'' if synced is None else f' — synced to {synced}'} "
            "(promote before writing locally)"
        )
    if cut is not None:
        frontier = ", ".join(
            f"{name}: ({pos[0]}, {pos[1]})" for name, pos in sorted(cut.items())
        )
        print(
            f"replicated cut: {frontier} (the cohort is promotable only "
            "on this frontier)"
        )
        if members is not None and members != cut:
            print(
                f"replicated cut: the members stand at {members}, off the "
                "recorded cut"
            )


def _fsck_frontdoor(address: str) -> int:
    """``fsck --frontdoor HOST:PORT``: report a running front door's
    topology — every member's address, liveness, last reported
    frontier and read outcomes (replies served, replies discarded as
    stale), plus recorded lost floors.  Exit 0 when the primary is
    alive."""
    import asyncio

    from repro.server.client import DirectoryClient, ServerError
    from repro.server.protocol import parse_address
    from repro.store import Position

    try:
        host, port = parse_address(address)
    except ValueError:
        print(f"fsck: --frontdoor must be HOST:PORT, got {address!r}",
              file=sys.stderr)
        return 2

    async def run() -> int:
        try:
            client = await DirectoryClient.connect(host, port)
        except (ConnectionError, OSError) as exc:
            print(f"fsck: cannot reach front door {address}: {exc}")
            return 1
        try:
            topology = await client.request("topology")
        except (ServerError, ConnectionError, OSError) as exc:
            print(f"fsck: {exc}")
            return 1
        finally:
            await client.close()

        def line(member: dict, role: str) -> None:
            position = member.get("position")
            frontier = (
                str(Position.from_wire(position)) if position
                else "unknown frontier"
            )
            liveness = "alive" if member.get("alive") else "DOWN"
            print(f"  {role} {member['address']}: {liveness}, {frontier}, "
                  f"{member['served']} read(s) served, "
                  f"{member['stale']} stale discarded")
            if member.get("sync_error"):
                print(f"    not following: {member['sync_error']}")

        print(f"front door: {address} "
              f"({topology.get('failovers', 0)} failover(s))")
        line(topology["primary"], "primary")
        for member in topology.get("replicas", []):
            line(member, "replica")
        for floor in topology.get("lost_floors", []):
            print(f"  lost floor: {floor} (positions past this in that "
                  "generation died with a demoted primary)")
        if not topology["primary"].get("alive"):
            print("PRIMARY DOWN (failover pending or no candidate)")
            return 1
        print("TOPOLOGY SERVING")
        return 0

    return asyncio.run(run())


def _cmd_recover(args: argparse.Namespace) -> int:
    """``recover DIR``: the same steps for every store.  Every member's
    advisory lock is taken first (``--wait-lock`` retries a held one),
    so a live writer fails the command before any file is touched; then
    each member's journal is repaired (``--force`` quarantines
    corruption too).  Only in-doubt 2PC state opens the store — its
    open path resolves it from the coordinator log (presumed abort) —
    so only then is ``--schema`` needed."""
    from repro.errors import StoreError
    from repro.store import lock_members, members, open_store
    from repro.store.txlog import inspect_txlog

    try:
        paths = members(args.directory)
        txlog = inspect_txlog(args.directory)
        with _retry_locked(
            lambda: lock_members(paths), args.wait_lock, "recover"
        ):
            reports = _recover_members(paths, repair=True, force=args.force)
        pending = _pending(reports, txlog)
        if pending and not args.schema:
            print(f"recover: resolving in-doubt 2PC transaction(s) "
                  f"{', '.join(pending)} requires --schema", file=sys.stderr)
            return 2
        if pending:
            _retry_locked(
                lambda: open_store(args.directory, load_dsl(args.schema)),
                args.wait_lock,
                "recover",
            ).close()
    except (StoreError, OSError) as exc:
        print(f"recover: {exc}")
        return 1
    if pending:
        print(f"resolved {len(pending)} in-doubt 2PC transaction(s): "
              + ", ".join(pending))
    else:
        print("no in-doubt 2PC transactions")
    if any(report.repaired for report in reports.values()):
        print("REPAIRED")
    degraded = [report.directory for report in reports.values()
                if report.read_only]
    if degraded:
        print(
            f"STILL DAMAGED: {', '.join(degraded)} (re-run with --force to "
            "quarantine corruption)"
        )
        return 1
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.stats import collect_stats

    instance = load_ldif(args.data)
    print(collect_stats(instance))
    return 0


def _cmd_modify(args: argparse.Namespace) -> int:
    from repro.ldif.modify import apply_modification, parse_modifications
    from repro.updates.incremental import IncrementalChecker

    schema = load_dsl(args.schema)
    instance = load_ldif(args.data)
    with open(args.changes, "r", encoding="utf-8") as handle:
        records = parse_modifications(handle.read())
    guard = IncrementalChecker(schema, instance)
    for record in records:
        outcome = apply_modification(guard, record)
        if not outcome.applied:
            print(f"REJECTED at {record.dn} (earlier records kept):")
            for violation in outcome.report:
                print(f"  {violation}")
            return 1
        print(f"modified {record.dn}")
    if args.out:
        dump_ldif(instance, args.out)
        print(f"wrote updated instance to {args.out}")
    return 0


def _cmd_discover(args: argparse.Namespace) -> int:
    from repro.schema.discovery import DiscoveryOptions, discover_schema
    from repro.schema.dsl import serialize_dsl

    instance = load_ldif(args.data)
    options = DiscoveryOptions(
        min_forbidden_support=args.min_forbidden_support,
    )
    result = discover_schema(instance, options)
    print(
        f"discovered from {len(instance)} entries: "
        f"{len(result.core_classes)} core / "
        f"{len(result.auxiliary_classes)} auxiliary classes, "
        f"{result.required_edges} required and "
        f"{result.forbidden_edges} forbidden relationships",
        file=sys.stderr,
    )
    for note in result.notes:
        print(f"note: {note}", file=sys.stderr)
    text = serialize_dsl(result.schema)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote schema to {args.out}", file=sys.stderr)
    else:
        print(text)
    return 0


def _cmd_consistency(args: argparse.Namespace) -> int:
    schema = load_dsl(args.schema)
    checker = ConsistencyChecker(schema)
    result = checker.check(synthesize=args.witness is not None)
    if result.consistent:
        print(f"CONSISTENT ({len(result.closure)} facts in the closure)")
        empties = result.empty_classes()
        if empties:
            print(
                "warning: these classes can never be populated: "
                + ", ".join(sorted(empties))
            )
        if args.witness is not None:
            if result.witness is not None:
                dump_ldif(result.witness, args.witness)
                print(f"witness instance ({len(result.witness)} entries) "
                      f"written to {args.witness}")
            else:
                # Undecided: the rules found no contradiction, yet the
                # constructive backstop could not build an instance.
                message = f"witness synthesis failed: {result.witness_error}"
                print(message)
                print(message, file=sys.stderr)
                return 3
        return 0
    print("INCONSISTENT")
    if args.proof:
        print(result.proof())
    else:
        print("(re-run with --proof for the derivation of ∅ □)")
    if args.repair:
        from repro.consistency.repair import suggest_repairs

        suggestions = suggest_repairs(schema)
        if suggestions:
            print("repair suggestions (smallest first):")
            for suggestion in suggestions:
                print(f"  {suggestion}")
        else:
            print("no repair of up to 3 structure-element removals exists")
    return 1


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.query.query_parser import parse_query

    instance = load_ldif(args.data)
    if args.hquery:
        query = parse_query(args.hquery)
    else:
        query = Select(parse_filter(args.filter))
    result = QueryEvaluator(instance).evaluate(query)
    for eid in sorted(result, key=lambda e: str(instance.dn_of(e))):
        print(instance.dn_of(eid))
    print(f"({len(result)} entries)", file=sys.stderr)
    return 0


def _cmd_translate(args: argparse.Namespace) -> int:
    schema = load_dsl(args.schema)
    print("# Figure 4: structure elements and their hierarchical queries")
    for element in schema.structure_schema.elements():
        print(translate_element(element))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.workloads import (
        den_schema,
        generate_den,
        generate_whitepages,
        whitepages_schema,
    )

    if args.workload == "whitepages":
        schema = whitepages_schema()
        instance = generate_whitepages(
            orgs=max(1, args.scale),
            units_per_level=3,
            depth=2,
            persons_per_unit=4,
            seed=args.seed,
        )
    else:
        schema = den_schema()
        instance = generate_den(
            sites=max(1, args.scale),
            devices_per_site=4,
            interfaces_per_device=3,
            domains=max(1, args.scale),
            policies_per_domain=5,
            seed=args.seed,
        )
    if args.out:
        dump_ldif(instance, args.out)
        print(f"wrote {len(instance)} entries to {args.out}")
    else:
        print(serialize_ldif(instance))
    if args.schema_out:
        dump_dsl(schema, args.schema_out)
        print(f"wrote schema to {args.schema_out}")
    return 0


def _stop_signal():
    """An event the running loop sets on SIGTERM/SIGINT — what every
    long-running command waits on before it drains and exits."""
    import asyncio
    import signal

    stop = asyncio.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            asyncio.get_running_loop().add_signal_handler(signum, stop.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX
            pass
    return stop


def _cmd_serve(args: argparse.Namespace) -> int:
    """``serve STORE --schema S.dsl [--port N]``: run the asyncio
    network front-end (:mod:`repro.server`) over the store, plain or
    sharded — STORE says which (a fresh ``--replica-of`` directory
    takes its upstream's kind).
    SIGTERM/SIGINT drain gracefully: the listener closes, in-flight
    requests finish, then the store's writer lock is released."""
    import asyncio

    from repro.errors import ShardMapError, StoreError
    from repro.server import DirectoryServer
    from repro.store import is_sharded

    schema = load_dsl(args.schema)

    async def run() -> int:
        server = DirectoryServer(
            args.store,
            schema,
            host=args.host,
            port=args.port,
            replica_of=args.replica_of,
        )
        try:
            await server.start()
        except (StoreError, ShardMapError, OSError) as exc:
            print(f"serve: {exc}", file=sys.stderr)
            return 1
        print(
            f"serving {args.store} on {args.host}:{server.port}"
            + (" (sharded)" if is_sharded(args.store) else "")
            + (f" (replica of {args.replica_of})" if args.replica_of else ""),
            flush=True,
        )
        await _stop_signal().wait()
        print("draining connections and shutting down", file=sys.stderr)
        await server.stop(drain=True)
        return 0

    return asyncio.run(run())


def _cmd_replicate(args: argparse.Namespace) -> int:
    """``replicate DIR --schema S.dsl --from HOST:PORT [--oneshot]``:
    follow a primary server as a WAL-shipping replica.  Bootstraps (or
    resumes from DIR's durable position), catches up to the primary's
    committed frontier, then — unless ``--oneshot`` — keeps applying
    pushed frames until SIGTERM/SIGINT."""
    import asyncio

    from repro.errors import StoreError
    from repro.server.client import DirectoryClient, ServerError, follow_upstream
    from repro.server.protocol import parse_address
    from repro.store import open_replica

    schema = load_dsl(args.schema)
    try:
        host, port = parse_address(args.upstream)
    except ValueError:
        print(f"replicate: --from must be HOST:PORT, got {args.upstream!r}",
              file=sys.stderr)
        return 2

    async def run() -> int:
        try:
            client = await DirectoryClient.connect(host, port)
        except (ConnectionError, OSError) as exc:
            print(f"replicate: cannot reach {args.upstream}: {exc}",
                  file=sys.stderr)
            return 1
        applier = None
        try:
            await client.bind("cn=replica")
            applier = open_replica(
                args.directory, schema, upstream=args.upstream
            )
            # One subscription, two phases: catch up to the frontier the
            # upstream acknowledged, then follow live until the signal
            # (which, between messages, also ends a catch-up early).
            stopping = (
                None if args.oneshot
                else asyncio.ensure_future(_stop_signal().wait())
            )
            synced = False
            async for applier, _ in follow_upstream(client, applier, stop=stopping):
                if not synced and applier.position() >= applier.frontier:
                    synced = True
                    print(
                        f"replica {args.directory}: synced to "
                        f"{applier.position()} from {args.upstream}",
                        flush=True,
                    )
                    if args.oneshot:
                        return 0
            print(
                f"replica stopped at {applier.position()} "
                "(run `promote` to make it writable, or `replicate` again "
                "to keep following)",
                file=sys.stderr,
            )
            return 0
        except (StoreError, ServerError, ConnectionError, OSError) as exc:
            print(f"replicate: {exc}", file=sys.stderr)
            return 1
        finally:
            if applier is not None:
                applier.close()
            await client.close()

    return asyncio.run(run())


def _cmd_promote(args: argparse.Namespace) -> int:
    """``promote DIR --schema S.dsl``: promote a replica store to
    writer.  Refuses when in-doubt 2PC state is visible at the
    replication frontier (only the old primary's coordinator log can
    decide it); a replicated sharded cohort promotes as a unit — every
    member on the last replicated cut, or nothing."""
    from repro.errors import StoreError
    from repro.store import promote

    schema = load_dsl(args.schema)
    try:
        store = promote(args.directory, schema)
    except (StoreError, OSError) as exc:
        print(f"promote: {exc}", file=sys.stderr)
        return 1
    try:
        print(
            f"promoted {args.directory}: "
            + store.position().promoted(len(store.instance))
        )
    finally:
        store.close()
    return 0


def _cmd_frontdoor(args: argparse.Namespace) -> int:
    """``frontdoor --primary HOST:PORT --replica HOST:PORT ...``: run
    the read-balancing proxy (:mod:`repro.server.frontdoor`) over a
    running primary and its replica servers.  Writes route to the
    primary, reads spread across replicas under the bounded-staleness
    contract, and the health loop auto-promotes the most advanced
    replica when the primary dies.  SIGTERM/SIGINT drain gracefully."""
    import asyncio

    from repro.server.frontdoor import FrontDoor
    from repro.server.protocol import parse_address

    for address in [args.primary] + list(args.replica or []):
        try:
            parse_address(address)
        except ValueError:
            print(
                f"frontdoor: member must be HOST:PORT, got {address!r}",
                file=sys.stderr,
            )
            return 2

    async def run() -> int:
        door = FrontDoor(
            args.primary,
            list(args.replica or []),
            host=args.host,
            port=args.port,
            probe_interval=args.probe_interval,
            fail_after=args.fail_after,
        )
        try:
            await door.start()
        except OSError as exc:
            print(f"frontdoor: {exc}", file=sys.stderr)
            return 1
        print(
            f"front door on {args.host}:{door.port} — primary "
            f"{args.primary}, {len(args.replica or [])} replica(s)",
            flush=True,
        )
        await _stop_signal().wait()
        print("draining connections and shutting down", file=sys.stderr)
        await door.stop(drain=True)
        return 0

    return asyncio.run(run())


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="bounding-schemas",
        description="Bounding-schemas for LDAP directories (EDBT 2000).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Every store command finds out from the directory whether it is
    # sharded; --shards survives as an expectation ``main`` checks.
    expects = argparse.ArgumentParser(add_help=False)
    expects.add_argument(
        "--shards",
        action="store_true",
        help="expect the store directory to be sharded: exit 2 when it "
        "holds a plain store (selects nothing — the directory says "
        "which kind it is)",
    )
    # The two commands that take a store's advisory locks wait alike.
    waits = argparse.ArgumentParser(add_help=False)
    waits.add_argument(
        "--wait-lock",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="retry for up to SECONDS (exponential backoff with jitter, "
        "reporting the holder pid) when another process holds a member "
        "store's advisory lock (default 0: fail immediately)",
    )

    validate = sub.add_parser(
        "validate",
        help="test an LDIF instance for legality (check --data under "
        "its old name)",
    )
    validate.add_argument("--schema", required=True, help="bounding-schema DSL file")
    validate.add_argument("--data", required=True, help="LDIF instance file")
    validate.set_defaults(
        func=_cmd_check, store=None, profile=False,
        follow=False, interval=None, iterations=None,
    )

    check = sub.add_parser(
        "check",
        parents=[expects],
        help="legality test (content, structure, extras)",
    )
    check.add_argument("--schema", required=True, help="bounding-schema DSL file")
    source = check.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", help="LDIF instance file")
    source.add_argument(
        "--store",
        metavar="DIR",
        help="check a store directory, plain or sharded, through a "
        "lock-free read-only view (works against a live writer)",
    )
    check.add_argument(
        "--follow",
        action="store_true",
        help="with --store: keep refreshing the view and re-checking "
        "(each round costs only the delta)",
    )
    check.add_argument(
        "--interval",
        type=float,
        metavar="SEC",
        help="polling interval for --follow (default 1s)",
    )
    check.add_argument(
        "--iterations",
        type=int,
        metavar="N",
        help="stop --follow after N check rounds (default: until interrupted)",
    )
    check.add_argument(
        "--profile",
        action="store_true",
        help="print the engine's counter/timer table after the verdict",
    )
    check.set_defaults(func=_cmd_check)

    create = sub.add_parser(
        "create",
        parents=[waits],
        help="initialize a store directory (sharded with --shard)",
    )
    create.add_argument("directory", help="store directory to create")
    create.add_argument("--schema", required=True, help="bounding-schema DSL file")
    create.add_argument(
        "--data", help="initial LDIF instance (default: empty directory)"
    )
    create.add_argument(
        "--shard",
        action="append",
        default=[],
        metavar="NAME=BASE_DN",
        help="route the subtree at BASE_DN to shard NAME (repeatable; "
        "at least one makes the store sharded; every entry must route)",
    )
    create.set_defaults(func=_cmd_create)

    consistency = sub.add_parser("consistency", help="decide schema consistency")
    consistency.add_argument("--schema", required=True)
    consistency.add_argument(
        "--witness", metavar="OUT.ldif", help="synthesize a legal witness instance"
    )
    consistency.add_argument(
        "--proof", action="store_true", help="print the ∅ □ derivation when inconsistent"
    )
    consistency.add_argument(
        "--repair",
        action="store_true",
        help="suggest minimal structure-element removals when inconsistent",
    )
    consistency.set_defaults(func=_cmd_consistency)

    apply = sub.add_parser(
        "apply",
        help="apply LDIF change records through the incremental checker",
    )
    apply.add_argument("--schema", required=True)
    apply.add_argument("--data", required=True, help="current instance (LDIF)")
    apply.add_argument("--changes", required=True, help="LDIF change records")
    apply.add_argument("--out", help="write the updated instance here")
    apply.set_defaults(func=_cmd_apply)

    discover = sub.add_parser(
        "discover",
        help="induce the tightest bounding-schema an LDIF instance satisfies",
    )
    discover.add_argument("--data", required=True)
    discover.add_argument("--out", help="DSL output path (default: stdout)")
    discover.add_argument(
        "--min-forbidden-support",
        type=int,
        default=2,
        help="emit forbidden edges only between classes with this many members",
    )
    discover.set_defaults(func=_cmd_discover)

    modify = sub.add_parser(
        "modify",
        help="apply changetype:modify records through the incremental checker",
    )
    modify.add_argument("--schema", required=True)
    modify.add_argument("--data", required=True)
    modify.add_argument("--changes", required=True, help="LDIF modify records")
    modify.add_argument("--out", help="write the updated instance here")
    modify.set_defaults(func=_cmd_modify)

    fsck = sub.add_parser(
        "fsck",
        parents=[expects],
        help="scan every member of a store directory for journal damage "
        "and in-doubt 2PC state (dry run); with --schema also report "
        "each member's position and lag and the legality "
        "verdict",
    )
    fsck.add_argument(
        "directory", nargs="?", default=None,
        help="store directory, plain or sharded; omit with --frontdoor",
    )
    fsck.add_argument(
        "--schema", help="also open a lock-free view and check it against "
        "this DSL"
    )
    fsck.add_argument(
        "--read-only",
        action="store_true",
        help="skip the journal scan: inspect through the view only "
        "(requires --schema; safe against a live writer)",
    )
    fsck.add_argument(
        "--frontdoor", metavar="HOST:PORT",
        help="report a running front door's topology (member liveness, "
        "frontiers, lost floors) instead of scanning a directory",
    )
    fsck.set_defaults(func=_cmd_fsck)

    recover = sub.add_parser(
        "recover",
        parents=[expects, waits],
        help="repair every member of a store under its advisory lock: "
        "quarantine damaged journal bytes, reset stale journals, then "
        "resolve in-doubt 2PC participants from the coordinator log "
        "(presumed abort)",
    )
    recover.add_argument("directory", help="store directory, plain or sharded")
    recover.add_argument(
        "--schema", help="the store's DSL, needed only to resolve in-doubt "
        "2PC transactions"
    )
    recover.add_argument(
        "--force",
        action="store_true",
        help="quarantine corrupt (not merely torn) journal tails too",
    )
    recover.set_defaults(func=_cmd_recover)

    serve = sub.add_parser(
        "serve",
        parents=[expects],
        help="serve a store, plain or sharded, over the network "
        "(asyncio, LDAP-ish wire protocol; see repro.server)",
    )
    serve.add_argument("store", help="store directory to serve")
    serve.add_argument("--schema", required=True)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=3890,
        help="bind port (0: ephemeral; the bound port is printed either "
        "way)",
    )
    serve.add_argument(
        "--replica-of",
        dest="replica_of",
        metavar="HOST:PORT",
        help="run as a replica of this primary server: serve reads from "
        "the replicated copy, answer writes with not_writable, and "
        "accept promote/reattach (the front door's failover surface)",
    )
    serve.set_defaults(func=_cmd_serve)

    replicate = sub.add_parser(
        "replicate",
        parents=[expects],
        help="follow a primary server as a WAL-shipping replica "
        "(bootstrap or resume, then apply pushed frames)",
    )
    replicate.add_argument(
        "directory", help="local replica store directory (created if fresh)"
    )
    replicate.add_argument("--schema", required=True)
    replicate.add_argument(
        "--from",
        dest="upstream",
        required=True,
        metavar="HOST:PORT",
        help="primary server address (a `serve` process; a fresh "
        "directory takes the kind of store it serves)",
    )
    replicate.add_argument(
        "--oneshot",
        action="store_true",
        help="catch up to the primary's committed frontier and exit "
        "instead of following live",
    )
    replicate.set_defaults(func=_cmd_replicate)

    promote = sub.add_parser(
        "promote",
        parents=[expects],
        help="promote a replica store to writer (epoch bump; refuses "
        "visible in-doubt 2PC state; a sharded cohort promotes every "
        "shard on the recorded cut, or refuses atomically)",
    )
    promote.add_argument("directory", help="replica store directory")
    promote.add_argument("--schema", required=True)
    promote.set_defaults(func=_cmd_promote)

    frontdoor = sub.add_parser(
        "frontdoor",
        help="read-balancing proxy over a primary and its replicas "
        "(bounded-staleness routing, automatic failover)",
    )
    frontdoor.add_argument(
        "--primary", required=True, metavar="HOST:PORT",
        help="the writable member server",
    )
    frontdoor.add_argument(
        "--replica", action="append", default=[], metavar="HOST:PORT",
        help="a replica member server (repeat per replica)",
    )
    frontdoor.add_argument("--host", default="127.0.0.1")
    frontdoor.add_argument(
        "--port", type=int, default=3891,
        help="bind port (0: ephemeral; the bound port is printed either "
        "way)",
    )
    frontdoor.add_argument(
        "--probe-interval", type=float, default=0.5,
        help="seconds between health probes of every member",
    )
    frontdoor.add_argument(
        "--fail-after", type=int, default=2,
        help="consecutive failed probes before a member is declared "
        "dead (the primary's death triggers failover)",
    )
    frontdoor.set_defaults(func=_cmd_frontdoor)

    stats = sub.add_parser("stats", help="structural summary of an LDIF instance")
    stats.add_argument("--data", required=True)
    stats.set_defaults(func=_cmd_stats)

    query = sub.add_parser(
        "query", help="run an LDAP filter or hierarchical query against an instance"
    )
    query.add_argument("--data", required=True)
    group = query.add_mutually_exclusive_group(required=True)
    group.add_argument("--filter", help="RFC 2254 filter string")
    group.add_argument(
        "--hquery",
        help="hierarchical query, e.g. '(d (objectClass=orgGroup) (objectClass=person))'",
    )
    query.set_defaults(func=_cmd_query)

    translate = sub.add_parser(
        "translate", help="show the Figure 4 query for every structure element"
    )
    translate.add_argument("--schema", required=True)
    translate.set_defaults(func=_cmd_translate)

    generate = sub.add_parser("generate", help="generate a sample directory")
    generate.add_argument(
        "--workload", choices=("whitepages", "den"), default="whitepages"
    )
    generate.add_argument("--scale", type=int, default=1)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", help="LDIF output path (default: stdout)")
    generate.add_argument("--schema-out", help="also write the workload schema DSL")
    generate.set_defaults(func=_cmd_generate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "shards", False):
        from repro.store import is_sharded

        directory = getattr(args, "store", None) or getattr(
            args, "directory", None
        )
        if directory is not None and is_sharded(directory) is False:
            print(
                f"{args.command}: --shards given, but {directory} holds "
                "a plain store",
                file=sys.stderr,
            )
            return 2
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
