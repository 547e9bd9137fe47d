"""Differential multi-process stress driver for the reader/writer split.

Topology: one **writer** process runs a randomized transaction stream
(``workloads.update_streams.random_transaction``) with periodic
compactions against a real on-disk store; N **reader** processes open
lock-free :class:`~repro.store.reader.StoreReader` views of the same
directory and spin on ``refresh()``.

The correctness oracle is *differential*: after every durable commit
(and every compaction) the writer appends one line

    ``<generation> <seq> <blake2b(serialize_ldif(instance))>``

to an oracle file via a single ``O_APPEND`` write (well under
``PIPE_BUF``, so lines never interleave).  Whenever a reader's refresh
moves its view to a new ``(generation, seq)`` position, the reader
digests its own instance and compares against the oracle entry for
that exact position — waiting for the entry if the writer has
committed but not yet logged it.  A mismatch means the reader
materialized a state the writer never passed through at that position:
the one thing the split must never do.

Termination: the writer drops a done-marker after its last commit;
readers run until their view reaches the writer's final position (so
every reader provably catches up, not merely samples).
"""

from __future__ import annotations

import hashlib
import json
import os
import time

from repro.errors import StaleReadError
from repro.ldif.writer import serialize_ldif
from repro.store import DirectoryStore
from repro.store.reader import StoreReader
from repro.workloads import (
    figure1_instance,
    random_transaction,
    whitepages_registry,
    whitepages_schema,
)

ORACLE_FILE = "oracle.log"
DONE_FILE = "writer.done"


def state_digest(instance) -> str:
    """Canonical digest of an instance's full serialized content — the
    byte-identity the stress oracle compares."""
    return hashlib.blake2b(serialize_ldif(instance).encode("utf-8")).hexdigest()


def canonical_records(instance):
    """Order-independent canonical form of an instance: one record per
    entry — display DN plus sorted attribute lines (case-folded DN key
    for ordering only; the display spelling itself is compared)."""
    records = []
    for entry in instance:
        dn = instance.dn_string_of(entry)
        lines = tuple(
            sorted(
                f"{name}: {value}"
                for name in entry.attribute_names()
                for value in entry.values(name)
            )
        )
        records.append((dn.casefold(), dn, lines))
    return sorted(records)


def _append_oracle(path: str, generation: int, seq: int, digest: str) -> None:
    line = f"{generation} {seq} {digest}\n".encode("ascii")
    assert len(line) < 512  # single O_APPEND write: never interleaves
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        written = os.write(fd, line)
        while written < len(line):  # pragma: no cover - short-write safety
            written += os.write(fd, line[written:])
    finally:
        os.close(fd)


def load_oracle(path: str):
    """``{(generation, seq): digest}`` plus the last-written position
    (the writer's frontier), or ``({}, None)`` before the file exists."""
    entries = {}
    last = None
    digest_len = hashlib.blake2b().digest_size * 2
    try:
        with open(path, "r", encoding="ascii") as fh:
            for line in fh:
                # A concurrent reader can observe the frontier line
                # mid-write: only complete lines count.
                if not line.endswith("\n"):
                    continue
                parts = line.split()
                if len(parts) != 3 or len(parts[2]) != digest_len:
                    continue
                position = (int(parts[0]), int(parts[1]))
                entries[position] = parts[2]
                last = position
    except FileNotFoundError:
        pass
    return entries, last


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
def writer_main(
    workdir: str,
    transactions: int,
    compact_every: int,
    seed: int,
    inserts: int = 2,
) -> None:
    """The writer process body: create, commit, compact, mark done."""
    store_dir = os.path.join(workdir, "store")
    oracle = os.path.join(workdir, ORACLE_FILE)
    done = os.path.join(workdir, DONE_FILE)
    store = DirectoryStore.create(
        store_dir, whitepages_schema(), figure1_instance(), whitepages_registry()
    )
    try:
        # The oracle line always lands *after* the state it describes is
        # durable, so any position a reader can observe is (eventually)
        # in the oracle.
        _append_oracle(oracle, store.generation, 0, state_digest(store.instance))
        for i in range(transactions):
            tx = random_transaction(store.instance, inserts=inserts, seed=seed + i)
            outcome = store.apply(tx)
            assert outcome.applied, f"stress transaction {i} rejected: {outcome}"
            _append_oracle(
                oracle,
                store.generation,
                store.journal_length,
                state_digest(store.instance),
            )
            if compact_every and (i + 1) % compact_every == 0:
                store.compact()
                _append_oracle(
                    oracle, store.generation, 0, state_digest(store.instance)
                )
    finally:
        store.close()
        with open(done, "w") as fh:
            fh.write("done\n")


def reader_main(
    workdir: str, reader_id: int, deadline_seconds: float = 120.0
) -> None:
    """The reader process body: follow the WAL, check every new position
    against the oracle, stop once caught up with a finished writer.
    Writes a JSON result file; any exception lands in the result too so
    the driver can report it instead of a bare nonzero exit."""
    store_dir = os.path.join(workdir, "store")
    oracle = os.path.join(workdir, ORACLE_FILE)
    done = os.path.join(workdir, DONE_FILE)
    result_path = os.path.join(workdir, f"reader-{reader_id}.json")
    result = {
        "reader": reader_id,
        "checked": 0,
        "refreshes": 0,
        "rebootstraps": 0,
        "mismatches": [],
        "error": None,
        "final": None,
    }
    deadline = time.monotonic() + deadline_seconds
    reader = None
    try:
        # The store directory appears atomically (create() renames a
        # complete temp dir into place) but possibly after we start.
        while reader is None:
            try:
                reader = StoreReader.open(
                    store_dir, whitepages_schema(), whitepages_registry()
                )
            except (FileNotFoundError, StaleReadError):
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)
        checked_position = None
        while True:
            refreshed = reader.refresh()
            result["refreshes"] += 1
            if refreshed.rebootstrapped:
                result["rebootstraps"] += 1
            if not refreshed.advanced:
                # Polite polling: a busy spin would starve the writer on
                # small machines (CI runners can be single-core).
                time.sleep(0.002)
            position = reader.position()
            if position != checked_position:
                digest = state_digest(reader.instance)
                entries, _ = load_oracle(oracle)
                while position not in entries:
                    if time.monotonic() > deadline:
                        raise TimeoutError(
                            f"oracle never recorded position {position}"
                        )
                    time.sleep(0.005)
                    entries, _ = load_oracle(oracle)
                if entries[position] != digest:
                    result["mismatches"].append(
                        {"position": list(position), "digest": digest,
                         "expected": entries[position]}
                    )
                result["checked"] += 1
                checked_position = position
            if os.path.exists(done):
                _, frontier = load_oracle(oracle)
                if frontier is not None and checked_position == frontier:
                    break
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"reader stuck at {checked_position} before the "
                    "writer's frontier"
                )
        result["final"] = list(checked_position)
    except BaseException as exc:  # report, don't just die
        result["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        if reader is not None:
            reader.close()
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(result, fh)


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def run_stress(
    workdir: str,
    transactions: int = 200,
    readers: int = 4,
    compact_every: int = 50,
    seed: int = 20260806,
    deadline_seconds: float = 120.0,
):
    """Run the full topology; returns the list of reader result dicts.

    Raises ``AssertionError`` with full diagnostics when any process
    failed, any reader saw a divergent state, or any reader failed to
    catch up with the writer's final position.
    """
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    writer = ctx.Process(
        target=writer_main,
        args=(workdir, transactions, compact_every, seed),
        name="stress-writer",
    )
    reader_procs = [
        ctx.Process(
            target=reader_main,
            args=(workdir, i, deadline_seconds),
            name=f"stress-reader-{i}",
        )
        for i in range(readers)
    ]
    writer.start()
    for proc in reader_procs:
        proc.start()
    writer.join(deadline_seconds)
    for proc in reader_procs:
        proc.join(deadline_seconds)
    alive = [p.name for p in [writer, *reader_procs] if p.is_alive()]
    for proc in [writer, *reader_procs]:
        if proc.is_alive():  # pragma: no cover - deadline pathology
            proc.terminate()
            proc.join()
    assert not alive, f"stress processes missed the deadline: {alive}"
    assert writer.exitcode == 0, f"writer exited {writer.exitcode}"

    _, frontier = load_oracle(os.path.join(workdir, ORACLE_FILE))
    results = []
    for i in range(readers):
        path = os.path.join(workdir, f"reader-{i}.json")
        assert os.path.exists(path), f"reader {i} left no result file"
        with open(path, "r", encoding="utf-8") as fh:
            result = json.load(fh)
        assert result["error"] is None, f"reader {i}: {result['error']}"
        assert not result["mismatches"], (
            f"reader {i} diverged from the writer: {result['mismatches'][:3]}"
        )
        assert result["final"] == list(frontier), (
            f"reader {i} finished at {result['final']}, "
            f"writer's frontier is {frontier}"
        )
        assert result["checked"] > 0
        results.append(result)
    return results
