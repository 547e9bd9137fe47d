#!/usr/bin/env python3
"""Compare two result files of ``run.py`` under the issue's regression bounds.

    python3 benchmarks/e2e/compare.py results/BENCH_a.json results/BENCH_b.json

One row per (workload, metric): ``better`` / ``same`` / ``worse`` by the
metric's bound below, or ``unresolved`` when either input's own
run-to-run spread (distance between the quartiles of its timed runs, as
a share of their median) is wider than the bound or unknown, so the
difference cannot be told from noise.  A spread needs at least four
timed runs per input (``run.py --repeat 4``).  Counts that repeat
exactly are compared for equality when both files ran the same seed.
Exits 1 if any row is ``worse`` or a larger share of ops failed than
before.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: The share of the first file's median by which a metric of the timed
#: runs may get worse.  ``BENCHMARK.json`` carries wider ones: there a
#: bound is the driver's gate on this box's run-to-run noise, here noise
#: reads ``unresolved``.
BOUNDS = {
    "setup_s": 0.15,
    "ops_per_s": 0.10,
    "lead_p50_ms": 0.10,
    "peer_mean_ms": 0.10,
    "peak_rss_mb": 0.05,
    "load.search_p50_ms": 0.10,
    "load.write_p50_ms": 0.10,
    "load.ryw_search_p50_ms": 0.10,
    "load.check_p50_ms": 0.10,
    "load.peer_tail_ms": 0.20,
}
#: Per-layer counts of the single-threaded in-process replay, all better
#: when lower: the same seed gives the same value, so any difference is
#: the code's.
EXACT = (
    "disk.bytes_per_write",
    "wal.bytes_per_user_byte",
    "txlog.bytes_per_local_txn",
    "txlog.bytes_per_spanning_txn",
    "index.probes_per_search",
    "incremental.content_checks",
)


def spread(runs: list) -> float:
    if len(runs) < 4:
        return float("inf")
    first, _median, third = statistics.quantiles(runs, n=4)
    return (third - first) / statistics.median(runs)


def verdict(better: str, bound: float, before: list, after: list) -> tuple:
    """``(word, change)``: ``change`` is the after-median's distance from
    the before-median as a share of it, positive when worse."""
    base, new = statistics.median(before), statistics.median(after)
    change = (new - base) / base
    if better == "higher":
        change = -change
    if max(spread(before), spread(after)) > bound:
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "same", change


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    better = {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}
    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    same_seed = documents[0]["seed"] == documents[1]["seed"]
    before, after = (document["workloads"] for document in documents)
    worse = 0
    for workload in before:
        if workload not in after:
            continue
        old, new = before[workload], after[workload]
        for name, bound in BOUNDS.items():
            if name not in old["timed"] or name not in new["timed"]:
                continue  # a request kind this workload does not send
            runs = old["timed"][name]["runs"], new["timed"][name]["runs"]
            word, change = verdict(better[name], bound, *runs)
            worse += word == "worse"
            print(f"{workload} {name} {word} {change:+.1%} "
                  f"(bound {bound:.0%}, runs {len(runs[0])}/{len(runs[1])})")
        if same_seed:
            for name in EXACT:
                was, now = old["per_layer"][name]["value"], new["per_layer"][name]["value"]
                word = "same" if now == was else "better" if now < was else "worse"
                worse += word == "worse"
                print(f"{workload} {name} {word} {was:.6g} -> {now:.6g} (exact)")
            if old["stream_digests"] != new["stream_digests"]:
                worse += 1
                print(f"{workload} stream_digests worse: same seed, other traffic")
        for side, doc in (("before", old), ("after", new)):
            if doc["failed"]:
                print(f"{workload} failed_ops {side}: {doc['failed']} of {doc['attempted']}")
        if new["failed"] / new["attempted"] > old["failed"] / old["attempted"]:
            worse += 1
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
