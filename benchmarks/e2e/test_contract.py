"""Name contract of the benchmark (run explicitly; tier-1 does not collect it):

    python3 -m pytest benchmarks/e2e/test_contract.py
"""

import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import declared  # noqa: E402
from topology import ROOT  # noqa: E402
from workloads import WORKLOADS, stream_digest  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_quick_run_emits_exactly_the_declared_names():
    spec = declared()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick", "--label", "contract"],
        capture_output=True, text=True, timeout=900, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    emitted = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) == 5 and parts[0] in WORKLOADS and parts[4].startswith("n="):
            workload, metric, value, _unit, _n = parts
            assert NAME.fullmatch(workload) and NAME.fullmatch(metric), line
            assert math.isfinite(float(value)), line
            emitted.setdefault(workload, set()).add(metric)
    names = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert set(emitted) == {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    for workload, metrics in emitted.items():
        assert metrics == names, (workload, metrics ^ names)
    with open(os.path.join(HERE, "results", "BENCH_contract.json"), encoding="utf-8") as handle:
        document = json.load(handle)
    for workload, result in document["workloads"].items():
        assert result["failed"] == 0, workload  # failed_ops_share == 0 at this commit


def test_streams_are_a_function_of_the_seed_alone():
    for name, spec in WORKLOADS.items():
        tables = spec.tables(spec.generate(), bool(spec.shard_bases))

        def digests(seed):
            return [stream_digest(s) for s in spec.streams(tables, seed, name)]

        assert digests(11) == digests(11), name
        assert all(a != b for a, b in zip(digests(11), digests(12))), name
