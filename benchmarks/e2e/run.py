#!/usr/bin/env python3
"""End-to-end benchmark of the whole topology, with a per-layer table.

    python3 benchmarks/e2e/run.py --seed 11                 # every workload
    python3 benchmarks/e2e/run.py --workload den_churn      # one workload
    python3 benchmarks/e2e/run.py --quick                   # smoke: 1 s phases

With ``--workload NAME --trace 0|1`` the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding
the end-to-end metrics (``--trace 0``) or the per-layer ones
(``--trace 1``) that ``BENCHMARK.json`` declares.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import loadgen  # noqa: E402
from speed import REFERENCE_S, SpeedMeter  # noqa: E402
from topology import ROOT, MemberFailure, Topology  # noqa: E402
from workloads import WORKLOADS, stream_digest  # noqa: E402

WORK_ROOT = os.path.join(HERE, "work")
RESULTS = os.path.join(HERE, "results")
#: The contract allows one run 180 s; a workload that is not done by
#: then has a hung member, which is named instead of waited for.
WORKLOAD_TIMEOUT_S = 170.0
#: Topologies per timed run: ``setup_s`` is the median of their set-up
#: times, and each carries its share of ``--seconds`` of traffic.  The
#: driver's time cap for all its runs leaves room for no more.
SETUPS = 2


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def environment(work: str) -> dict:
    """Where the numbers were taken: recorded, never acted on except for
    the load refusal in :func:`main`."""
    mount, fstype = "", "unknown"
    with open("/proc/mounts", encoding="utf-8") as handle:
        for line in handle:
            _dev, point, kind = line.split()[:3]
            if work.startswith(point.rstrip("/") + "/") and len(point) > len(mount):
                mount, fstype = point, kind
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"  # an exported tree, not a repository
    return {
        "nproc": os.cpu_count(),
        "connections": loadgen.CONNECTIONS,
        "speed_reference_ms": 1e3 * REFERENCE_S,
        "python": platform.python_version(),
        "git_sha": sha,
        "filesystem": fstype,
        "loadavg_1m": os.getloadavg()[0],
    }


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
class Run:
    """One workload, one mode.  Owns the live topology so the timeout
    handler can ask which member stopped answering."""

    def __init__(self, spec, seed: int, seconds: float, trace_ops: int) -> None:
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.trace_ops = trace_ops
        self.topo = None
        self.meter = SpeedMeter()
        self.work = os.path.join(WORK_ROOT, f"{spec.name}-{os.getpid()}")

    def stream_key(self, phase: int) -> str:
        """What the op streams of a run's ``phase``-th topology are keyed
        by besides the seed.  The first is the workload's name alone, so
        it sends what the traced run replays."""
        return self.spec.name if phase == 0 else f"{self.spec.name}#{phase}"

    async def setup(self, tag: str):
        self.topo = Topology(os.path.join(self.work, tag), self.spec)
        baseline = await self.topo.start()
        return baseline, sum(self.topo.steps.values())

    def teardown(self) -> None:
        if self.topo is not None:
            self.topo.stop()
            self.topo = None

    async def timed(self, setups: int) -> dict:
        """``setups`` topologies one after the other, each set up and
        loaded for its share of ``seconds``: what differs from one set-up
        to the next (where the processes land, how the followers' lag
        settles) is averaged inside the run.  Every reply of every phase
        is checked; the end-of-run verification is the last topology's."""
        phases, windows = [], []
        for index in range(setups):
            try:
                began = time.perf_counter()
                baseline, took = await self.setup(f"run{index}")
                windows.append((began, time.perf_counter(), took))
                tables = self.spec.tables(baseline, bool(self.spec.shard_bases))
                twin = loadgen.twin_of(baseline)
                streams = self.spec.streams(tables, self.seed, self.stream_key(index))
                phases.append(await loadgen.timed_phase(
                    self.topo, streams, twin, self.seconds / setups))
                if index == setups - 1:
                    steps = dict(self.topo.steps)
                    problems = await loadgen.verify_topology(self.topo, twin)
            finally:
                self.teardown()
        self.meter.stop()
        factor = self.meter.factor
        result = loadgen.summarise(phases, [factor(p.began, p.ended) for p in phases])
        result["metrics"]["setup_s"] = (
            statistics.median(took / factor(began, ended) for began, ended, took in windows),
            "s", setups)
        last = factor(*windows[-1][:2])
        result["detail"].update(
            {f"setup.{step}": (value / last, "s", 1) for step, value in steps.items()})
        # primary check, primary digest, reopened-store digest, one per replica
        result["attempted"] += 3 + self.spec.replicas
        result["failed"] += len(problems)
        result["problems"] += problems
        return result

    async def traced(self) -> dict:
        began = time.perf_counter()
        baseline, _took = await self.setup("trace")
        result = await layers.traced_run(
            self.topo, self.spec, baseline, self.seed, self.seconds,
            self.trace_ops, os.path.join(self.work, "twin"),
        )
        # the traced run's times are as measured; this says on how fast a box
        self.meter.stop()
        result["metrics"]["speed.factor"] = (
            self.meter.factor(began, time.perf_counter()), "ratio", 1)
        os.makedirs(RESULTS, exist_ok=True)
        layers.write_spans(
            os.path.join(RESULTS, f"trace_{self.spec.name}.json"), result.pop("spans")
        )
        return result

    async def guarded(self, coroutine) -> dict:
        try:
            return await asyncio.wait_for(coroutine, WORKLOAD_TIMEOUT_S)
        except asyncio.TimeoutError:
            hung = await self.topo.unresponsive() if self.topo else []
            if hung:
                raise MemberFailure(
                    hung[0], f"stopped answering; {self.spec.name} timed out"
                ) from None
            raise RuntimeError(
                f"{self.spec.name} exceeded {WORKLOAD_TIMEOUT_S:.0f} s "
                "with every member still answering"
            ) from None
        finally:
            self.teardown()
            self.meter.stop()
            shutil.rmtree(self.work, ignore_errors=True)


def run_workload(name, seed, seconds, trace, trace_ops, setups) -> dict:
    run = Run(WORKLOADS[name], seed, seconds, trace_ops)
    mode = run.traced() if trace else run.timed(setups)
    return asyncio.run(run.guarded(mode))


def digests(name: str, seed: int) -> list:
    spec = WORKLOADS[name]
    tables = spec.tables(spec.generate(), bool(spec.shard_bases))
    return [stream_digest(s) for s in spec.streams(tables, seed, name)]


def per_run(runs: list) -> dict:
    """One value per timed run of everything a timed run prints:
    ``compare.py`` reads medians and spreads."""
    merged = [{**run["metrics"], **run["detail"]} for run in runs]
    return {
        name: {"unit": unit, "runs": [values[name][0] for values in merged]}
        for name, (_value, unit, _count) in merged[0].items()
    }


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
def contract_line(result: dict, names: list) -> str:
    metrics = {}
    for name in names:
        value, unit, _n = result["metrics"][name]
        if not math.isfinite(value):
            raise RuntimeError(f"{name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": unit}
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def report(workload: str, result: dict) -> None:
    for name, (value, unit, count) in result["metrics"].items():
        print(f"{workload} {name} {value:.6g} {unit} n={count}")
    for name, (value, unit, count) in sorted(result["detail"].items()):
        print(f"# {workload} {name} {value:.6g} {unit} n={count}")
    for problem in result["problems"]:
        print(f"! {workload} {problem}")


def main(argv=None) -> int:
    spec = declared()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: 1 s phases, 50-op trace, one set-up")
    parser.add_argument("--repeat", type=int, default=1,
                        help="timed runs per workload (compare.py needs >= 4 for a spread)")
    parser.add_argument("--label", default=None,
                        help="results/BENCH_<label>.json (default: seed<N>)")
    args = parser.parse_args(argv)
    setups, trace_ops = SETUPS, layers.TRACE_OPS
    if args.quick:
        args.seconds, setups, trace_ops = 1.0, 1, 50

    # a terminated run still reaps its members
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(WORK_ROOT, exist_ok=True)
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]

    if args.workload and args.trace is not None:
        result = run_workload(
            args.workload, args.seed, args.seconds, args.trace, trace_ops, setups
        )
        report(args.workload, result)
        print(contract_line(result, per_layer if args.trace else end_to_end))
        return 1 if result["failed"] else 0

    env = environment(WORK_ROOT)
    if env["loadavg_1m"] > env["nproc"]:
        print(f"refusing to measure: 1-minute load average {env['loadavg_1m']:.2f} "
              f"exceeds nproc={env['nproc']}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    document = {"seed": args.seed, "seconds": args.seconds, "environment": env,
                "workloads": {}}
    failed = 0
    for name in names:
        runs = []
        for _ in range(args.repeat):
            timed = run_workload(name, args.seed, args.seconds, 0, trace_ops, setups)
            report(name, timed)
            runs.append(timed)
        traced = run_workload(name, args.seed, args.seconds, 1, trace_ops, setups)
        report(name, traced)
        failed += sum(r["failed"] for r in runs) + traced["failed"]
        document["workloads"][name] = {
            "stream_digests": digests(name, args.seed),
            "attempted": sum(r["attempted"] for r in runs) + traced["attempted"],
            "failed": sum(r["failed"] for r in runs) + traced["failed"],
            "timed": per_run(runs),
            "per_layer": {m: {"unit": u, "value": v} for m, (v, u, _n) in traced["metrics"].items()},
            "layer_table": traced["table"],
        }
    os.makedirs(RESULTS, exist_ok=True)
    label = args.label or f"seed{args.seed}"
    path = os.path.join(RESULTS, f"BENCH_{label}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
    print(f"wrote {os.path.relpath(path, ROOT)}")
    print(layers.render_tables(document))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
