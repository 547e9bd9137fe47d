"""How fast this box runs Python right now: a reference loop beside the run.

The sandbox's cores change speed under the benchmark: an idle loop
alternates between two speeds about 50 % apart, for under a second or
for minutes, and every latency follows it.  A child process times one
small fixed piece of interpreter work every ``PERIOD_S`` for as long as
a run lasts.  ``SpeedMeter.factor(began, ended)`` is how much slower
than ``REFERENCE_S`` that work ran in an interval, and the timed run
divides what it measured in that interval by it, so its numbers read as
on a box of the reference speed.

It has to be measured *beside* the load, not before or after it: with
both vCPUs busy the loop runs slower than on an idle box, and so do the
members.  And it is the mean that tracks the members, not the median: a
sample that was preempted or met a slow burst is what a member's request
meets too.

Run as a script this file is the child: it samples until it is
terminated or its parent is gone, then prints its samples as one JSON
line.
"""

from __future__ import annotations

import bisect
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import List

PERIOD_S = 0.02
#: What one ``reference_work()`` takes on the box the bounds were set on,
#: loaded, at the faster of its two speeds.
REFERENCE_S = 0.30e-3
#: Share of the samples left out at either end of an interval: one
#: sample that sat out a long stall must not set the factor.
TRIM = 0.02

_DNS = [f"uid=user{i},ou=unit{i % 17},o=org{i % 4}" for i in range(100)]
_REPLY = {"id": 1, "entries": [
    {"dn": dn, "attributes": {"uid": [dn[4:10]], "name": ["some name"],
                              "objectClass": ["person", "top"]}}
    for dn in _DNS[:15]
]}


def reference_work() -> None:
    """A little of what the members do all day: arithmetic in a loop,
    strings into dicts and sorted back out, a reply through JSON."""
    x = 0
    for i in range(2000):
        x += i * i % 7
    parts = {dn: dn.split(",") for dn in _DNS}
    ordered = sorted(parts, key=lambda dn: parts[dn][1])
    sum(len(parts[dn]) for dn in ordered if dn.endswith("o=org1"))
    json.loads(json.dumps(_REPLY))


def _sample_until_terminated() -> None:
    stamps: List[float] = []
    took: List[float] = []
    stop: List[int] = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(1))
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent decides
    parent = os.getppid()
    clock = time.perf_counter  # CLOCK_MONOTONIC: one clock for parent and child
    while not stop and os.getppid() == parent:
        time.sleep(PERIOD_S)
        began = clock()
        reference_work()
        took.append(clock() - began)
        stamps.append(began)
    sys.stdout.write(json.dumps([stamps, took]) + "\n")


class SpeedMeter:
    """The sampling child, from construction to :meth:`stop`."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdout=subprocess.PIPE, text=True,
        )
        self.stamps: List[float] = []
        self.took: List[float] = []

    def stop(self) -> None:
        """Terminate the child, wait for it and keep what it sampled.
        A second call does nothing."""
        if self.proc.stdout.closed:
            return
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            out, _ = self.proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        if out.strip():
            self.stamps, self.took = json.loads(out)

    def factor(self, began: float, ended: float) -> float:
        """Trimmed mean of the samples taken in ``[began, ended]`` (on
        ``time.perf_counter``) over ``REFERENCE_S``.  Call after
        :meth:`stop`."""
        window = sorted(self.took[
            bisect.bisect_left(self.stamps, began):bisect.bisect_right(self.stamps, ended)
        ])
        if len(window) < 10:
            raise RuntimeError(
                f"the speed meter took {len(window)} samples in "
                f"{ended - began:.2f} s; it needs 10"
            )
        cut = int(len(window) * TRIM)
        return statistics.fmean(window[cut:len(window) - cut]) / REFERENCE_S


if __name__ == "__main__":
    _sample_until_terminated()
