"""Real member processes for one workload: spawn, discover, measure, reap.

Every member is ``python -m repro.cli serve|frontdoor --port 0`` in its
own session; its port comes from the banner it prints, its output is
captured line by line so a failure can quote it, and :meth:`stop` kills
and reaps the whole process group on every exit path.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.schema.dsl import dump_dsl  # noqa: E402
from repro.server.client import DirectoryClient, ServerError  # noqa: E402
from repro.server.frontdoor import position_geq  # noqa: E402
from repro.store import DirectoryStore  # noqa: E402
from repro.store.sharded import ShardedStore  # noqa: E402

#: A member that has not printed its banner by then is a failure.
BANNER_TIMEOUT_S = 60.0
#: Replica bootstrap and the door's first answers share this budget.
READY_TIMEOUT_S = 90.0
#: The door probes a member's health on the connection it forwards reads
#: on, with a 2 s timeout whose expiry drops that connection.  A first
#: read that opens a 16k-entry view takes longer, is dropped with it and
#: starts over, for ever.  Thirty seconds keeps the first probe out of
#: set-up; failover speed, which this setting tunes, is not measured.
DOOR_PROBE_INTERVAL_S = "30"


class MemberFailure(RuntimeError):
    """A member process died, hung or never came up; carries its name
    and the output it printed, so the report names the culprit."""

    def __init__(self, member: "Member", what: str) -> None:
        tail = "".join(member.output[-20:]) or "(no output)\n"
        super().__init__(f"member {member.name}: {what}\n--- its output:\n{tail}")
        self.member = member.name


@dataclass
class Member:
    """One child process of the topology."""

    name: str
    args: List[str]
    banner: str
    store_dir: Optional[str] = None
    proc: Optional[subprocess.Popen] = None
    port: int = 0
    output: List[str] = field(default_factory=list)
    _ready: threading.Event = field(default_factory=threading.Event)
    _pump: Optional[threading.Thread] = None

    @property
    def address(self) -> str:
        return f"127.0.0.1:{self.port}"

    def spawn(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *self.args],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            start_new_session=True,
        )
        self._pump = threading.Thread(target=self._read_output, daemon=True)
        self._pump.start()

    def _read_output(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        for line in self.proc.stdout:
            self.output.append(line)
            if not self._ready.is_set() and line.startswith(self.banner):
                # "serving DIR on HOST:PORT ..." / "front door on HOST:PORT — ..."
                address = line.split(" on ", 1)[1].split()[0]
                self.port = int(address.rsplit(":", 1)[1])
                self._ready.set()
        self._ready.set()  # EOF: wake the waiter so it sees the exit

    async def wait_banner(self) -> None:
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._ready.wait, BANNER_TIMEOUT_S)
        if not self.port:
            state = (
                "exited before its banner"
                if self.proc is not None and self.proc.poll() is not None
                else f"printed no banner within {BANNER_TIMEOUT_S:.0f} s"
            )
            raise MemberFailure(self, state)

    def kill(self) -> None:
        """SIGKILL the member's process group and reap it."""
        if self.proc is None:
            return
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        if self._pump is not None:
            self._pump.join(timeout=5)
        if self.proc.stdout is not None:
            self.proc.stdout.close()

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the live process, in MB."""
        assert self.proc is not None
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise MemberFailure(self, "has no VmHWM line in /proc status")


def tree_bytes(path: str) -> int:
    """Bytes of every regular file under ``path``."""
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(base, name))
            except OSError:
                pass  # a sidecar replaced mid-walk
    return total


class Topology:
    """Primary (+ replicas) + front door for one workload, in ``work``."""

    def __init__(self, work: str, spec) -> None:
        self.work = work
        self.spec = spec
        self.schema_path = os.path.join(work, "schema.dsl")
        self.primary_dir = os.path.join(work, "primary")
        self.primary: Optional[Member] = None
        self.replicas: List[Member] = []
        self.door: Optional[Member] = None
        self.steps: Dict[str, float] = {}

    @property
    def members(self) -> List[Member]:
        return [m for m in [self.primary, *self.replicas, self.door] if m]

    # ------------------------------------------------------------------
    async def start(self):
        """Generate the data, create the store, bring every member up and
        wait until the door has answered through every read route.
        Returns the baseline instance; :attr:`steps` holds the timing of
        each step, their sum is ``setup_s``."""
        os.makedirs(self.work)
        clock = time.perf_counter
        began = clock()
        baseline = self.spec.generate()
        schema, registry = self.spec.schema(), self.spec.registry()
        self.steps["generate_s"] = clock() - began

        mark = clock()
        dump_dsl(schema, self.schema_path)
        self.create_store(self.primary_dir, baseline, schema, registry)
        self.steps["create_s"] = clock() - mark

        mark = clock()
        shard_flag = ["--shards"] if self.spec.shard_bases else []
        self.primary = Member(
            "primary",
            ["serve", self.primary_dir, "--schema", self.schema_path,
             "--port", "0", *shard_flag],
            "serving ",
            store_dir=self.primary_dir,
        )
        self.primary.spawn()
        await self.primary.wait_banner()
        self.steps["primary_s"] = clock() - mark

        mark = clock()
        for index in range(self.spec.replicas):
            store_dir = os.path.join(self.work, f"replica{index}")
            member = Member(
                f"replica{index}",
                ["serve", store_dir, "--schema", self.schema_path,
                 "--port", "0", "--replica-of", self.primary.address,
                 *shard_flag],
                "serving ",
                store_dir=store_dir,
            )
            member.spawn()
            self.replicas.append(member)
        for member in self.replicas:
            await member.wait_banner()
        target = await self.position_of(self.primary)
        for member in self.replicas:
            await self.wait_position(member, target)
        self.steps["replicas_s"] = clock() - mark

        mark = clock()
        door_args = ["frontdoor", "--primary", self.primary.address, "--port", "0",
                     "--probe-interval", DOOR_PROBE_INTERVAL_S]
        for member in self.replicas:
            door_args += ["--replica", member.address]
        self.door = Member("door", door_args, "front door on ")
        self.door.spawn()
        await self.door.wait_banner()
        await self._warm_door()
        self.steps["door_s"] = clock() - mark
        return baseline

    def create_store(self, directory, baseline, schema, registry) -> None:
        if self.spec.shard_bases:
            ShardedStore.create(
                directory, schema, dict(self.spec.shard_bases), baseline, registry
            ).close()
        else:
            DirectoryStore.create(directory, schema, baseline, registry).close()

    async def _warm_door(self) -> None:
        """One read through every route of the door, so each member has
        its serving view open before anything is timed.  A member still
        opening a large view can miss a health probe and be skipped for
        a moment; ``unavailable`` is retried until the deadline."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        async with await DirectoryClient.connect("127.0.0.1", self.door.port) as door:
            await door.bind("cn=bench-warm")
            routes = [None] * max(1, len(self.replicas)) + [0]
            for max_lag in routes:
                while True:
                    try:
                        await door.search(scope="one", max_lag=max_lag)
                        break
                    except ServerError as exc:
                        if exc.code != "unavailable" or time.monotonic() > deadline:
                            raise MemberFailure(
                                self.door, f"door never answered: {exc}"
                            ) from exc
                        await asyncio.sleep(0.05)
            # every member alive again in the door's table before traffic
            while True:
                table = await door.request("topology")
                backends = [table["primary"], *table["replicas"]]
                if all(b["alive"] for b in backends):
                    return
                if time.monotonic() > deadline:
                    raise MemberFailure(self.door, f"members stayed dead: {table}")
                await asyncio.sleep(0.05)

    # ------------------------------------------------------------------
    async def position_of(self, member: Member) -> dict:
        async with await DirectoryClient.connect("127.0.0.1", member.port) as client:
            return (await client.position())["position"]

    async def wait_position(
        self, member: Member, target: dict, timeout: float = READY_TIMEOUT_S
    ) -> float:
        """Poll ``member`` until its frontier reaches ``target``; returns
        the seconds that took."""
        began = time.perf_counter()
        deadline = time.monotonic() + timeout
        async with await DirectoryClient.connect("127.0.0.1", member.port) as client:
            while True:
                reply = await client.position()
                if reply.get("position") and position_geq(reply["position"], target):
                    return time.perf_counter() - began
                if member.proc.poll() is not None:
                    raise MemberFailure(member, "exited while catching up")
                if time.monotonic() > deadline:
                    raise MemberFailure(
                        member, f"never reached {target} (at {reply.get('position')})"
                    )
                await asyncio.sleep(0.002)

    async def unresponsive(self) -> List[Member]:
        """Members that do not answer a ping within a second — how a
        workload timeout names the member that hung."""
        hung = []
        for member in self.members:
            try:
                async def ping(port=member.port):
                    async with await DirectoryClient.connect("127.0.0.1", port) as c:
                        await c.ping()
                await asyncio.wait_for(ping(), 1.0)
            except (OSError, asyncio.TimeoutError, ConnectionError):
                hung.append(member)
        return hung

    def peak_rss_mb(self) -> float:
        return sum(member.peak_rss_mb() for member in self.members)

    def stop(self) -> None:
        """Kill and reap every member, remove the work directory."""
        for member in reversed(self.members):
            member.kill()
        shutil.rmtree(self.work, ignore_errors=True)
