"""The four traffic mixes: data, topology and deterministic op streams.

An op stream is an infinite generator that is a pure function of
``(seed, workload, connection)``: every DN and uid it invents is built
from those three and a per-stream index, never from process-global
state (``repro.workloads.update_streams`` keeps a module counter, so it
is not used here).  Each op carries what the oracle expects back and the
effect an acknowledged write has on the load generator's twin.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

import topology  # noqa: F401  (puts src/ on sys.path)

from repro.workloads import (
    den_registry,
    den_schema,
    generate_den,
    generate_whitepages,
    whitepages_registry,
    whitepages_schema,
)

#: Every RDN value the benchmark invents starts with this, so a read
#: raced by the other connection's writes can be cut back to the
#: baseline subset it is compared on.
MARK = "bench-"
#: Instances are fixed; only the traffic follows ``--seed``.
DATA_SEED = 42
ZIPF_S = 1.1
#: Provisioned units (wp_provision) and added policies (den_churn) kept
#: alive before the oldest is deleted again, so the instance size is
#: steady from the warm-up on.
LIVE_UNITS = 10
LIVE_POLICIES = 20

READ_KINDS = ("search", "ryw_search", "check")
WRITE_KINDS = ("add", "delete", "txn", "modify")


class Op(NamedTuple):
    """One request of a stream."""

    kind: str  #: search | ryw_search | check | add | delete | txn | modify
    request: dict  #: wire fields (``require_seq`` is filled in at send time)
    expect: tuple  #: what the oracle checks, see ``loadgen.verify``
    effect: tuple = ()  #: twin updates once acknowledged
    unit_end: bool = True  #: this reply completes one lead unit of work
    common: bool = False  #: the mix's most frequent request class (``peer_mean_ms``)

    @property
    def wire_op(self) -> str:
        return "search" if self.kind == "ryw_search" else self.kind


def is_baseline_dn(dn: str) -> bool:
    return ("=" + MARK) not in dn


# ----------------------------------------------------------------------
# tables read off the baseline by plain iteration (the oracle's side:
# nothing here goes through the search code the servers run)
# ----------------------------------------------------------------------
class WhitePages:
    """``sharded``: a composite view answers in its canonical global
    order (root-first RDN tuples), a plain store in document order."""

    def __init__(self, instance, sharded: bool) -> None:
        self.size = len(instance)
        self.persons: List[Tuple[str, str, str]] = []  # (uid, dn, name), answer order
        self.units: List[str] = []
        self.orgs: List[str] = []
        self.children: Dict[str, List[str]] = {}  # unit dn -> person dns below it
        for entry in instance:
            dn = instance.dn_string_of(entry)
            if "person" in entry.classes:
                self.persons.append((entry.values("uid")[0], dn, entry.values("name")[0]))
            elif "orgUnit" in entry.classes:
                self.units.append(dn)
            elif "organization" in entry.classes:
                self.orgs.append(dn)
        if sharded:
            self.persons.sort(key=lambda p: tuple(reversed(p[1].split(","))))
        for _uid, dn, _name in self.persons:
            self.children.setdefault(dn.split(",", 1)[1], []).append(dn)

    def persons_under(self, org_dn: str) -> List[str]:
        suffix = "," + org_dn
        return [dn for _uid, dn, _name in self.persons if dn.endswith(suffix)]

    def persons_named(self, fragment: str) -> List[str]:
        return [dn for _uid, dn, name in self.persons if fragment in name]


class Den:
    def __init__(self, instance, sharded: bool = False) -> None:
        self.size = len(instance)
        self.policies: List[Tuple[str, bool]] = []  # (dn, qosEnabled)
        self.domains: List[str] = []
        self.sites: List[str] = []
        for entry in instance:
            dn = instance.dn_string_of(entry)
            if "policy" in entry.classes:
                self.policies.append((dn, "qosEnabled" in entry.classes))
            elif "policyDomain" in entry.classes:
                self.domains.append(dn)
            elif "site" in entry.classes:
                self.sites.append(dn)


class Zipf:
    """Ranks ``0..n-1`` with probability proportional to ``1/(rank+1)^s``
    over a seeded permutation of the items."""

    def __init__(self, items: list, rank_rng: random.Random) -> None:
        self.items = list(items)
        rank_rng.shuffle(self.items)
        total, self.cumulative = 0.0, []
        for rank in range(len(self.items)):
            total += 1.0 / (rank + 1) ** ZIPF_S
            self.cumulative.append(total)

    def pick(self, rng: random.Random):
        point = rng.random() * self.cumulative[-1]
        return self.items[bisect.bisect_left(self.cumulative, point)]


def stream_rng(seed: int, workload: str, part: str) -> random.Random:
    return random.Random(f"{seed}/{workload}/{part}")


# ----------------------------------------------------------------------
# white-pages reads
# ----------------------------------------------------------------------
def lookup_mix(tables: WhitePages, rng, popular: Zipf, raced: bool) -> Iterator[Op]:
    """70 % uid lookups from the root (Zipf), 15 % one-level person
    scans under a unit, 10 % name substring, 5 % capped org scans."""
    cache: Dict[tuple, tuple] = {}
    while True:
        roll = rng.random()
        if roll < 0.70:
            uid, dn, _name = popular.pick(rng)
            yield Op(
                "search",
                {"scope": "sub", "filter": f"(uid={uid})"},
                ("dns", (dn,), None, raced),
                common=True,
            )
        elif roll < 0.85:
            unit = rng.choice(tables.units)
            yield Op(
                "search",
                {"base": unit, "scope": "one", "filter": "(objectClass=person)"},
                ("dns", tuple(tables.children.get(unit, ())), None, raced),
            )
        elif roll < 0.95:
            fragment = popular.pick(rng)[2][1:]
            key = ("name", fragment)
            if key not in cache:
                cache[key] = tuple(tables.persons_named(fragment))
            yield Op(
                "search",
                {"scope": "sub", "filter": f"(name=*{fragment}*)"},
                ("dns", cache[key], None, raced),
            )
        else:
            org = rng.choice(tables.orgs)
            key = ("org", org)
            if key not in cache:
                cache[key] = tuple(tables.persons_under(org))
            yield Op(
                "search",
                {"base": org, "scope": "sub", "filter": "(objectClass=person)",
                 "size_limit": 50},
                ("dns", cache[key], 50, raced),
            )


def wp_lookup_streams(tables, seed, name):
    popular = Zipf(tables.persons, stream_rng(seed, name, "rank"))
    return [
        lookup_mix(tables, stream_rng(seed, name, conn), popular, raced=False)
        for conn in ("a", "b")
    ]


# ----------------------------------------------------------------------
# white-pages writes
# ----------------------------------------------------------------------
def _person(uid: str, parent: str) -> Tuple[str, List[str], Dict[str, List[str]]]:
    return (
        f"uid={uid},{parent}",
        ["person", "top"],
        {"uid": [uid], "name": [f"{MARK}user {uid[len(MARK):]}"]},
    )


def _unit(ou: str, parent: str) -> Tuple[str, List[str], Dict[str, List[str]]]:
    return (f"ou={ou},{parent}", ["orgGroup", "orgUnit", "top"], {"ou": [ou]})


def _ldif_add(dn: str, classes: List[str], attributes: Dict[str, list]) -> str:
    lines = [f"dn: {dn}", "changetype: add"]
    lines += [f"objectClass: {c}" for c in classes]
    for attribute, values in attributes.items():
        lines += [f"{attribute}: {value}" for value in values]
    return "\n".join(lines) + "\n"


def _ldif_delete(dn: str) -> str:
    return f"dn: {dn}\nchangetype: delete\n"


def provision_stream(tables: WhitePages, seed: int, name: str) -> Iterator[Op]:
    """Connection A of ``wp_provision``: a ``txn`` adding one orgUnit and
    three persons under a Zipf-chosen group (one in five also puts a unit
    into another org, a spanning 2PC), then a read-your-writes search
    for a new uid; past ``LIVE_UNITS`` the oldest unit is deleted first."""
    rng = stream_rng(seed, name, "a")
    groups = Zipf(tables.units, stream_rng(seed, name, "groups"))
    live: List[List[Tuple[str, list, dict]]] = []
    for index in itertools.count():
        if len(live) >= LIVE_UNITS:
            oldest = live.pop(0)
            # children first: only leaves may be deleted
            doomed = [dn for dn, _c, _a in reversed(oldest)]
            yield Op(
                "txn",
                {"changes": "\n".join(_ldif_delete(dn) for dn in doomed)},
                ("applied",),
                tuple(("delete", dn) for dn in doomed),
                unit_end=False,
            )
        tag = f"{MARK}{seed}-a-{index}"
        group = groups.pick(rng)
        unit = _unit(tag, group)
        entries = [unit] + [_person(f"{tag}-{k}", unit[0]) for k in range(3)]
        if rng.random() < 0.2:
            home = group.rsplit(",", 1)[-1]
            other = rng.choice([g for g in tables.units if not g.endswith(home)])
            second = _unit(tag + "x", other)
            entries += [second, _person(f"{tag}-x", second[0])]
        live.append(entries)
        yield Op(
            "txn",
            {"changes": "\n".join(_ldif_add(*entry) for entry in entries)},
            ("applied",),
            tuple(("add", *entry) for entry in entries),
            unit_end=False,
        )
        uid, dn = f"{tag}-0", entries[1][0]
        yield Op(
            "ryw_search",
            {"scope": "sub", "filter": f"(uid={uid})"},
            ("dns", (dn,), None, False),
        )


def wp_provision_streams(tables, seed, name):
    popular = Zipf(tables.persons, stream_rng(seed, name, "rank"))
    return [
        provision_stream(tables, seed, name),
        lookup_mix(tables, stream_rng(seed, name, "b"), popular, raced=True),
    ]


def audit_stream(tables: WhitePages, seed: int, name: str) -> Iterator[Op]:
    """Connection A of ``legality_audit``: add one person, ``check`` at
    that position, delete the person, ``check`` again."""
    rng = stream_rng(seed, name, "a")
    homes = Zipf(tables.units, stream_rng(seed, name, "groups"))
    for index in itertools.count():
        dn, classes, attributes = _person(f"{MARK}{seed}-a-{index}", homes.pick(rng))
        yield Op(
            "add",
            {"dn": dn, "classes": classes, "attributes": attributes},
            ("applied",),
            (("add", dn, classes, attributes),),
            unit_end=False,
        )
        yield Op("check", {}, ("legal", tables.size + 1))
        yield Op("delete", {"dn": dn}, ("applied",), (("delete", dn),), unit_end=False)
        yield Op("check", {}, ("legal", tables.size))


def legality_audit_streams(tables, seed, name):
    popular = Zipf(tables.persons, stream_rng(seed, name, "rank"))
    return [
        audit_stream(tables, seed, name),
        lookup_mix(tables, stream_rng(seed, name, "b"), popular, raced=True),
    ]


# ----------------------------------------------------------------------
# DEN policy churn
# ----------------------------------------------------------------------
def _ldif_replace(dn: str, attribute: str, value) -> str:
    return (
        f"dn: {dn}\nchangetype: modify\nreplace: {attribute}\n"
        f"{attribute}: {value}\n-\n"
    )


def churn_stream(tables: Den, seed: int, name: str, conn: str) -> Iterator[Op]:
    """60 % one-record ``modify``, 5 % three-record batches, 25 % add or
    delete of an own policy, 10 % writes the schema must reject.  Each
    connection modifies its own half of the baseline policies, so the
    twin's final state does not depend on how the two interleave."""
    rng = stream_rng(seed, name, conn)
    half = {"a": 0, "b": 1}[conn]
    own = Zipf(
        [p for i, p in enumerate(tables.policies) if i % 2 == half],
        stream_rng(seed, name, "rank-" + conn),
    )
    live: List[str] = []

    def replacement():
        dn, qos = own.pick(rng)
        if qos and rng.random() < 0.5:
            return dn, "qosLimit", rng.choice([10, 100, 1000])
        return dn, "priority", rng.randrange(1, 100)

    for index in itertools.count():
        roll = rng.random()
        if roll < 0.65:
            changes: Dict[str, tuple] = {}
            while len(changes) < (1 if roll < 0.60 else 3):
                dn, attribute, value = replacement()
                changes.setdefault(dn, (attribute, value))
            yield Op(
                "modify",
                {"changes": "\n".join(
                    _ldif_replace(dn, *change) for dn, change in changes.items()
                )},
                ("applied",),
                tuple(
                    ("replace", dn, attribute, [str(value)])
                    for dn, (attribute, value) in changes.items()
                ),
                common=len(changes) == 1,
            )
        elif roll < 0.90:
            if len(live) >= LIVE_POLICIES or (live and rng.random() < 0.5):
                dn = live.pop(0)
                yield Op("delete", {"dn": dn}, ("applied",), (("delete", dn),))
            else:
                policy = f"{MARK}{seed}-{conn}-{index}"
                dn = f"policyName={policy},{rng.choice(tables.domains)}"
                attributes = {"policyName": [policy], "priority": [rng.randrange(1, 100)]}
                live.append(dn)
                yield Op(
                    "add",
                    {"dn": dn, "classes": ["policy", "top"], "attributes": attributes},
                    ("applied",),
                    (("add", dn, ["policy", "top"], attributes),),
                )
        else:
            bad = f"{MARK}{seed}-{conn}-{index}"
            which = rng.randrange(3)
            if which == 0:  # a policy without its required priority
                dn, _qos = own.pick(rng)
                yield Op(
                    "modify",
                    {"changes": f"dn: {dn}\nchangetype: modify\ndelete: priority\n-\n"},
                    ("rejected", "[missing-required-attribute]"),
                )
            elif which == 1:  # policies are leaves
                parent, _qos = own.pick(rng)
                yield Op(
                    "add",
                    {"dn": f"policyName={bad},{parent}", "classes": ["policy", "top"],
                     "attributes": {"policyName": [bad], "priority": [1]}},
                    ("rejected", "policy ↛ top"),
                )
            else:  # sites do not nest
                yield Op(
                    "add",
                    {"dn": f"siteName={bad},{rng.choice(tables.sites)}",
                     "classes": ["site", "top"], "attributes": {"siteName": [bad]}},
                    ("rejected", "site ↛↛ site"),
                )


def den_churn_streams(tables, seed, name):
    return [churn_stream(tables, seed, name, conn) for conn in ("a", "b")]


# ----------------------------------------------------------------------
# the workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable
    schema: Callable
    registry: Callable
    tables: Callable
    #: (tables, seed, name) -> [stream A, stream B]; ``name`` only keys the
    #: generators beside the seed (``run.Run.stream_key``)
    streams: Callable
    replicas: int
    shard_bases: Optional[Tuple[Tuple[str, str], ...]] = None


def _wp_small():
    return generate_whitepages(
        orgs=4, units_per_level=4, depth=3, persons_per_unit=6, seed=DATA_SEED
    )


_WP_SHARDS = tuple((f"org{i}", f"o=org{i}") for i in range(4))

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            name="wp_lookup",
            generate=_wp_small, schema=whitepages_schema, registry=whitepages_registry,
            tables=WhitePages, streams=wp_lookup_streams,
            replicas=2, shard_bases=_WP_SHARDS,
        ),
        Workload(
            name="den_churn",
            generate=lambda: generate_den(
                sites=100, devices_per_site=4, interfaces_per_device=3,
                domains=100, policies_per_domain=5, seed=DATA_SEED,
            ),
            schema=den_schema, registry=den_registry,
            tables=Den, streams=den_churn_streams,
            replicas=1,
        ),
        Workload(
            name="wp_provision",
            generate=_wp_small, schema=whitepages_schema, registry=whitepages_registry,
            tables=WhitePages, streams=wp_provision_streams,
            replicas=2, shard_bases=_WP_SHARDS,
        ),
        Workload(
            name="legality_audit",
            generate=lambda: generate_whitepages(
                orgs=4, units_per_level=5, depth=3, persons_per_unit=12, seed=DATA_SEED
            ),
            schema=whitepages_schema, registry=whitepages_registry,
            tables=WhitePages, streams=legality_audit_streams,
            replicas=1,
        ),
    ]
}


def stream_digest(stream: Iterator[Op], count: int = 1000) -> str:
    """blake2b over the first ``count`` ops of a stream."""
    digest = hashlib.blake2b(digest_size=16)
    for op in itertools.islice(stream, count):
        digest.update(
            json.dumps([op.kind, op.request, op.expect, op.effect],
                       sort_keys=True, default=list).encode("utf-8")
        )
    return digest.hexdigest()
