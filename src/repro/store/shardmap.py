"""The persisted shard map of a sharded store.

A sharded store routes DIT subtrees to independent
:class:`~repro.store.journal.DirectoryStore` directories by
*prefix-of-DN* (suffix in LDAP spelling: a shard's ``base`` names the
subtree it owns).  The map itself is a tiny checksummed JSON file,
``shardmap``, at the sharded store's root (body + CRC32, atomic
write-new-then-rename).  There is no fallback source for the routing
cut, so a missing or damaged shard map refuses to open
(:class:`~repro.errors.ShardMapError`) rather than guessing.

Routing semantics (:meth:`ShardMap.route`):

* a DN routes to the shard whose base is its *deepest*
  ancestor-or-self, under the same case-normalization DN resolution
  uses everywhere else;
* a shard base of depth > 1 cuts its subtree *out of* the enclosing
  shard (nested maps); validation requires the enclosing shard to
  exist so every entry above the cut has a home;
* a DN under no base raises :class:`~repro.errors.ShardRoutingError`
  — never a silent default shard.

Shards store their subtree *localized*: the base's parent suffix is
stripped, so each shard directory is a self-contained store whose
roots are the shard base itself (depth-1 bases store full DNs
unchanged).  :meth:`ShardMap.localize` / :meth:`ShardMap.globalize`
convert between the two forms.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ShardMapError, ShardRoutingError, StoreError
from repro.model.dn import DN, parse_dn
from repro.store.recovery import SNAPSHOT_FILE

__all__ = [
    "SHARD_MAP_FILE",
    "SHARDS_DIR",
    "ShardSpec",
    "ShardMap",
    "read_shard_map",
    "write_shard_map",
    "shard_dir",
    "is_sharded",
    "members",
]

SHARD_MAP_FILE = "shardmap"
SHARDS_DIR = "shards"
_SHARD_MAP_FORMAT = 1


@dataclass(frozen=True)
class ShardSpec:
    """One shard: a name (its directory under ``shards/``) and the DN
    of the subtree it owns."""

    name: str
    base: DN

    @property
    def suffix(self) -> DN:
        """The DN suffix stripped from entries stored in this shard
        (the base's parent; empty for depth-1 bases)."""
        return self.base.parent()

    def __str__(self) -> str:
        return f"{self.name} ⇒ {self.base}"


class ShardMap:
    """An ordered set of :class:`ShardSpec`, deepest-base-first routing."""

    def __init__(self, specs: List[ShardSpec]) -> None:
        self.specs: Tuple[ShardSpec, ...] = tuple(specs)
        # Deepest bases first so `route` finds the most specific owner
        # (a nested cut shadows its enclosing shard).
        self._by_depth: Tuple[ShardSpec, ...] = tuple(
            sorted(self.specs, key=lambda s: (-s.base.depth(), s.name))
        )
        self._by_name: Dict[str, ShardSpec] = {s.name: s for s in self.specs}

    # ------------------------------------------------------------------
    # construction / validation
    # ------------------------------------------------------------------
    @staticmethod
    def from_bases(bases: Dict[str, DN | str]) -> "ShardMap":
        """Build and validate a map from ``{name: base}``."""
        specs = [
            ShardSpec(name, parse_dn(base) if isinstance(base, str) else base)
            for name, base in bases.items()
        ]
        shard_map = ShardMap(specs)
        shard_map.validate()
        return shard_map

    def validate(self) -> "ShardMap":
        """Check the map is a usable routing cut.

        Raises
        ------
        ShardMapError
            Empty map, duplicate names or bases, a base nested under
            another with no enclosing shard to own the entries above
            the cut, or an invalid shard name.
        """
        if not self.specs:
            raise ShardMapError("a shard map needs at least one shard")
        names = [s.name for s in self.specs]
        if len(set(names)) != len(names):
            raise ShardMapError(f"duplicate shard names in {names}")
        for spec in self.specs:
            if not spec.name or "/" in spec.name or spec.name in (".", ".."):
                raise ShardMapError(f"invalid shard name {spec.name!r}")
            if spec.base.is_empty():
                raise ShardMapError(
                    f"shard {spec.name!r} has an empty base DN"
                )
        normalized = [str(s.base.normalized()) for s in self.specs]
        if len(set(normalized)) != len(normalized):
            raise ShardMapError(f"duplicate shard bases in {normalized}")
        for spec in self.specs:
            if spec.base.depth() > 1:
                # The cut's parent must live in some *other* shard.
                try:
                    owner = self.route(spec.base.parent())
                except ShardRoutingError:
                    raise ShardMapError(
                        f"shard {spec.name!r} cuts at {spec.base}, but no "
                        f"shard owns its parent {spec.base.parent()}"
                    ) from None
                if owner.name == spec.name:  # pragma: no cover - defensive
                    raise ShardMapError(
                        f"shard {spec.name!r} routes its own parent"
                    )
        return self

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def route(self, dn: DN | str) -> ShardSpec:
        """The shard owning ``dn``: deepest base that is an
        ancestor-or-self of ``dn`` (case-normalized).

        Raises
        ------
        ShardRoutingError
            When no shard base covers ``dn``.
        """
        parsed = parse_dn(dn) if isinstance(dn, str) else dn
        if parsed.is_empty():
            raise ShardRoutingError("the empty DN routes nowhere")
        for spec in self._by_depth:
            base = spec.base
            if base.normalized() == parsed.normalized() or base.is_ancestor_of(
                parsed
            ):
                return spec
        raise ShardRoutingError(
            f"no shard owns {str(parsed)!r} "
            f"(bases: {', '.join(str(s.base) for s in self._by_depth)})"
        )

    def localize(self, dn: DN, spec: ShardSpec) -> DN:
        """Strip ``spec``'s suffix: the DN as stored inside the shard."""
        strip = spec.base.depth() - 1
        if strip == 0:
            return dn
        if len(dn.rdns) <= strip:  # pragma: no cover - routing guarantees
            raise ShardRoutingError(
                f"{dn} is too shallow to live in shard {spec.name!r}"
            )
        return DN(dn.rdns[: len(dn.rdns) - strip])

    def globalize(self, local_dn: DN, spec: ShardSpec) -> DN:
        """Re-attach ``spec``'s suffix: the shard-local DN as seen from
        the composite namespace."""
        return DN(local_dn.rdns + spec.suffix.rdns)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def spec(self, name: str) -> ShardSpec:
        """The :class:`ShardSpec` named ``name``
        (:class:`~repro.errors.ShardMapError` for unknown names)."""
        try:
            return self._by_name[name]
        except KeyError:
            raise ShardMapError(f"no shard named {name!r}") from None

    def names(self) -> Tuple[str, ...]:
        """Shard names in map order."""
        return tuple(s.name for s in self.specs)

    def has_cut(self) -> bool:
        """Whether any base nests inside another shard's subtree
        (depth > 1) — the case where structural edges can span the
        routing cut mid-tree."""
        return any(s.base.depth() > 1 for s in self.specs)

    def bases(self) -> Dict[str, DN]:
        """``{name: base DN}`` for every shard in the map."""
        return {s.name: s.base for s in self.specs}

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ShardMap) and self.specs == other.specs


# ----------------------------------------------------------------------
# persistence (canonical body + CRC32, atomic replace)
# ----------------------------------------------------------------------
def shard_dir(root: str, name: str) -> str:
    """The directory of shard ``name`` under a sharded store root."""
    return os.path.join(root, SHARDS_DIR, name)


def shard_map_path(root: str) -> str:
    return os.path.join(root, SHARD_MAP_FILE)


def is_sharded(root: str) -> Optional[bool]:
    """What the directory ``root`` holds: ``True`` a sharded store (a
    ``shardmap``), ``False`` a plain one (a snapshot), ``None`` neither
    — a fresh directory.  Every opener in :mod:`repro.store` picks its
    class from this, so no caller says which kind it expects."""
    if os.path.exists(shard_map_path(root)):
        return True
    return False if os.path.exists(os.path.join(root, SNAPSHOT_FILE)) else None


def members(root: str) -> Dict[Optional[str], str]:
    """The member store directories of ``root``, keyed like a
    :class:`~repro.store.position.Position`: ``{None: root}`` for a
    plain store (Theorem 4.1's one-member cut), ``{shard: shard_dir}``
    in map order for a sharded one.  :class:`~repro.errors.StoreError`
    when ``root`` holds neither."""
    sharded = is_sharded(root)
    if sharded is None:
        raise StoreError(
            f"{root!r} is not a store directory (no snapshot, and cannot "
            f"read shard map {shard_map_path(root)!r})"
        )
    if not sharded:
        return {None: root}
    return {name: shard_dir(root, name) for name in read_shard_map(root).names()}


def _body(shard_map: ShardMap) -> dict:
    return {
        "format": _SHARD_MAP_FORMAT,
        "shards": [
            {"name": s.name, "base": str(s.base)} for s in shard_map.specs
        ],
    }


def _crc(body: dict) -> int:
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canonical.encode("utf-8")) & 0xFFFFFFFF


def encode_shard_map(shard_map: ShardMap) -> bytes:
    body = _body(shard_map)
    payload = dict(body, crc=_crc(body))
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def decode_shard_map(data: bytes) -> ShardMap:
    """Parse shard-map bytes.

    Raises
    ------
    ShardMapError
        On any damage: bad JSON, unknown format, checksum mismatch,
        malformed entries, or an invalid routing cut.
    """
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ShardMapError(f"shard map is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ShardMapError("shard map is not a JSON object")
    if payload.get("format") != _SHARD_MAP_FORMAT:
        raise ShardMapError(
            f"unknown shard map format {payload.get('format')!r}"
        )
    body = {"format": payload.get("format"), "shards": payload.get("shards")}
    if payload.get("crc") != _crc(body):
        raise ShardMapError("shard map checksum mismatch")
    shards = body["shards"]
    if not isinstance(shards, list):
        raise ShardMapError("shard map 'shards' must be a list")
    specs = []
    for item in shards:
        if (
            not isinstance(item, dict)
            or not isinstance(item.get("name"), str)
            or not isinstance(item.get("base"), str)
        ):
            raise ShardMapError(f"malformed shard entry {item!r}")
        specs.append(ShardSpec(item["name"], parse_dn(item["base"])))
    return ShardMap(specs).validate()


def read_shard_map(root: str) -> ShardMap:
    """Load the shard map of a sharded store rooted at ``root``.

    Raises
    ------
    ShardMapError
        Missing or damaged map (authoritative: no fallback).
    """
    path = shard_map_path(root)
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise ShardMapError(
            f"cannot read shard map {path!r}: {exc} "
            "(not a sharded store, or its map is gone)"
        ) from exc
    return decode_shard_map(data)


def write_shard_map(root: str, shard_map: ShardMap) -> None:
    """Persist ``shard_map`` atomically (write-new-then-rename).

    Written *last* during sharded-store creation: its presence marks
    the store complete, so a crash mid-create leaves a root without a
    map (refused at open) rather than a half-populated store that
    routes.
    """
    shard_map.validate()
    path = shard_map_path(root)
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(encode_shard_map(shard_map))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def inspect_shard_map(root: str) -> Optional[ShardMap]:
    """The shard map when ``root`` holds an intact one, else ``None``
    (for tools that probe 'is this a sharded store?')."""
    try:
        return read_shard_map(root)
    except ShardMapError:
        return None
