"""One committed position for every store kind.

A :class:`Position` is an immutable frontier ``{member: (generation,
seq)}``.  A sharded store has one member per shard; a plain store is
the one-member case (Theorem 4.1: the unsharded directory is the
degenerate cut), its sole member keyed ``None``.  This module is the
only code that knows the two shapes a position takes outside the
process, and the only place they are parsed and validated:

* the ``position`` payload every response carries, ``require_seq``,
  and ``cut.state`` — ``{"generation": g, "seq": s}`` for a plain
  store, ``{shard: [g, s]}`` for a sharded one (:meth:`Position.to_wire`
  / :meth:`Position.from_wire`);
* the ``replicate`` request and acknowledgement — the same fields
  inline for a plain store, nested under ``"shards"`` for a sharded one (:meth:`Position.to_fields` /
  :meth:`Position.from_fields`).

Every field is an integer, never a ``bool`` (``isinstance(True, int)``
holds), and never negative.  Members compare lexicographically — a
generation bump dominates any sequence number — and positions compare
pointwise.

In memory a position compares, hashes and unpacks as the raw value it
stands for — ``(generation, seq)`` or ``{shard: (generation, seq)}`` —
so ``reader.position() == (1, 2)`` and ``source.attach(*position)``
read as they always have.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional, Tuple

__all__ = ["Position"]

Pair = Tuple[int, int]
_ORIGIN: Pair = (0, 0)


def _pair(value) -> Pair:
    # ``type(...) is int``, not isinstance: True and False are ints.
    if isinstance(value, (list, tuple)) and len(value) == 2:
        generation, seq = value
        if (
            type(generation) is int and type(seq) is int
            and generation >= 0 and seq >= 0
        ):
            return (generation, seq)
    raise ValueError(
        "a position member is a (generation, seq) pair of non-negative "
        f"integers (booleans excluded), got {value!r}"
    )


class Position:
    """An immutable committed frontier ``{member: (generation, seq)}``."""

    __slots__ = ("_members",)

    #: The names :meth:`from_fields` reads (and :meth:`to_fields` writes).
    FIELDS = ("generation", "seq", "shards")

    def __init__(self, members: Mapping[Optional[str], Pair]) -> None:
        self._members: Dict[Optional[str], Pair] = {}
        for name, pair in members.items():
            if name is not None and type(name) is not str:
                raise ValueError(f"shard names are strings, got {name!r}")
            self._members[name] = _pair(pair)
        if None in self._members and len(self._members) > 1:
            raise ValueError("a position is plain or per-shard, never both")

    @classmethod
    def plain(cls, generation: int, seq: int) -> "Position":
        """The position of a plain store."""
        return cls({None: (generation, seq)})

    @classmethod
    def of(cls, raw) -> "Position":
        """Coerce a raw in-memory position — a ``(generation, seq)``
        pair or a ``{shard: (generation, seq)}`` map; a
        :class:`Position` passes through."""
        if isinstance(raw, Position):
            return raw
        return cls(raw if isinstance(raw, Mapping) else {None: raw})

    # -- the two external shapes ---------------------------------------
    @classmethod
    def from_wire(cls, payload) -> "Position":
        """Parse a ``position`` payload; :class:`ValueError` when it is
        malformed (not an object, empty, mixed shapes, a non-integer,
        boolean or negative field)."""
        if not isinstance(payload, dict) or not payload:
            raise ValueError("a position payload is a non-empty object")
        if "generation" not in payload:
            return cls(payload)
        if not set(payload) <= {"generation", "seq"}:
            raise ValueError("a position is plain or per-shard, never both")
        return cls.plain(payload["generation"], payload.get("seq", 0))

    def to_wire(self) -> dict:
        """The ``position`` payload (also the ``cut.state`` body)."""
        if self.is_plain:
            generation, seq = self._members[None]
            return {"generation": generation, "seq": seq}
        return {name: list(pair) for name, pair in self._members.items()}

    @classmethod
    def from_fields(cls, fields: Mapping) -> "Position":
        """Parse the position fields of a ``replicate`` request or
        acknowledgement: absent plain fields are 0, and an empty
        ``shards`` map is a fresh cohort."""
        if "shards" not in fields:
            return cls.plain(fields.get("generation", 0), fields.get("seq", 0))
        if not isinstance(fields["shards"], dict):
            raise ValueError(
                "shards must map shard names to (generation, seq) pairs"
            )
        return cls(fields["shards"])

    def to_fields(self) -> dict:
        """The fields :meth:`from_fields` reads back."""
        return self.to_wire() if self.is_plain else {"shards": self.to_wire()}

    # -- members -------------------------------------------------------
    @property
    def is_plain(self) -> bool:
        """Whether this is a plain store's position (its one member is
        keyed ``None``)."""
        return None in self._members

    @property
    def raw(self):
        """``(generation, seq)`` for a plain store, ``{shard:
        (generation, seq)}`` for a sharded one."""
        return self._members[None] if self.is_plain else dict(self._members)

    def items(self):
        """``(member, (generation, seq))`` pairs."""
        return self._members.items()

    def get(self, member: Optional[str], default: Pair = _ORIGIN) -> Pair:
        """One member's pair; ``(0, 0)`` — nothing applied yet — for a
        member this position has never heard of."""
        return self._members.get(member, default)

    def __iter__(self) -> Iterator:
        return iter(self.raw)

    def __eq__(self, other) -> bool:
        try:
            return self._members == Position.of(other)._members
        except (TypeError, ValueError):
            return NotImplemented

    def __hash__(self) -> int:
        raw = self.raw
        return hash(raw if self.is_plain else frozenset(raw.items()))

    def __repr__(self) -> str:
        return f"Position({self.raw!r})"

    # -- order ---------------------------------------------------------
    def __ge__(self, other) -> bool:
        """Whether this position satisfies ``other``: at least as far
        on every member ``other`` mentions.  Positions of different
        shapes never satisfy each other."""
        other = Position.of(other)
        return self.is_plain == other.is_plain and all(
            self.get(name) >= pair for name, pair in other.items()
        )

    def max(self, other: "Position") -> "Position":
        """The pointwise-larger position — the least upper bound under
        ``>=``.  Across a shape change (a topology swap) the newer
        ``other`` wins."""
        if self.is_plain != other.is_plain:
            return other
        merged = dict(self._members)
        for name, pair in other.items():
            if name not in merged or pair > merged[name]:
                merged[name] = pair
        return Position(merged)

    def lag_frames(self, head) -> Optional[int]:
        """Frames this position trails ``head`` by: the sum of
        per-member sequence gaps.  ``None`` when a member is missing or
        stands in another generation than ``head``'s — sequence numbers
        restart at every compaction, so the gap is not a frame count."""
        head = Position.of(head)
        lag = 0
        for name, (generation, seq) in head.items():
            held = self._members.get(name)
            if held is None or held[0] != generation:
                return None
            lag += max(0, seq - held[1])
        return lag

    def lost_beyond(self, floor: "Position") -> bool:
        """Whether this position points past ``floor`` within one of
        ``floor``'s own generations — at something only a primary that
        died at ``floor`` ever held.  Later generations are the
        successor's own history and always servable."""
        for name, (generation, seq) in self.items():
            held = floor._members.get(name)
            if held is not None and held[0] == generation and seq > held[1]:
                return True
        return False

    def sort_key(self) -> tuple:
        """A total order over positions of one topology (election)."""
        return tuple(sorted(self.items()))  # one member, or all named

    # -- printed forms -------------------------------------------------
    def tag(self) -> str:
        """The compact form ``check --follow`` prints per round:
        ``gen G seq S``, or ``shard@gG.S`` pairs."""
        if self.is_plain:
            return "gen {} seq {}".format(*self._members[None])
        return " ".join(
            f"{name}@g{generation}.{seq}"
            for name, (generation, seq) in sorted(self.items())
        )

    def promoted(self, entries: int) -> str:
        """What ``promote`` prints of the store it made writable here:
        the epoch each member starts (its sequence is 0 again)."""
        if self.is_plain:
            generation = self._members[None][0]
            return f"writable at generation {generation} ({entries} entries)"
        epochs = ", ".join(
            f"{name}: generation {generation}"
            for name, (generation, _) in self.items()
        )
        return f"sharded cohort writable ({epochs}; {entries} entries)"

    def __str__(self) -> str:
        if self.is_plain:
            return "generation {}, seq {}".format(*self._members[None])
        if not self._members:
            return "no shard map yet"
        return ", ".join(
            f"{name}: generation {generation}, seq {seq}"
            for name, (generation, seq) in sorted(self.items())
        )
