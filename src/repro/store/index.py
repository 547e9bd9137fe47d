"""Attribute-level secondary indexes over a directory instance.

The paper's Figure 4 reductions turn bounding-schema checks into
queries, so making queries sublinear makes the whole system faster.
This module is the access-structure half of that move (slapd's
``index`` directive is the production precedent): an
:class:`AttributeIndexes` object rides on a
:class:`~repro.model.instance.DirectoryInstance` and maintains

* an **equality** index ``attribute -> text -> [eid]`` over the text
  form of every value (exactly the form
  :class:`~repro.query.filters.Equals` compares against for string
  operands),
* a **presence** index ``attribute -> [eid]``,
* a **substring** index of character 3-grams
  ``attribute -> gram -> [eid]`` (candidates for
  :class:`~repro.query.filters.Substring` come from intersecting the
  postings of the pattern's grams).  An attribute's grams are derived
  on its first substring probe and maintained from then on: most
  attributes are never probed that way, and grams are most of what an
  eager build inserts,
* a **key** index ``attribute -> value -> [eid]`` over the Section 6.1
  key attributes, keyed by the *raw* value with plain ``dict`` equality
  — the same equality :class:`~repro.legality.extras.ExtrasChecker`
  uses, so ``1`` and ``True`` collide while ``30`` and ``"30"`` stay
  distinct, and
* a **referential** index ``attribute -> normalized target DN -> [eid]``
  over the Section 6.1 referential attributes, supporting the reverse
  probe "who references the entry being deleted?".

Every posting ``[eid]`` is a strictly increasing list of entry ids —
about a quarter of a ``set``'s footprint, and most postings hold one id
or thousands.  Entry ids only grow, so indexing a new entry appends;
re-indexing or removing one bisects.  A probe hands out a
:class:`PostingView` — the posting itself, read-only, never copied:
its size is known in O(1) (the search planner weighs it against the
scope before anything is walked), and ``&``/``|`` combine views by
bisect membership, smallest first.

Maintenance is incremental and *lazy*: instance mutations only mark the
touched entry id dirty (O(1) per mutation, via the observer hooks in
:mod:`repro.model.instance` / :mod:`repro.model.entry`); the postings
are patched in O(|dirty|) at the next probe.  A view therefore reads
the posting as of its probe only until the next probe of the same
indexes.  Every index answer is a
**sound superset** of the matching entries — the query layer always
runs the real ``matches`` predicate over the candidates — so a bug here
can cost time, never correctness.

An index holds its postings and nothing per entry: to unindex a changed
entry it needs the values it indexed, and the instance hands those over
through :meth:`AttributeIndexes.entry_changing` *before* the entry first
changes since the last flush.  Only changed entries are snapshotted,
and only until the flush folds them in.  Nothing is persisted: every
open derives the postings from the instance it opened.
"""

from __future__ import annotations

import collections.abc
import itertools
import operator
from bisect import bisect_left
from typing import (
    AbstractSet,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.legality.metrics import CheckStats
from repro.legality.report import Kind, Violation
from repro.model.dn import parse_dn
from repro.model.entry import Entry
from repro.model.instance import DirectoryInstance
from repro.schema.extras import SchemaExtras

__all__ = [
    "AttributeIndexes",
    "ExtrasDeltaProbe",
    "MemberIndexes",
    "PostingView",
    "delta_extras_violations",
    "extras_index_attributes",
]

#: Substring-index gram width.  Three is the classic slapd choice:
#: wide enough to prune, narrow enough that most patterns contain one.
GRAM = 3

#: A posting: entry ids, strictly increasing.
Posting = List[int]


def _insert(bucket: Dict[Any, Posting], key: Any, eid: int) -> None:
    """Add ``eid`` to ``bucket[key]`` unless it holds it already: a
    one-id list for a new key (most postings stay one id), an append
    for the newest id (ids only grow), a bisect for a re-indexed older
    entry."""
    posting = bucket.get(key)
    if posting is None:
        bucket[key] = [eid]
    elif posting[-1] < eid:
        posting.append(eid)
    else:
        i = bisect_left(posting, eid)
        if posting[i] != eid:
            posting.insert(i, eid)


def _discard(bucket: Dict[Any, Posting], key: Any, eid: int) -> None:
    """Take ``eid`` out of ``bucket[key]`` (a no-op when it holds no
    such id), dropping the posting once it is empty."""
    posting = bucket.get(key)
    if posting is None:
        return
    i = bisect_left(posting, eid)
    if i < len(posting) and posting[i] == eid:
        del posting[i]
        if not posting:
            del bucket[key]


class PostingView(collections.abc.Set):
    """A read-only set view of one sorted posting, as a probe hands it
    out: nothing is copied, ``len`` is O(1) and membership a bisect.

    ``&`` and ``|`` combine two views into a new one; an intersection
    walks the smaller side and bisects into the larger.  Iteration is
    in id order.  Anything else — a composite's ``_MemberCandidates`` —
    gets ``NotImplemented`` and answers through its reflected operator.
    """

    __slots__ = ("_ids",)

    def __init__(self, ids: Sequence[int] = ()) -> None:
        self._ids = ids

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids)

    def __contains__(self, eid: object) -> bool:
        ids = self._ids
        i = bisect_left(ids, eid)
        return i < len(ids) and ids[i] == eid

    def __and__(self, other):
        if not isinstance(other, PostingView):
            return NotImplemented
        small, large = sorted((self._ids, other._ids), key=len)
        n = len(large)
        kept = []
        for eid in small:
            i = bisect_left(large, eid)
            if i < n and large[i] == eid:
                kept.append(eid)
        return PostingView(kept)

    def __or__(self, other):
        if not isinstance(other, PostingView):
            return NotImplemented
        if not other:
            return self
        if not self:
            return other
        return PostingView(sorted(set(self._ids).union(other._ids)))

    __rand__ = __and__
    __ror__ = __or__

    def __repr__(self) -> str:
        return f"PostingView({list(self._ids)!r})"


def _normalize_dn(text: str) -> Optional[str]:
    """The case-folded DN string of ``text``, or ``None`` when it does
    not parse as a DN (such a value can never resolve to an entry)."""
    try:
        return str(parse_dn(text).normalized())
    except Exception:
        return None


def extras_index_attributes(
    extras: Optional[SchemaExtras],
) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """The ``(key, referential)`` attribute sets an index should
    maintain for ``extras`` (both empty when there are none)."""
    if extras is None:
        return frozenset(), frozenset()
    return frozenset(extras.key_attributes), frozenset(extras.referential_attributes)


class AttributeIndexes:
    """Incrementally-maintained secondary indexes over one instance.

    Attach with :meth:`attach` (which also wires the instance's
    observer hooks); afterwards every mutation of the instance keeps
    the indexes current automatically.

    The ``probes``/``hits``/``candidates`` counters are cumulative and
    machine-independent; callers snapshot them around an operation to
    report what the planner did (``--profile``, bench gates).
    """

    def __init__(
        self,
        instance: DirectoryInstance,
        key_attributes: Iterable[str] = (),
        referential_attributes: Iterable[str] = (),
    ) -> None:
        self.instance = instance
        self.key_attributes = frozenset(key_attributes)
        self.referential_attributes = frozenset(referential_attributes)
        self._eq: Dict[str, Dict[str, Posting]] = {}
        self._present: Dict[str, Posting] = {}
        #: Gram postings of the attributes probed for a substring so
        #: far, and of no other: an attribute is a key from its first
        #: probe on, even once its postings are empty.
        self._grams: Dict[str, Dict[str, Posting]] = {}
        self._keys: Dict[str, Dict[Any, Posting]] = {}
        self._refs: Dict[str, Dict[str, Posting]] = {}
        #: eid -> the attribute/value snapshot folded into the postings,
        #: for the indexed entries changed since the last flush only —
        #: taken by :meth:`entry_changing` before the first change, and
        #: dropped once the flush has unindexed it.
        self._old: Dict[int, Dict[str, Tuple[Any, ...]]] = {}
        #: Every live entry below this id was in the instance at the last
        #: flush, so the postings hold it; ids only grow, so the entries
        #: at or above it are new since then and hold no posting yet.
        self._indexed_below = 0
        self._dirty: Set[int] = set()
        #: Normalized DNs captured at deletion time (the DN index entry
        #: is gone before the lazy flush runs).
        self._removed_dns: Dict[int, str] = {}
        self.probes = 0
        self.hits = 0
        self.candidates = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def attach(
        cls,
        instance: DirectoryInstance,
        key_attributes: Iterable[str] = (),
        referential_attributes: Iterable[str] = (),
    ) -> "AttributeIndexes":
        """Create indexes for ``instance``, derive their postings from
        it, and install the result as ``instance.indexes``."""
        indexes = cls(instance, key_attributes, referential_attributes)
        indexes.rebuild()
        instance.indexes = indexes
        return indexes

    def rebuild(self) -> None:
        """Discard everything and re-derive the postings from the live
        instance; an attribute's grams wait for its next substring
        probe.  The instance holds its entries in id order, so every
        posting grows by appends."""
        self._eq = {}
        self._present = {}
        self._grams = {}
        self._keys = {}
        self._refs = {}
        self._old = {}
        self._dirty.clear()
        self._removed_dns.clear()
        for eid, entry in self.instance._entries.items():
            self._index_entry(eid, self._snapshot(entry))
        self._indexed_below = self.instance._next_eid

    # ------------------------------------------------------------------
    # observer hooks (called by the owning instance)
    # ------------------------------------------------------------------
    def entry_changing(self, eid: int) -> None:
        """Called *before* a value or class of ``eid`` changes: keep the
        values the postings hold for it, once per flush, so the flush
        can unindex them.  An entry new since the flush holds none."""
        if eid < self._indexed_below and eid not in self._old:
            self._old[eid] = self._snapshot(self.instance._entries[eid])

    def entry_changed(self, eid: int) -> None:
        """Mark ``eid`` dirty (value or class mutation, or insertion);
        O(1) — the postings are patched lazily at the next probe."""
        self._dirty.add(eid)

    def entry_removed(self, eid: int) -> None:
        """Mark ``eid`` dirty for removal, capturing its indexed values
        and its normalized DN now — the entry and the instance's DN
        tables are gone before the lazy flush (or a reverse referential
        probe) runs."""
        self.entry_changing(eid)
        self._dirty.add(eid)
        norm = self.instance._norm_key.get(eid)
        if norm is not None:
            self._removed_dns[eid] = norm

    # ------------------------------------------------------------------
    # probes (each one flushes pending maintenance first)
    # ------------------------------------------------------------------
    def equality_candidates(self, attribute: str, text: str) -> PostingView:
        """Ids of entries holding a value whose text form is ``text`` —
        a sound superset of ``Equals(attribute, text)`` matches."""
        self._refresh()
        return self._count(PostingView(self._eq.get(attribute, {}).get(text, ())))

    def presence_candidates(self, attribute: str) -> PostingView:
        """Ids of entries with at least one value for ``attribute``."""
        self._refresh()
        return self._count(PostingView(self._present.get(attribute, ())))

    def substring_candidates(
        self, attribute: str, parts: Sequence[str]
    ) -> PostingView:
        """A sound candidate superset for a substring pattern whose
        literal chunks are ``parts``: the intersection of the gram
        postings, smallest first, falling back to the presence posting
        when no chunk is long enough to contribute a gram.  The first
        probe of ``attribute`` derives its gram postings."""
        self._refresh()
        if attribute not in self._grams:
            self._build_grams(attribute)
        grams: Set[str] = set()
        for part in parts:
            for i in range(len(part) - GRAM + 1):
                grams.add(part[i : i + GRAM])
        if not grams:
            return self._count(PostingView(self._present.get(attribute, ())))
        bucket = self._grams.get(attribute, {})
        postings = sorted(
            (PostingView(bucket.get(gram, ())) for gram in grams), key=len
        )
        result = postings[0]
        for posting in postings[1:]:
            result &= posting
            if not result:
                break
        return self._count(result)

    def key_holders(self, attribute: str, value: Any) -> PostingView:
        """Ids of entries holding ``value`` under the key ``attribute``
        (raw-value equality, matching the Section 6.1 checker)."""
        self._refresh()
        try:
            posting = self._keys.get(attribute, {}).get(value, ())
        except TypeError:  # unhashable key value was never indexed
            posting = ()
        return self._count(PostingView(posting))

    def referrers(self, attribute: str, norm_target: str) -> PostingView:
        """Ids of entries whose referential ``attribute`` points at the
        entry with normalized DN ``norm_target``."""
        self._refresh()
        return self._count(
            PostingView(self._refs.get(attribute, {}).get(norm_target, ()))
        )

    def counters(self) -> Tuple[int, int, int]:
        """The cumulative ``(probes, hits, candidates)`` counters."""
        return (self.probes, self.hits, self.candidates)

    # ------------------------------------------------------------------
    # update deltas (the store layers' Section 6.1 apply-time check)
    # ------------------------------------------------------------------
    def delta_checkpoint(self) -> None:
        """Flush pending maintenance so the dirty set afterwards tracks
        exactly the *next* update's footprint."""
        self._refresh()

    def delta_collect(self) -> Tuple[List[int], List[str]]:
        """Fold pending maintenance in and report what it covered:
        ``(live touched eids, normalized DNs of removed entries)``."""
        touched: List[int] = []
        removed: List[str] = []
        entries = self.instance._entries
        for eid in sorted(self._dirty):
            if eid in entries:
                touched.append(eid)
            else:
                norm = self._removed_dns.get(eid)
                if norm is not None:
                    removed.append(norm)
        self._refresh()
        return touched, removed

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _count(self, result: PostingView) -> PostingView:
        self.probes += 1
        if result:
            self.hits += 1
        self.candidates += len(result)
        return result

    def _snapshot(self, entry: Entry) -> Dict[str, Tuple[Any, ...]]:
        return {name: entry.values(name) for name in entry.attribute_names()}

    def _refresh(self) -> None:
        if not self._dirty:
            return
        entries = self.instance._entries
        old = self._old
        for eid in sorted(self._dirty):  # new entries append in id order
            snapshot = old.pop(eid, None)
            if snapshot is not None:
                self._unindex_entry(eid, snapshot)
            entry = entries.get(eid)
            if entry is not None:
                self._index_entry(eid, self._snapshot(entry))
        self._dirty.clear()
        self._removed_dns.clear()
        self._indexed_below = self.instance._next_eid

    def _build_grams(self, attribute: str) -> None:
        """Derive ``attribute``'s gram postings from the live instance,
        right after a flush; entries come in id order, so every posting
        grows by appends."""
        bucket = self._grams[attribute] = {}
        for eid, entry in self.instance._entries.items():
            for value in entry.values(attribute):
                text = value if isinstance(value, str) else str(value)
                for i in range(len(text) - GRAM + 1):
                    _insert(bucket, text[i : i + GRAM], eid)

    def _index_entry(self, eid: int, snapshot: Dict[str, Tuple[Any, ...]]) -> None:
        for attribute, values in snapshot.items():
            _insert(self._present, attribute, eid)
            eq_bucket = self._eq.setdefault(attribute, {})
            gram_bucket = self._grams.get(attribute)
            for value in values:
                text = value if isinstance(value, str) else str(value)
                _insert(eq_bucket, text, eid)
                if gram_bucket is not None:
                    for i in range(len(text) - GRAM + 1):
                        _insert(gram_bucket, text[i : i + GRAM], eid)
        for attribute in self.key_attributes:
            for value in snapshot.get(attribute, ()):
                try:
                    _insert(self._keys.setdefault(attribute, {}), value, eid)
                except TypeError:
                    pass  # unhashable values cannot be probed either
        for attribute in self.referential_attributes:
            for value in snapshot.get(attribute, ()):
                norm = _normalize_dn(value if isinstance(value, str) else str(value))
                if norm is not None:
                    _insert(self._refs.setdefault(attribute, {}), norm, eid)

    def _unindex_entry(self, eid: int, snapshot: Dict[str, Tuple[Any, ...]]) -> None:
        for attribute, values in snapshot.items():
            _discard(self._present, attribute, eid)
            eq_bucket = self._eq.get(attribute)
            gram_bucket = self._grams.get(attribute)
            for value in values:
                text = value if isinstance(value, str) else str(value)
                if eq_bucket is not None:
                    _discard(eq_bucket, text, eid)
                if gram_bucket is not None:
                    for i in range(len(text) - GRAM + 1):
                        _discard(gram_bucket, text[i : i + GRAM], eid)
            if eq_bucket is not None and not eq_bucket:
                del self._eq[attribute]
        for attribute in self.key_attributes:
            bucket = self._keys.get(attribute)
            if bucket is None:
                continue
            for value in snapshot.get(attribute, ()):
                try:
                    _discard(bucket, value, eid)
                except TypeError:
                    pass
            if not bucket:
                del self._keys[attribute]
        for attribute in self.referential_attributes:
            bucket = self._refs.get(attribute)
            if bucket is None:
                continue
            for value in snapshot.get(attribute, ()):
                norm = _normalize_dn(value if isinstance(value, str) else str(value))
                if norm is not None:
                    _discard(bucket, norm, eid)
            if not bucket:
                del self._refs[attribute]


# ----------------------------------------------------------------------
# the indexes of a stitched composite: a view over its members'
# ----------------------------------------------------------------------
def _summed_counters(instances: Iterable[DirectoryInstance]) -> Tuple[int, ...]:
    """``(probes, hits, candidates)`` summed over the instances' indexes."""
    return tuple(
        sum(column)
        for column in zip(*(instance.indexes.counters() for instance in instances))
    )


class MemberIndexes:
    """What a stitched composite carries as ``indexes``: no postings of
    its own, only a *view* over the :class:`AttributeIndexes` of the
    member instances it was stitched from (Theorem 4.1 read for
    retrieval — a filter is plannable shard by shard).

    ``members`` is ``[(instance, graft)]``: ``graft`` is what a member's
    normalized DN string needs appended to become the composite's
    (``""`` for a member grafted at the root, else ``",<normalized DN of
    the entry it hangs under>"``).  Every probe goes to every member
    and answers with a :class:`_MemberCandidates` — the members'
    :class:`PostingView` answers, combinable and countable as they are
    (no posting is copied to be weighed), mapped onto composite ids only
    when iterated.  The planner's contract is unchanged: a sound
    superset, judged again by the caller.

    The members' indexes observe their own instances, so the composite's
    mutations (:meth:`entry_changing`, :meth:`entry_changed`,
    :meth:`entry_removed`) need no upkeep here.
    """

    def __init__(
        self,
        composite: DirectoryInstance,
        members: Sequence[Tuple[DirectoryInstance, str]],
    ) -> None:
        self.instance = composite
        self._members = list(members)
        #: Member-local candidates mapped onto composite ids so far — a
        #: search that walks its scope instead maps none.
        self.translated = 0

    def entry_changing(self, eid: int) -> None:
        """Observer hook of the composite: nothing to keep."""

    def entry_changed(self, eid: int) -> None:
        """Observer hook of the composite: nothing to patch."""

    def entry_removed(self, eid: int) -> None:
        """Observer hook of the composite: nothing to patch."""

    def equality_candidates(self, attribute: str, text: str):
        """:meth:`AttributeIndexes.equality_candidates` of every member."""
        return self._scatter("equality_candidates", attribute, text)

    def presence_candidates(self, attribute: str):
        """:meth:`AttributeIndexes.presence_candidates` of every member."""
        return self._scatter("presence_candidates", attribute)

    def substring_candidates(self, attribute: str, parts: Sequence[str]):
        """:meth:`AttributeIndexes.substring_candidates` of every member."""
        return self._scatter("substring_candidates", attribute, parts)

    def counters(self) -> Tuple[int, ...]:
        """``(probes, hits, candidates)`` summed over the members."""
        return _summed_counters(instance for instance, _ in self._members)

    def _scatter(self, probe: str, *args) -> "_MemberCandidates":
        return _MemberCandidates(
            self,
            [getattr(instance.indexes, probe)(*args) for instance, _ in self._members],
        )

    def _translate(self, per_member: Sequence[AbstractSet[int]]) -> Iterable[int]:
        """Composite ids of the members' candidates, through the
        normalized DN both sides key their entries by.  A candidate the
        composite does not hold means it is not the stitch of these
        members right now; the answer degrades to *every* composite
        entry — still a sound superset, and what a scan would judge."""
        composite = self.instance
        eids: List[int] = []
        for (instance, graft), candidates in zip(self._members, per_member):
            for candidate in candidates:
                eid = composite.id_of_normalized_dn(
                    instance.normalized_dn_string_of(candidate) + graft
                )
                if eid is None:
                    return composite.entry_id_view()
                eids.append(eid)
        self.translated += len(eids)
        return eids


class _MemberCandidates:
    """One candidate set of a :class:`MemberIndexes`: a
    :class:`PostingView` of member-local entry ids per member.  ``&``, ``|`` and ``len`` work
    member by member (the planner's gate reads the summed count before
    anything is mapped); iterating yields composite entry ids.  A
    :class:`PostingView` on the other side of an operator is the
    planner's own empty one — its FALSE plan, or the accumulator an
    ``Or`` starts from — and stands for "no candidate in any member"."""

    __slots__ = ("_view", "_per_member")

    def __init__(
        self, view: MemberIndexes, per_member: List[AbstractSet[int]]
    ) -> None:
        self._view = view
        self._per_member = per_member

    def _combined(self, combine, other) -> "_MemberCandidates":
        theirs = (
            other._per_member
            if isinstance(other, _MemberCandidates)
            else itertools.repeat(other)
        )
        return _MemberCandidates(
            self._view, [combine(a, b) for a, b in zip(self._per_member, theirs)]
        )

    def __and__(self, other) -> "_MemberCandidates":
        return self._combined(operator.and_, other)

    def __or__(self, other) -> "_MemberCandidates":
        return self._combined(operator.or_, other)

    __rand__ = __and__
    __ror__ = __or__

    def __len__(self) -> int:
        return sum(map(len, self._per_member))

    def __iter__(self):
        return iter(self._view._translate(self._per_member))


# ----------------------------------------------------------------------
# the Section 6.1 apply-time delta check
# ----------------------------------------------------------------------
def delta_extras_violations(
    extras: SchemaExtras,
    touched: Sequence[Tuple[Entry, str]],
    removed_dns: Iterable[str],
    key_holders: Callable[[str, Any], Iterable[str]],
    resolve: Callable[[str], bool],
    referrers: Callable[[str, str], Iterable[Tuple[Entry, str]]],
) -> List[Violation]:
    """Extras violations an update introduced, via index probes.

    This is the O(|Δ|) replacement for re-running
    :class:`~repro.legality.extras.ExtrasChecker` over the whole
    instance after every update: assuming the pre-update state was
    clean, a new violation must involve a touched entry — a key value
    it holds (probed through ``key_holders``, which merges per-shard
    key indexes in the sharded store), a reference it makes
    (``resolve``), a single-valued attribute it overfills, or a
    reference *to* one of the ``removed_dns`` from a surviving entry
    (``referrers``).  All DNs are global display strings so the union
    and sharded stores emit byte-identical verdicts.
    """
    violations: List[Violation] = []
    single_valued = sorted(extras.effective_single_valued())
    keys = sorted(extras.key_attributes)
    referential = sorted(extras.referential_attributes)

    def check_referential(entry: Entry, dn: str) -> None:
        for attribute in referential:
            for value in entry.values(attribute):
                target = value if isinstance(value, str) else str(value)
                if not resolve(target):
                    violations.append(
                        Violation(
                            Kind.DANGLING_REFERENCE,
                            f"attribute {attribute!r} references "
                            f"{target!r}, which names no entry",
                            dn=dn,
                        )
                    )

    seen: Set[str] = set()
    for entry, dn in touched:
        if dn in seen:
            continue
        seen.add(dn)
        check_referential(entry, dn)
        for attribute in single_valued:
            values = entry.values(attribute)
            if len(values) > 1:
                violations.append(
                    Violation(
                        Kind.SINGLE_VALUED,
                        f"attribute {attribute!r} is single-valued but "
                        f"holds {len(values)} values",
                        dn=dn,
                    )
                )
        for attribute in keys:
            for value in entry.values(attribute):
                others = sorted(set(key_holders(attribute, value)) - {dn})
                if others:
                    violations.append(
                        Violation(
                            Kind.DUPLICATE_KEY,
                            f"key {attribute!r} value {value!r} already "
                            f"used by entry {others[0]}",
                            dn=dn,
                        )
                    )
    if referential:
        # Deleting an entry can dangle references *to* it: re-validate
        # every surviving referrer of a removed DN.
        for norm_dn in removed_dns:
            for attribute in referential:
                for entry, dn in referrers(attribute, norm_dn):
                    if dn in seen:
                        continue
                    seen.add(dn)
                    check_referential(entry, dn)
    violations.sort(key=lambda violation: (str(violation.dn), violation.message))
    return violations


class ExtrasDeltaProbe:
    """The Section 6.1 check of one update, by index probes, over the
    indexed instances that together hold the directory.

    ``members`` is ``[(instance, globalise)]``: ``globalise`` turns a DN
    string of that instance into the directory-wide one.  A plain store
    is the one-member case with the identity; a sharded store has one
    member per shard and re-attaches the shard's suffix.
    ``resolve(target)`` says whether a directory-wide DN string names
    an entry (raising counts as "no").  :meth:`checkpoint` runs before
    the update is applied in memory, :meth:`settle` after.
    """

    def __init__(
        self,
        extras: SchemaExtras,
        members: Sequence[Tuple[DirectoryInstance, Callable[[str], str]]],
        resolve: Callable[[str], bool],
    ) -> None:
        self._extras = extras
        self._members = list(members)
        self._resolve = resolve

    def _counters(self) -> Tuple[int, ...]:
        return _summed_counters(instance for instance, _ in self._members)

    def checkpoint(self) -> None:
        """Flush every member's pending index maintenance, so the dirty
        sets afterwards track exactly the next update's footprint, and
        snapshot the probe counters."""
        for instance, _ in self._members:
            instance.indexes.delta_checkpoint()
        self._before = self._counters()

    def settle(self) -> Tuple[List[Violation], CheckStats]:
        """The violations the update applied since :meth:`checkpoint`
        introduced, and the index work it took to find them — O(|Δ|)
        probes, not a pass over the directory."""

        def named(instance, globalise, eids):
            return [
                (instance._entries[eid], globalise(instance.dn_string_of(eid)))
                for eid in eids
            ]

        touched: List[Tuple[Entry, str]] = []
        removed: List[str] = []
        for instance, globalise in self._members:
            eids, norms = instance.indexes.delta_collect()
            touched.extend(named(instance, globalise, eids))
            removed.extend(_normalize_dn(globalise(norm)) for norm in norms)

        def key_holders(attribute: str, value: Any) -> List[str]:
            return [
                globalise(instance.dn_string_of(eid))
                for instance, globalise in self._members
                for eid in instance.indexes.key_holders(attribute, value)
            ]

        def referrers(attribute: str, norm_target: str):
            return [
                pair
                for instance, globalise in self._members
                for pair in named(
                    instance, globalise,
                    instance.indexes.referrers(attribute, norm_target),
                )
            ]

        def resolve(target: str) -> bool:
            try:
                return self._resolve(target)
            except Exception:
                return False  # unparseable or unrouted: names no entry

        violations = delta_extras_violations(
            self._extras, touched, removed, key_holders, resolve, referrers
        )
        probes, hits, candidates = (
            after - before
            for after, before in zip(self._counters(), self._before)
        )
        return violations, CheckStats(
            index_probes=probes, index_hits=hits, index_candidates=candidates
        )

