"""Directory instances: the forest ``D = (R, class, val, N)``.

:class:`DirectoryInstance` is the library's central data structure — the
single uniform structure the directory model uses, just as the relational
model uses relations (Section 2.1).  It owns a set of
:class:`~repro.model.entry.Entry` nodes arranged in a forest and maintains:

* a DN index (entries addressable by distinguished name),
* a per-class index ``c -> {entries with c in class(r)}``, updated
  incrementally as classes change,
* optionally, :class:`~repro.model.pathcounts.PathCounts` — per entry,
  how many children / descendants hold a class — patched by every
  mutator in O(depth) once attached, and
* a *preorder/postorder interval numbering*, built lazily and then
  **maintained**: once a reader has asked for it, every later insertion
  and deletion patches it in O(|Δ|) (see :meth:`_ensure_order` for the
  label scheme).  It makes ancestor/descendant tests O(1) and lets the
  hierarchical query evaluator (:mod:`repro.query.evaluator`) meet the
  ``O(|Q| * |D|)`` bound of Jagadish et al. [9] that Theorem 3.1 relies on.

Mutations follow LDAP rules (Section 4.1): new entries are roots or children
of existing entries; only leaves can be deleted one at a time.  Subtree
grafting/pruning (the update granularity of Theorem 4.1) is provided on top
of these primitives by :meth:`insert_subtree` and :meth:`delete_subtree`.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    KeysView,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.errors import (
    DuplicateEntryError,
    ForestInvariantError,
    UnknownEntryError,
)
from repro.model.attributes import AttributeRegistry
from repro.model.dn import DN, RDN, parse_dn, parse_rdn, rdn_keys
from repro.model.entry import Entry
from repro.model.pathcounts import PathCounts

__all__ = ["DirectoryInstance"]

#: Distance between consecutive interval labels after a full renumber:
#: the room every entry keeps, before its ``post``, for children it does
#: not have yet.
_LABEL_GAP = 1 << 32
#: A new last child takes ``1/_LABEL_SHARE`` of the room left before its
#: parent's ``post`` as its own interval (room for its descendants), so
#: a parent takes several hundred appends, and new entries nest six
#: deep under one another, before a gap is exhausted.
_LABEL_SHARE = 32


class DirectoryInstance:
    """A directory instance ``D = (R, class, val, N)`` (Definition 2.1).

    Parameters
    ----------
    attributes:
        Optional attribute registry realizing ``tau``.  When provided,
        attribute values are normalized and type-checked on insertion
        (condition 3a); when ``None`` the instance is untyped and stores
        values verbatim.
    """

    def __init__(self, attributes: Optional[AttributeRegistry] = None) -> None:
        self.attributes = attributes
        self._entries: Dict[int, Entry] = {}
        self._parent: Dict[int, Optional[int]] = {}
        self._children: Dict[int, List[int]] = {}
        self._roots: List[int] = []
        # DN index, keyed by the *case-normalized* DN string: LDAP
        # compares attribute names and directory-string RDN values
        # case-insensitively, so without folding `find("CN=Alice,...")`
        # and `find("cn=alice,...")` would name different entries.
        # (Stored attribute *values* keep their case — repro.model.types
        # normalizes representation, not case.)
        self._by_dn: Dict[str, int] = {}
        # eid -> display DN string (original spelling), composed in O(1)
        # from the parent's key at insertion time; keeps add_entry O(1)
        # in depth (no root walk).
        self._dn_key: Dict[int, str] = {}
        # eid -> normalized DN string: the entry's _by_dn key.
        self._norm_key: Dict[int, str] = {}
        self._class_index: Dict[str, Set[int]] = {}
        # One frozenset per distinct class combination, shared by every
        # entry that holds it (a directory has a handful of them).
        self._class_sets: Dict[FrozenSet[str], FrozenSet[str]] = {}
        self._next_eid = 0
        # Optional secondary indexes (repro.store.index.AttributeIndexes).
        # When attached, every mutation notifies them so their postings
        # can be patched lazily in O(|Δ|); the model layer only knows
        # the observer protocol (``entry_changing`` before an entry's
        # values or classes change, ``entry_changed`` after, and
        # ``entry_removed``), not the index structure.
        self.indexes: Optional[Any] = None
        # Optional per-entry counts of the children / descendants that
        # hold a class (repro.model.pathcounts), patched by the mutators
        # below in O(depth) per changed entry.
        self.path_counts: Optional[PathCounts] = None
        #: Full renumberings of the forest so far (:meth:`_ensure_order`).
        #: An instance whose numbering is maintained across updates keeps
        #: this at 1 however many entries come and go.
        self.renumbers = 0
        # Interval numbering; None means stale (never asked for, or a
        # label gap ran out), and the next reader renumbers.
        self._pre: Optional[Dict[int, int]] = None
        self._post: Optional[Dict[int, int]] = None
        self._depth: Optional[Dict[int, int]] = None
        self._order: Optional[List[int]] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_entry(
        self,
        parent: Optional[Entry | int | DN | str],
        rdn: RDN | str,
        classes: Iterable[str],
        attributes: Optional[Dict[str, Iterable[Any]]] = None,
    ) -> Entry:
        """Create an entry under ``parent`` (``None`` for a new root).

        This is the LDAP insertion primitive: the parent must already exist
        (Section 4.1).  Returns the created :class:`Entry`.

        Raises
        ------
        DuplicateEntryError
            If an entry with the resulting DN already exists.
        UnknownEntryError
            If ``parent`` does not resolve to an entry.
        """
        if isinstance(rdn, str):
            rdn = parse_rdn(rdn)
        return self._add_named(parent, rdn, rdn_keys(rdn), classes, attributes)

    def _add_named(
        self,
        parent: Optional[Entry | int | DN | str],
        rdn: RDN,
        names: Tuple[str, str],
        classes: Iterable[str],
        attributes: Optional[Dict[str, Iterable[Any]]],
    ) -> Entry:
        """:meth:`add_entry` of ``rdn``, whose ``str`` and normalized
        ``str`` are ``names`` — which an LDIF load computes round the DN
        memos (:func:`repro.model.dn.fresh_keys`)."""
        parent_eid = None if parent is None else self._resolve(parent)
        key, norm = names
        if parent_eid is not None:
            key = f"{key},{self._dn_key[parent_eid]}"
            norm = f"{norm},{self._norm_key[parent_eid]}"
        if norm in self._by_dn:
            existing = self._dn_key[self._by_dn[norm]]
            if existing == key:
                raise DuplicateEntryError(
                    f"an entry with DN {key!r} already exists"
                )
            # Name both spellings: DN matching is case-insensitive, so
            # data written under the old exact-string resolution can
            # collide only here — the message is the migration hint.
            raise DuplicateEntryError(
                f"an entry with DN {key!r} already exists as {existing!r} "
                "(DNs match case-insensitively; rename one of the two "
                "spellings)"
            )

        eid = self._next_eid
        self._next_eid += 1
        entry = Entry(rdn, classes, owner=self, eid=eid)
        self._entries[eid] = entry
        self._parent[eid] = parent_eid
        self._children[eid] = []
        if parent_eid is None:
            self._roots.append(eid)
        else:
            self._children[parent_eid].append(eid)
        self._by_dn[norm] = eid
        self._dn_key[eid] = key
        self._norm_key[eid] = norm
        for object_class in entry.classes:
            self._class_index.setdefault(object_class, set()).add(eid)
        if self.path_counts is not None:
            self.path_counts.shift(eid, entry._classes, 1)
        if attributes:
            for name, values in attributes.items():
                for value in values:
                    entry.add_value(name, value)
        self._notify_entry_changed(eid)
        if self._order is not None:
            self._number_last_child(eid, parent_eid)
        return entry

    def delete_entry(self, entry: Entry | int | DN | str) -> None:
        """Delete a leaf entry (LDAP deletion primitive, Section 4.1).

        Raises
        ------
        ForestInvariantError
            If the entry has children.
        """
        eid = self._resolve(entry)
        if self._children[eid]:
            raise ForestInvariantError(
                "only leaf entries can be deleted; delete descendants first"
            )
        node = self._entries[eid]
        # Notify before the DN index entry disappears: the observer
        # captures the normalized DN for reverse-reference probes.
        self._notify_entry_removed(eid)
        if self.path_counts is not None:
            self.path_counts.subtree_removed(eid)
        if self._order is not None:
            del self._order[self._order_index(eid)]
            self._forget_labels(eid)
        parent_eid = self._parent[eid]
        if parent_eid is None:
            self._roots.remove(eid)
        else:
            self._children[parent_eid].remove(eid)
        del self._by_dn[self._norm_key.pop(eid)]
        del self._dn_key[eid]
        for object_class in node.classes:
            bucket = self._class_index.get(object_class)
            if bucket is not None:
                bucket.discard(eid)
                if not bucket:
                    del self._class_index[object_class]
        del self._entries[eid]
        del self._parent[eid]
        del self._children[eid]
        node._owner = None

    # ------------------------------------------------------------------
    # subtree operations (update granularity of Theorem 4.1)
    # ------------------------------------------------------------------
    def insert_subtree(
        self,
        parent: Optional[Entry | int | DN | str],
        subtree: "DirectoryInstance",
    ) -> List[Entry]:
        """Graft a copy of ``subtree`` (a directory instance) under
        ``parent``.

        Roots of ``subtree`` become children of ``parent`` (or new roots
        when ``parent`` is ``None``).  Returns the created entries in
        document order.  ``subtree`` itself is not modified.  All or
        nothing: when a root's DN is taken, the roots grafted before it
        are gone again by the time the error propagates.
        """
        parent_entry = None if parent is None else self.entry(self._resolve(parent))
        return subtree._copy_subtrees_into(self, list(subtree.root_ids()), parent_entry)

    def restore_subtree(
        self,
        parent: Optional[Entry | int | DN | str],
        subtree: "DirectoryInstance",
        index: int,
    ) -> None:
        """Undo a :meth:`delete_subtree`: graft the one-rooted ``subtree``
        it returned back under ``parent`` as sibling number ``index``.
        Anywhere but last, the numbering goes stale (one renumber); the
        path counts come back entry by entry through the graft."""
        self.insert_subtree(parent, subtree)
        siblings = self._roots if parent is None else self._children[self._resolve(parent)]
        if index < len(siblings) - 1:
            siblings.insert(index, siblings.pop())
            self._pre = self._post = self._depth = self._order = None

    def delete_subtree(self, entry: Entry | int | DN | str) -> "DirectoryInstance":
        """Prune the subtree rooted at ``entry``.

        Returns the removed subtree as a standalone instance (so callers
        can inspect, re-insert, or legality-check what was deleted).

        Pruning a subtree of size ``k`` costs O(k): the root is unlinked
        from its parent once, DN index keys are derived top-down from
        the parent's key (no per-node root walk), and a valid
        document-order numbering loses the subtree's labels and its one
        contiguous slice of the order.
        """
        eid = self._resolve(entry)
        removed = self.extract_subtree(eid)
        if self.path_counts is not None:  # while the ancestors are linked
            self.path_counts.subtree_removed(eid)
        numbered = self._order is not None
        if numbered:
            start = self._order_index(eid)
            del self._order[start : start + len(removed)]

        # Unlink the subtree root — the only sibling-list surgery needed.
        parent_eid = self._parent[eid]
        if parent_eid is None:
            self._roots.remove(eid)
        else:
            self._children[parent_eid].remove(eid)

        # Discard all k nodes in one pass; DN-index keys come from the
        # O(1) per-entry key cache, so no node pays a root walk.
        stack: List[int] = [eid]
        while stack:
            node_eid = stack.pop()
            self._notify_entry_removed(node_eid)
            if numbered:
                self._forget_labels(node_eid)
            node = self._entries.pop(node_eid)
            del self._by_dn[self._norm_key.pop(node_eid)]
            del self._dn_key[node_eid]
            for object_class in node.classes:
                bucket = self._class_index.get(object_class)
                if bucket is not None:
                    bucket.discard(node_eid)
                    if not bucket:
                        del self._class_index[object_class]
            stack.extend(self._children[node_eid])
            del self._parent[node_eid]
            del self._children[node_eid]
            node._owner = None
        return removed

    def extract_subtree(self, entry: Entry | int | DN | str) -> "DirectoryInstance":
        """Copy the subtree rooted at ``entry`` into a fresh instance
        without modifying this one.  Iterative, so depth is unbounded."""
        eid = self._resolve(entry)
        subtree = DirectoryInstance(attributes=self.attributes)
        self._copy_subtrees_into(subtree, [eid])
        return subtree

    def copy(self) -> "DirectoryInstance":
        """Deep-copy the whole instance (entry ids are not preserved)."""
        clone = DirectoryInstance(attributes=self.attributes)
        self._copy_subtrees_into(clone, list(self._roots))
        return clone

    def _copy_subtrees_into(
        self,
        target: "DirectoryInstance",
        root_eids: List[int],
        parent: Optional[Entry] = None,
    ) -> List[Entry]:
        """Re-create the subtrees at ``root_eids`` inside ``target``
        under ``parent`` (as new roots for ``None``); returns the
        created entries in document order.  An explicit stack, not
        recursion, so arbitrarily deep subtrees copy fine."""
        created: List[Entry] = []
        stack = [(root_eid, parent) for root_eid in reversed(root_eids)]
        try:
            while stack:
                node_eid, dest_parent = stack.pop()
                src = self._entries[node_eid]
                attributes = {
                    name: list(src.values(name))
                    for name in src.attribute_names()
                    if name != "objectClass"
                }
                node = target.add_entry(dest_parent, src.rdn, src.classes, attributes)
                created.append(node)
                for child_eid in reversed(self._children[node_eid]):
                    stack.append((child_eid, node))
        except DuplicateEntryError:
            for node in reversed(created):  # leaves first
                target.delete_entry(node)
            raise
        return created

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def entry(self, entry: Entry | int | DN | str) -> Entry:
        """Resolve an entry by object, id, DN, or DN string."""
        return self._entries[self._resolve(entry)]

    def find(self, dn: DN | str) -> Optional[Entry]:
        """Return the entry with distinguished name ``dn`` or ``None``.

        Matching is case-insensitive, as LDAP defines for attribute
        names and directory-string RDN values: ``find("CN=Alice,...")``
        and ``find("cn=alice,...")`` resolve to the same entry.
        (Stored attribute *values* are case-preserved; only DN
        resolution folds case.)
        """
        parsed = parse_dn(dn) if isinstance(dn, str) else dn
        eid = self._by_dn.get(str(parsed.normalized()))
        return None if eid is None else self._entries[eid]

    def dn_of(self, entry: Entry | int) -> DN:
        """The distinguished name of ``entry``."""
        eid = entry.eid if isinstance(entry, Entry) else entry
        rdns: List[RDN] = []
        cursor: Optional[int] = eid
        while cursor is not None:
            node = self._entries.get(cursor)
            if node is None:
                raise UnknownEntryError(f"unknown entry id {cursor}")
            rdns.append(node.rdn)
            cursor = self._parent[cursor]
        return DN(tuple(rdns))

    def dn_string_of(self, entry: Entry | int) -> str:
        """The DN string of ``entry`` in O(1).

        Equal to ``str(self.dn_of(entry))`` but read from the insertion-
        time key cache instead of walking to the root — the form hot
        per-entry paths (content checking every entry of a deep
        directory) should use.
        """
        return self._dn_key[self._resolve(entry)]

    def normalized_dn_string_of(self, entry: Entry | int) -> str:
        """The case-folded DN string of ``entry`` in O(1) — the key
        :meth:`find` resolves by.  A subtree grafted under an entry keeps
        its own keys as a prefix: ``<key in the subtree>,<key of the
        entry it hangs under>``."""
        return self._norm_key[self._resolve(entry)]

    def id_of_normalized_dn(self, normalized: str) -> Optional[int]:
        """The id of the entry whose :meth:`normalized_dn_string_of` is
        ``normalized``, or ``None`` — :meth:`find` without the parse."""
        return self._by_dn.get(normalized)

    def entries_with_class(self, object_class: str) -> Set[int]:
        """Ids of entries ``r`` with ``object_class in class(r)`` — the
        per-class index used by query evaluation."""
        return set(self._class_index.get(object_class, ()))

    def class_count(self, object_class: str) -> int:
        """``|{r : object_class in class(r)}|`` — supports the counted
        variant of incremental ``c-box`` testing (end of Section 4)."""
        return len(self._class_index.get(object_class, ()))

    # ------------------------------------------------------------------
    # structure navigation
    # ------------------------------------------------------------------
    def parent_of(self, entry: Entry | int) -> Optional[Entry]:
        """The parent entry, or ``None`` for roots."""
        eid = self._resolve(entry)
        parent_eid = self._parent[eid]
        return None if parent_eid is None else self._entries[parent_eid]

    def children_of(self, entry: Entry | int) -> List[Entry]:
        """The child entries, in insertion order."""
        return [self._entries[c] for c in self._children[self._resolve(entry)]]

    def children_ids(self, entry: Entry | int) -> Tuple[int, ...]:
        """Ids of the children of ``entry``."""
        return tuple(self._children[self._resolve(entry)])

    def parent_id(self, entry: Entry | int) -> Optional[int]:
        """Id of the parent of ``entry`` (``None`` for roots)."""
        return self._parent[self._resolve(entry)]

    def root_ids(self) -> Tuple[int, ...]:
        """Ids of the root entries."""
        return tuple(self._roots)

    def roots(self) -> List[Entry]:
        """The root entries."""
        return [self._entries[r] for r in self._roots]

    def ancestors_of(self, entry: Entry | int) -> Iterator[Entry]:
        """Proper ancestors, nearest first."""
        cursor = self._parent[self._resolve(entry)]
        while cursor is not None:
            yield self._entries[cursor]
            cursor = self._parent[cursor]

    def descendants_of(self, entry: Entry | int) -> Iterator[Entry]:
        """Proper descendants, in document order."""
        eid = self._resolve(entry)
        for node_eid in self._iter_subtree_ids(eid):
            if node_eid != eid:
                yield self._entries[node_eid]

    def is_ancestor(self, ancestor: Entry | int, descendant: Entry | int) -> bool:
        """O(1) proper ancestor test via interval numbering."""
        self._ensure_order()
        assert self._pre is not None and self._post is not None
        a = self._resolve(ancestor)
        d = self._resolve(descendant)
        return self._pre[a] < self._pre[d] and self._post[d] < self._post[a]

    def depth_of(self, entry: Entry | int) -> int:
        """Depth of ``entry`` (roots have depth 1)."""
        self._ensure_order()
        assert self._depth is not None
        return self._depth[self._resolve(entry)]

    def max_depth(self) -> int:
        """The depth of the deepest entry (0 for an empty instance)."""
        self._ensure_order()
        assert self._depth is not None
        return max(self._depth.values(), default=0)

    @property
    def numbered(self) -> bool:
        """Whether the interval numbering is current: reading an
        interval, the document order or a subtree size costs no
        renumber."""
        return self._order is not None

    def ensure_numbered(self) -> None:
        """Number the forest now if its numbering is stale — one O(|D|)
        pass, which the updates after it patch rather than repeat."""
        self._ensure_order()

    def interval_of(self, entry: Entry | int) -> Tuple[int, int]:
        """The ``(pre, post)`` interval of ``entry``."""
        self._ensure_order()
        assert self._pre is not None and self._post is not None
        eid = self._resolve(entry)
        return (self._pre[eid], self._post[eid])

    # ------------------------------------------------------------------
    # iteration and size
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Entry]:
        """Iterate entries in document (preorder) order — the sorted order
        assumed by the structural-join evaluation of [9]."""
        self._ensure_order()
        assert self._order is not None
        return (self._entries[eid] for eid in self._order)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, entry: Entry | int | DN | str) -> bool:
        try:
            self._resolve(entry)
        except UnknownEntryError:
            return False
        return True

    def entry_ids(self) -> Tuple[int, ...]:
        """All entry ids in document order."""
        self._ensure_order()
        assert self._order is not None
        return tuple(self._order)

    def all_entry_id_set(self) -> Set[int]:
        """All entry ids as a set (evaluation scope ``D``)."""
        return set(self._entries.keys())

    def entry_id_view(self) -> KeysView[int]:
        """All entry ids as a live, set-like view — the O(1) form of
        :meth:`all_entry_id_set` for callers that only test membership,
        take the size or intersect (it follows later mutations)."""
        return self._entries.keys()

    def subtree_size(self, entry: Entry | int) -> int:
        """Entries in the subtree rooted at ``entry``, itself included:
        two bisects in the document order, no walk."""
        self._ensure_order()
        assert self._pre is not None and self._post is not None
        assert self._order is not None
        eid = self._resolve(entry)
        end = bisect_left(
            self._order, self._post[eid], key=self._pre.__getitem__
        )
        return end - self._order_index(eid)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _resolve(self, entry: Entry | int | DN | str) -> int:
        if isinstance(entry, Entry):
            eid = entry.eid
        elif isinstance(entry, int):
            eid = entry
        else:
            dn = parse_dn(entry) if isinstance(entry, str) else entry
            found = self._by_dn.get(str(dn.normalized()))
            if found is None:
                raise UnknownEntryError(f"no entry with DN {str(dn)!r}")
            eid = found
        if eid not in self._entries:
            raise UnknownEntryError(f"unknown entry id {eid}")
        return eid

    def _iter_subtree_ids(self, eid: int) -> Iterator[int]:
        stack = [eid]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(self._children[node]))

    def _on_class_added(self, eid: int, object_class: str) -> None:
        self._class_index.setdefault(object_class, set()).add(eid)
        if self.path_counts is not None:
            self.path_counts.shift(eid, (object_class,), 1)
        self._notify_entry_changed(eid)

    def _on_class_removed(self, eid: int, object_class: str) -> None:
        bucket = self._class_index.get(object_class)
        if bucket is not None:
            bucket.discard(eid)
            if not bucket:
                del self._class_index[object_class]
        if self.path_counts is not None:
            self.path_counts.shift(eid, (object_class,), -1)
        self._notify_entry_changed(eid)

    def _interned_classes(self, classes: FrozenSet[str]) -> FrozenSet[str]:
        """The one shared object equal to ``classes``."""
        return self._class_sets.setdefault(classes, classes)

    def _notify_entry_changing(self, eid: int) -> None:
        indexes = self.indexes
        if indexes is not None:
            indexes.entry_changing(eid)

    def _notify_entry_changed(self, eid: int) -> None:
        indexes = self.indexes
        if indexes is not None:
            indexes.entry_changed(eid)

    def _notify_entry_removed(self, eid: int) -> None:
        indexes = self.indexes
        if indexes is not None:
            indexes.entry_removed(eid)

    def _ensure_order(self) -> None:
        """Number the forest if its numbering is stale.

        Labels are *gapped*: ``pre`` and ``post`` come off one clock
        that advances :data:`_LABEL_GAP` per tick, so every entry keeps
        room before its ``post``.  From then on :meth:`add_entry` labels
        a new last child inside that room (:meth:`_number_last_child`)
        and deletions forget labels, so the numbering survives updates;
        only a gap running out makes it stale again.  An instance nobody
        has read yet (bulk load, ``parse_ldif``, a stitched composite)
        is stale from the start and its insertions patch nothing.
        """
        if self._order is not None:
            return
        pre: Dict[int, int] = {}
        post: Dict[int, int] = {}
        depth: Dict[int, int] = {}
        order: List[int] = []
        clock = 0
        for root in self._roots:
            # Iterative DFS assigning pre on entry and post on exit.
            stack: List[Tuple[int, int, bool]] = [(root, 1, False)]
            while stack:
                node, d, exiting = stack.pop()
                clock += _LABEL_GAP
                if exiting:
                    post[node] = clock
                    continue
                pre[node] = clock
                depth[node] = d
                order.append(node)
                stack.append((node, d, True))
                for child in reversed(self._children[node]):
                    stack.append((child, d + 1, False))
        self._pre = pre
        self._post = post
        self._depth = depth
        self._order = order
        self.renumbers += 1

    def _number_last_child(self, eid: int, parent_eid: Optional[int]) -> None:
        """Patch a valid numbering for ``eid``, just linked in as the
        last child of ``parent_eid`` (last root for ``None``): its
        interval goes between the previous sibling's ``post`` (the
        parent's ``pre`` for a first child) and the parent's ``post``.
        When fewer than two labels are free there the numbering goes
        stale, and the next reader renumbers the forest."""
        pre, post, depth, order = self._pre, self._post, self._depth, self._order
        assert pre is not None and post is not None
        assert depth is not None and order is not None
        if parent_eid is None:
            # Labels are unbounded ints: the room after the last root
            # never runs out.
            low = post[self._roots[-2]] if len(self._roots) > 1 else 0
            width = _LABEL_GAP
            depth[eid] = 1
        else:
            siblings = self._children[parent_eid]
            low = post[siblings[-2]] if len(siblings) > 1 else pre[parent_eid]
            room = post[parent_eid] - low
            if room < 3:
                self._pre = self._post = self._depth = self._order = None
                return
            width = max(1, room // _LABEL_SHARE)
            depth[eid] = depth[parent_eid] + 1
        # Nothing is ever inserted *before* a last child, so its
        # interval starts right after ``low``.
        pre[eid] = low + 1
        post[eid] = low + 1 + width
        order.insert(self._order_index(eid), eid)

    def _order_index(self, eid: int) -> int:
        """Where ``eid`` sits (or, not yet inserted, belongs) in a valid
        ``_order``: one bisect over the ``pre`` labels."""
        assert self._pre is not None and self._order is not None
        return bisect_left(
            self._order, self._pre[eid], key=self._pre.__getitem__
        )

    def _forget_labels(self, eid: int) -> None:
        assert self._pre is not None and self._post is not None
        assert self._depth is not None
        del self._pre[eid], self._post[eid], self._depth[eid]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DirectoryInstance(|D|={len(self._entries)}, roots={len(self._roots)})"
