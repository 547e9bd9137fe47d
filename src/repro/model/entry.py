"""Directory entries.

An entry (Definition 2.1) is a node of the directory forest holding

* a finite, non-empty set of object classes ``class(r)``, and
* a finite set of (attribute, value) pairs ``val(r)``,

subject to the invariant that the values of the reserved attribute
``objectClass`` are exactly ``class(r)`` (condition 3b).  :class:`Entry`
keeps the class set as the single source of truth and synthesizes the
``objectClass`` attribute on read, so the invariant holds by construction.

Entries are owned by a :class:`~repro.model.instance.DirectoryInstance`,
which assigns them an integer id and maintains the forest relation and the
per-class index.  Every mutator tells the owner before it changes the
entry and after, so indexes stay correct.  The class set is a frozenset
the owner interns: entries with equal classes share one object.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from repro.errors import ModelError
from repro.model.attributes import OBJECT_CLASS
from repro.model.dn import DN, RDN

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.instance import DirectoryInstance

__all__ = ["Entry"]


class Entry:
    """One directory entry: classes, attribute values, and a position.

    Instances are created through
    :meth:`DirectoryInstance.add_entry <repro.model.instance.DirectoryInstance.add_entry>`;
    constructing one directly leaves it detached (no id, no DN) which is
    only useful in tests.
    """

    __slots__ = ("_owner", "eid", "rdn", "_classes", "_attributes")

    def __init__(
        self,
        rdn: RDN,
        classes: Iterable[str],
        attributes: Optional[Dict[str, Iterable[Any]]] = None,
        owner: Optional["DirectoryInstance"] = None,
        eid: int = -1,
    ) -> None:
        class_set = frozenset(classes)
        if not class_set:
            raise ModelError("class(r) must be a non-empty set (Definition 2.1)")
        self._owner = owner
        self.eid = eid
        self.rdn = rdn
        self._classes: FrozenSet[str] = (
            class_set if owner is None else owner._interned_classes(class_set)
        )
        self._attributes: Dict[str, List[Any]] = {}
        if attributes:
            for name, values in attributes.items():
                for value in values:
                    self.add_value(name, value)

    # ------------------------------------------------------------------
    # classes
    # ------------------------------------------------------------------
    @property
    def classes(self) -> FrozenSet[str]:
        """The set ``class(r)`` of object classes the entry belongs to."""
        return self._classes

    def belongs_to(self, object_class: str) -> bool:
        """Whether ``object_class in class(r)``."""
        return object_class in self._classes

    def add_class(self, object_class: str) -> None:
        """Add an object class to ``class(r)`` (idempotent)."""
        if object_class in self._classes:
            return
        self._set_classes(self._classes | {object_class})
        if self._owner is not None:
            self._owner._on_class_added(self.eid, object_class)

    def remove_class(self, object_class: str) -> None:
        """Remove an object class from ``class(r)``.

        Raises
        ------
        ModelError
            If the class is absent or removal would leave the entry with an
            empty class set (forbidden by Definition 2.1).
        """
        if object_class not in self._classes:
            raise ModelError(f"entry does not belong to {object_class!r}")
        if len(self._classes) == 1:
            raise ModelError("class(r) must stay non-empty (Definition 2.1)")
        self._set_classes(self._classes - {object_class})
        if self._owner is not None:
            self._owner._on_class_removed(self.eid, object_class)

    def _set_classes(self, classes: FrozenSet[str]) -> None:
        owner = self._owner
        if owner is not None:
            owner._notify_entry_changing(self.eid)
            classes = owner._interned_classes(classes)
        self._classes = classes

    # ------------------------------------------------------------------
    # attribute values
    # ------------------------------------------------------------------
    def values(self, attribute: str) -> Tuple[Any, ...]:
        """All values of ``attribute`` at this entry (possibly empty).

        For ``objectClass`` this is the (sorted) class set, per condition
        3(b) of Definition 2.1.
        """
        if attribute == OBJECT_CLASS:
            return tuple(sorted(self._classes))
        return tuple(self._attributes.get(attribute, ()))

    def first_value(self, attribute: str) -> Optional[Any]:
        """The first value of ``attribute`` or ``None`` when absent."""
        values = self.values(attribute)
        return values[0] if values else None

    def has_attribute(self, attribute: str) -> bool:
        """Whether the entry has at least one value for ``attribute``."""
        if attribute == OBJECT_CLASS:
            return True
        return bool(self._attributes.get(attribute))

    def has_value(self, attribute: str, value: Any) -> bool:
        """Whether ``(attribute, value)`` is in ``val(r)``."""
        if attribute == OBJECT_CLASS:
            return value in self._classes
        return value in self._attributes.get(attribute, ())

    def add_value(self, attribute: str, value: Any) -> None:
        """Add a pair to ``val(r)``.

        ``val(r)`` is a *set* of pairs, so adding an existing pair is a
        no-op.  Adding to ``objectClass`` is equivalent to
        :meth:`add_class`.  When the owning instance has an attribute
        registry, the value is normalized and type-checked first
        (condition 3a of Definition 2.1).
        """
        if attribute == OBJECT_CLASS:
            self.add_class(value)
            return
        if self._owner is not None and self._owner.attributes is not None:
            value = self._owner.attributes.coerce(attribute, value)
        bucket = self._attributes.get(attribute)
        if bucket is not None and value in bucket:
            return
        if self._owner is not None:
            self._owner._notify_entry_changing(self.eid)
        if bucket is None:
            bucket = self._attributes[attribute] = []
        bucket.append(value)
        if self._owner is not None:
            self._owner._notify_entry_changed(self.eid)

    def remove_value(self, attribute: str, value: Any) -> None:
        """Remove a pair from ``val(r)``.

        Raises
        ------
        ModelError
            If the pair is absent.
        """
        if attribute == OBJECT_CLASS:
            self.remove_class(value)
            return
        bucket = self._attributes.get(attribute)
        if not bucket or value not in bucket:
            raise ModelError(f"entry has no pair ({attribute!r}, {value!r})")
        if self._owner is not None:
            self._owner._notify_entry_changing(self.eid)
        bucket.remove(value)
        if not bucket:
            del self._attributes[attribute]
        if self._owner is not None:
            self._owner._notify_entry_changed(self.eid)

    def replace_values(self, attribute: str, values: Iterable[Any]) -> None:
        """Replace all values of ``attribute`` with ``values`` — or, when
        one of them is ill-typed, raise with nothing changed."""
        if attribute == OBJECT_CLASS:
            raise ModelError("objectClass is managed through add_class/remove_class")
        if self._owner is not None and self._owner.attributes is not None:
            values = [self._owner.attributes.coerce(attribute, v) for v in values]
        current = list(self._attributes.get(attribute, ()))
        for value in current:
            self.remove_value(attribute, value)
        for value in values:
            self.add_value(attribute, value)

    def reorder_attributes(self, names: Iterable[str]) -> None:
        """Put the attributes back in the order of ``names`` (an earlier
        :meth:`attribute_names`): an emptied attribute comes back last."""
        held = self._attributes
        self._attributes = {name: held[name] for name in names if name in held}

    def attribute_names(self) -> Tuple[str, ...]:
        """Names of attributes with at least one value, including
        ``objectClass``."""
        return (OBJECT_CLASS,) + tuple(self._attributes.keys())

    def pairs(self) -> Iterator[Tuple[str, Any]]:
        """Iterate over ``val(r)`` as (attribute, value) pairs, including
        the synthesized ``objectClass`` pairs."""
        for object_class in sorted(self._classes):
            yield (OBJECT_CLASS, object_class)
        for name, values in self._attributes.items():
            for value in values:
                yield (name, value)

    def value_count(self) -> int:
        """``|val(r)|`` — the number of (attribute, value) pairs."""
        return len(self._classes) + sum(len(v) for v in self._attributes.values())

    # ------------------------------------------------------------------
    # position
    # ------------------------------------------------------------------
    @property
    def dn(self) -> DN:
        """The entry's distinguished name (requires an owner)."""
        if self._owner is None:
            return DN((self.rdn,))
        return self._owner.dn_of(self.eid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Entry({self.rdn!s}, classes={sorted(self._classes)})"
