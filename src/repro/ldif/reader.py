"""LDIF parsing (RFC 2849 content records).

The paper's experiments presume LDAP tooling for loading directory data;
since no LDAP stack is available offline, this module implements the LDIF
content format directly: ``dn:`` lines, ``attribute: value`` lines, base64
values (``::``), line continuations (a leading space), comments (``#``), and
an optional ``version:`` header.

:func:`parse_ldif` assembles a :class:`~repro.model.instance.DirectoryInstance`
in one streaming pass: lines are read off the text one at a time, and
each record is added, under its parent entry, as soon as it completes.
Only a record whose parent has not appeared yet waits, keyed by the
parent's normalized DN, and is added right after its parent; a
document in document order (every snapshot this library writes) keeps
nothing waiting.  A record whose parent never appears is an error
(matching LDAP server behaviour).
"""

from __future__ import annotations

import base64
import itertools
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import LdifError
from repro.model.attributes import OBJECT_CLASS, AttributeRegistry
from repro.model.dn import DN, RDN, fresh_keys, parse_dn, parse_record_dn
from repro.model.entry import Entry
from repro.model.instance import DirectoryInstance

__all__ = ["LdifRecord", "parse_ldif_records", "parse_ldif", "load_ldif"]


class LdifRecord:
    """One parsed LDIF content record: a DN plus attribute lines."""

    __slots__ = ("dn", "attributes")

    def __init__(self, dn: DN, attributes: List[Tuple[str, str]]) -> None:
        self.dn = dn
        self.attributes = attributes

    def object_classes(self) -> List[str]:
        """The values of the ``objectClass`` attribute, in file order."""
        return [v for (a, v) in self.attributes if a == OBJECT_CLASS]

    def other_attributes(self) -> Dict[str, List[str]]:
        """All attributes except ``objectClass``, grouped by name."""
        grouped: Dict[str, List[str]] = {}
        for attribute, value in self.attributes:
            if attribute == OBJECT_CLASS:
                continue
            grouped.setdefault(attribute, []).append(value)
        return grouped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LdifRecord({self.dn!s}, {len(self.attributes)} lines)"


def _lines(text: str) -> Iterator[str]:
    """The logical lines of ``text``, one at a time and without a list
    of them all: RFC 2849 separators (LF or CRLF), with continuation
    lines (a leading space) joined to the line they continue."""
    current: Optional[str] = None
    start, end = 0, len(text)
    find = text.find
    while start < end:
        stop = find("\n", start)
        if stop < 0:
            stop = end
        line = text[start:stop].rstrip("\r")
        start = stop + 1
        if line.startswith(" "):
            if current is None:
                raise LdifError("continuation line with no preceding line")
            current += line[1:]
            continue
        if current is not None:
            yield current
        current = line
    if current is not None:
        yield current


def _parse_attribute_line(line: str) -> Tuple[str, str]:
    colon = line.find(":")
    if colon <= 0:
        if line.strip() == "-":
            # clause separator inside a changetype:modify record (RFC 2849)
            return ("-", "")
        raise LdifError(f"malformed LDIF line: {line!r}")
    name = line[:colon].strip()
    rest = line[colon + 1:]
    if rest.startswith(":"):
        encoded = rest[1:].strip()
        try:
            value = base64.b64decode(encoded, validate=True).decode("utf-8")
        except Exception as exc:
            raise LdifError(f"invalid base64 value in line {line!r}") from exc
    else:
        value = rest.strip()
    return name, value


def _iter_records(text: str, parse_name) -> Iterator[LdifRecord]:
    """The records of LDIF ``text``, each as soon as it completes, its
    DN parsed by ``parse_name``."""
    block: List[str] = []
    for line in itertools.chain(_lines(text), ("",)):  # "" ends the last
        if line.strip():
            if not line.startswith("#"):
                block.append(line)
            continue
        if block:
            record = _record(block, parse_name)
            block = []
            if record is not None:
                yield record


def _record(lines: List[str], parse_name) -> Optional[LdifRecord]:
    """One record from its non-comment lines (``None`` for a lone
    ``version:`` header)."""
    if lines[0].lower().startswith("version:"):
        lines = lines[1:]
        if not lines:
            return None
    first = lines[0]
    name, value = _parse_attribute_line(first)
    if name.lower() != "dn":
        raise LdifError(f"record does not start with a dn: line ({first!r})")
    return LdifRecord(
        parse_name(value),
        [_parse_attribute_line(line) for line in lines[1:]],
    )


def parse_ldif_records(text: str) -> List[LdifRecord]:
    """Parse LDIF text into a list of :class:`LdifRecord`.

    Raises
    ------
    LdifError
        On malformed lines, records without a leading ``dn:`` line, or
        invalid base64 payloads.
    """
    # Unmemoised DNs: a document names each once.  Their RDNs go through
    # the memo, as change and modify records name entries again.
    return list(_iter_records(text, parse_dn.__wrapped__))


def parse_ldif(
    text: str,
    attributes: Optional[AttributeRegistry] = None,
) -> DirectoryInstance:
    """Parse LDIF text directly into a :class:`DirectoryInstance`.

    Records may appear in any order: one whose parent has not appeared
    yet waits for it.  Siblings keep their document order.

    Raises
    ------
    LdifError
        If a record's parent DN does not occur in the document (and is not
        empty), or two records share a DN.
    """
    instance = DirectoryInstance(attributes=attributes)
    # normalized parent DN -> [(document position, record)] still waiting
    waiting: Dict[str, List[Tuple[int, LdifRecord]]] = {}
    # consecutive siblings share a parent: the last one found, by RDNs
    last_rdns: Tuple[RDN, ...] = ()
    last_parent: Optional[int] = None
    # A snapshot names each entry once: its DN, own RDN and keys go
    # round the DN memos, which would keep one entry per entry.
    for position, record in enumerate(_iter_records(text, parse_record_dn)):
        parent_rdns = record.dn.rdns[1:]
        if not parent_rdns:
            parent = None
        elif parent_rdns == last_rdns:
            parent = last_parent
        else:
            key = str(DN(parent_rdns).normalized())
            parent = instance.id_of_normalized_dn(key)
            if parent is None:
                waiting.setdefault(key, []).append((position, record))
                continue
            last_rdns, last_parent = parent_rdns, parent
        entry = _add(instance, parent, record)
        if waiting:
            _add_waiting(instance, entry, waiting)
    if waiting:
        # The record the depth-ordered load would have stopped at: the
        # shallowest one left, first in document order.
        _, record = min(
            (item for items in waiting.values() for item in items),
            key=lambda item: (item[1].dn.depth(), item[0]),
        )
        raise LdifError(
            f"record {record.dn!s} has no parent record {record.dn.parent()!s}"
        )
    return instance


def _add(
    instance: DirectoryInstance, parent: Optional[int], record: LdifRecord
) -> Entry:
    classes = record.object_classes()
    if not classes:
        raise LdifError(f"record {record.dn!s} has no objectClass values")
    values: Dict[str, List[Any]] = record.other_attributes()
    rdn = record.dn.rdn
    try:
        return instance._add_named(parent, rdn, fresh_keys(rdn), classes, values)
    except Exception as exc:
        raise LdifError(f"cannot add record {record.dn!s}: {exc}") from exc


def _add_waiting(
    instance: DirectoryInstance,
    entry: Entry,
    waiting: Dict[str, List[Tuple[int, LdifRecord]]],
) -> None:
    """Add the records that waited for ``entry``, and theirs in turn."""
    added = [entry]
    while added and waiting:
        parent = added.pop()
        for _, record in waiting.pop(
            instance.normalized_dn_string_of(parent), ()
        ):
            added.append(_add(instance, parent.eid, record))


def load_ldif(path: str, attributes: Optional[AttributeRegistry] = None) -> DirectoryInstance:
    """Read an LDIF file from ``path`` into a :class:`DirectoryInstance`."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_ldif(handle.read(), attributes=attributes)
