"""Distinguished names.

Every entry in an LDAP directory is identified by a *distinguished name*
(DN): the sequence of *relative distinguished names* (RDNs) from the entry up
to its root, written leaf-first and comma-separated, e.g.
``uid=laks,ou=databases,ou=attLabs,o=att``.

The paper abstracts DNs away ("for the purposes of this paper, distinguished
names are not important, and the abstraction of a forest simplifies the
presentation", Definition 2.3 footnote), but a usable library needs them: the
forest structure of :class:`~repro.model.instance.DirectoryInstance` is
induced by DNs exactly as in a real LDAP server, and LDIF interchange
(:mod:`repro.ldif`) addresses entries by DN.

This module implements RFC 4514-style escaping for the characters that are
meaningful inside RDNs (``, + " \\ < > ; =`` and leading/trailing spaces).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence, Tuple

from repro.errors import ModelError

__all__ = ["RDN", "DN", "parse_dn", "parse_rdn"]

_ESCAPED_CHARS = ',+"\\<>;='

#: Bound of each memo below.  DN text is re-parsed, re-escaped and
#: re-normalized on every hot path (a write's DNs and lookups, one
#: escape per RDN per ``str(dn)`` on the write and replication paths, a
#: ``normalized()`` per DN lookup and per Theorem 4.1 grouping key) and
#: a directory draws its RDNs from a small vocabulary, so the memos hit
#: almost always; :class:`RDN` and :class:`DN` are frozen, so handing
#: the same value to every caller is safe.  A document names each DN
#: once, so an LDIF record's DN and its own RDN are parsed
#: (:func:`parse_record_dn`) and keyed (:func:`fresh_keys`) round the
#: memos: a copy's open leaves them one entry per distinct parent, not
#: one per entry that nothing hits.  A raising input is never cached
#: (``lru_cache`` stores results only).
_MEMO_SIZE = 1 << 15


@lru_cache(maxsize=_MEMO_SIZE)
def _escape_value(value: str) -> str:
    out = []
    for i, ch in enumerate(value):
        if ch in _ESCAPED_CHARS:
            out.append("\\" + ch)
        elif ch == " " and (i == 0 or i == len(value) - 1):
            out.append("\\ ")
        else:
            out.append(ch)
    return "".join(out)


@dataclass(frozen=True, order=True)
class RDN:
    """A relative distinguished name: one ``attribute=value`` component."""

    attribute: str
    value: str

    @lru_cache(maxsize=_MEMO_SIZE)
    def normalized(self) -> "RDN":
        """The case-normalized form used for DN matching.

        LDAP compares attribute names and (directory-string) RDN values
        case-insensitively, so DN index keys and equality tests fold
        case.  Display forms keep their original spelling.  Note the
        fold applies to DN *matching* only: stored attribute values are
        case-preserved (:mod:`repro.model.types` normalizes their
        representation, not their case).
        """
        return RDN(self.attribute.casefold(), self.value.casefold())

    def __str__(self) -> str:
        return _rdn_text(self, _escape_value)


def _rdn_text(rdn: RDN, escape) -> str:
    """``attribute=value``, the value escaped by ``escape``."""
    return f"{rdn.attribute}={escape(rdn.value)}"


def rdn_keys(rdn: RDN) -> Tuple[str, str]:
    """The keys an entry named ``rdn`` is indexed by:
    ``(str(rdn), str(rdn.normalized()))``, through the memos."""
    return _rdn_text(rdn, _escape_value), _rdn_text(rdn.normalized(), _escape_value)


def fresh_keys(rdn: RDN) -> Tuple[str, str]:
    """:func:`rdn_keys`, computed and not memoised: what an LDIF
    record's entry is keyed by (see :data:`_MEMO_SIZE`)."""
    escape = _escape_value.__wrapped__
    return _rdn_text(rdn, escape), _rdn_text(RDN.normalized.__wrapped__(rdn), escape)


@dataclass(frozen=True)
class DN:
    """A distinguished name: a leaf-first sequence of RDNs.

    The empty DN (zero RDNs) denotes the conceptual root above all entries
    and never names an actual entry.
    """

    rdns: Tuple[RDN, ...] = ()

    @property
    def rdn(self) -> RDN:
        """The leaf-most RDN (the entry's own name)."""
        if not self.rdns:
            raise ModelError("the empty DN has no RDN")
        return self.rdns[0]

    def parent(self) -> "DN":
        """The DN of the parent entry (empty DN for roots)."""
        if not self.rdns:
            raise ModelError("the empty DN has no parent")
        return DN(self.rdns[1:])

    def child(self, rdn: RDN | str) -> "DN":
        """Return the DN obtained by prepending ``rdn`` below this DN."""
        if isinstance(rdn, str):
            rdn = parse_rdn(rdn)
        return DN((rdn,) + self.rdns)

    def is_root(self) -> bool:
        """Whether this DN names a root entry (exactly one RDN)."""
        return len(self.rdns) == 1

    def is_empty(self) -> bool:
        """Whether this is the empty DN."""
        return not self.rdns

    def depth(self) -> int:
        """Number of RDNs; roots have depth 1."""
        return len(self.rdns)

    @lru_cache(maxsize=_MEMO_SIZE)
    def normalized(self) -> "DN":
        """The case-normalized form used for DN-index keys and
        ancestor tests (see :meth:`RDN.normalized`)."""
        return DN(tuple(r.normalized() for r in self.rdns))

    def is_ancestor_of(self, other: "DN") -> bool:
        """Proper-ancestor test via suffix comparison (case-normalized,
        matching the DN index's resolution rules)."""
        if not self.rdns:
            return bool(other.rdns)
        if len(self.rdns) >= len(other.rdns):
            return False
        mine = tuple(r.normalized() for r in self.rdns)
        theirs = tuple(r.normalized() for r in other.rdns[-len(self.rdns):])
        return theirs == mine

    def __str__(self) -> str:
        return ",".join(str(r) for r in self.rdns)

    def __iter__(self) -> Iterator[RDN]:
        return iter(self.rdns)

    def __len__(self) -> int:
        return len(self.rdns)


@lru_cache(maxsize=_MEMO_SIZE)
def parse_rdn(text: str) -> RDN:
    """Parse one ``attribute=value`` component, honouring escapes.

    Raises
    ------
    ModelError
        If the component has no unescaped ``=`` separator or an empty
        attribute name.
    """
    if "\\" not in text:
        # Nothing escaped: the first "=" separates, and the rest is
        # the value verbatim (what the loop below computes, in C).
        name, seen, rest = text.partition("=")
        if not seen:
            raise ModelError(f"RDN {text!r} has no '=' separator")
        name = name.strip()
        if not name:
            raise ModelError(f"RDN {text!r} has an empty attribute name")
        return RDN(name, rest.strip())
    attribute, value, seen_eq = [], [], False
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            (value if seen_eq else attribute).append(text[i + 1])
            i += 2
            continue
        if ch == "=" and not seen_eq:
            seen_eq = True
            i += 1
            continue
        (value if seen_eq else attribute).append(ch)
        i += 1
    if not seen_eq:
        raise ModelError(f"RDN {text!r} has no '=' separator")
    name = "".join(attribute).strip()
    if not name:
        raise ModelError(f"RDN {text!r} has an empty attribute name")
    return RDN(name, "".join(value).strip())


def _split_unescaped(text: str, sep: str) -> Sequence[str]:
    if "\\" not in text:
        return text.split(sep)
    parts, current, i = [], [], 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            current.append(ch)
            current.append(text[i + 1])
            i += 2
            continue
        if ch == sep:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
        i += 1
    parts.append("".join(current))
    return parts


@lru_cache(maxsize=_MEMO_SIZE)
def parse_dn(text: str) -> DN:
    """Parse a comma-separated DN string into a :class:`DN`.

    An empty or all-whitespace string parses to the empty DN.  Memoised
    on the raw text, so ``" o=att "`` and ``"o=att"`` are two keys with
    equal values.
    """
    return _parse_dn(text, parse_rdn)


def parse_record_dn(text: str) -> DN:
    """:func:`parse_dn` of a DN a document names once — an LDIF
    record's: neither the DN nor its own RDN is memoised, while its
    parents' RDNs, the directory's vocabulary, go through the memo."""
    return _parse_dn(text, parse_rdn.__wrapped__)


def _parse_dn(text: str, parse_own) -> DN:
    text = text.strip()
    if not text:
        return DN(())
    own, *parents = _split_unescaped(text, ",")
    return DN((parse_own(own), *map(parse_rdn, parents)))
