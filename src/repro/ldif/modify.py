"""RFC 2849 ``changetype: modify`` records.

The paper's update model (Section 4.1) consists of entry insertions and
deletions; in-place modification is this library's extension
(:meth:`~repro.updates.incremental.IncrementalChecker.try_modify`).
This module parses the standard LDIF modify syntax into
:class:`ModifyRecord` objects and applies them through the incremental
checker::

    dn: uid=laks,ou=databases,ou=attLabs,o=att
    changetype: modify
    add: objectClass
    objectClass: facultyMember
    -
    replace: mail
    mail: laks@example.edu
    -
    delete: telephoneNumber
    -

Modify records are applied one at a time (each checked, each rolled
back individually on violation) — they are not part of the Theorem 4.1
subtree decomposition, which is defined for insertions/deletions only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import LdifError
from repro.ldif.reader import parse_ldif_records
from repro.model.attributes import OBJECT_CLASS
from repro.model.dn import DN
from repro.updates.incremental import IncrementalChecker, UpdateOutcome

__all__ = [
    "ModifyOp",
    "ModifyRecord",
    "RenameRecord",
    "parse_modifications",
    "serialize_modification",
    "apply_modification",
    "apply_modify_blind",
    "resolve_modification",
]


@dataclass(frozen=True)
class ModifyOp:
    """One ``add``/``delete``/``replace`` clause of a modify record."""

    op: str
    attribute: str
    values: Tuple[str, ...] = ()


@dataclass(frozen=True)
class ModifyRecord:
    """One ``changetype: modify`` record."""

    dn: DN
    ops: Tuple[ModifyOp, ...]


@dataclass(frozen=True)
class RenameRecord:
    """One ``changetype: modrdn``/``moddn`` record (rename and/or
    move; ``deleteoldrdn`` is implicit in this data model — the RDN is
    naming, not an attribute value)."""

    dn: DN
    new_rdn: Optional[str] = None
    new_superior: Optional[str] = None


def _parse_modrdn(record) -> RenameRecord:
    fields = {}
    for name, value in record.attributes[1:]:
        if name == "-":
            continue
        key = name.lower()
        if key not in ("newrdn", "newsuperior", "deleteoldrdn"):
            raise LdifError(
                f"unexpected line {name!r} in modrdn record {record.dn}"
            )
        fields[key] = value.strip()
    if "newrdn" not in fields and "newsuperior" not in fields:
        raise LdifError(
            f"modrdn record {record.dn} needs newrdn and/or newsuperior"
        )
    return RenameRecord(
        record.dn,
        new_rdn=fields.get("newrdn"),
        new_superior=fields.get("newsuperior"),
    )


def parse_modifications(text: str) -> List:
    """Parse an LDIF document of ``modify`` and ``modrdn``/``moddn``
    records into :class:`ModifyRecord`/:class:`RenameRecord` objects.

    Raises
    ------
    LdifError
        If any record is not a well-formed modify/modrdn record.
    """
    records: List = []
    for record in parse_ldif_records(text):
        lines = list(record.attributes)
        if lines and lines[0][0] == "changetype" and lines[0][1] in (
            "modrdn", "moddn",
        ):
            records.append(_parse_modrdn(record))
            continue
        if not lines or lines[0] != ("changetype", "modify"):
            raise LdifError(f"record {record.dn} is not a modify record")
        ops: List[ModifyOp] = []
        current: Optional[Tuple[str, str]] = None
        values: List[str] = []
        for name, value in lines[1:]:
            if name == "-" or (name, value) == ("-", ""):
                continue  # separators survive as '-' pseudo-lines rarely
            if name in ("add", "delete", "replace"):
                if current is not None:
                    ops.append(ModifyOp(current[0], current[1], tuple(values)))
                current = (name, value.strip())
                values = []
            else:
                if current is None:
                    raise LdifError(
                        f"attribute line before any add/delete/replace "
                        f"clause in modify record {record.dn}"
                    )
                if name != current[1]:
                    raise LdifError(
                        f"modify record {record.dn}: clause targets "
                        f"{current[1]!r} but line names {name!r}"
                    )
                values.append(value)
        if current is not None:
            ops.append(ModifyOp(current[0], current[1], tuple(values)))
        if not ops:
            raise LdifError(f"modify record {record.dn} has no clauses")
        records.append(ModifyRecord(record.dn, tuple(ops)))
    return records


def serialize_modification(record: ModifyRecord) -> str:
    """Render one modify record as RFC 2849 LDIF —
    :func:`parse_modifications` is its inverse.  This is the journal
    payload format for in-place modifications
    (:meth:`repro.store.journal.DirectoryStore.modify`)."""
    from repro.ldif.writer import _attribute_line, _fold

    lines: List[str] = []
    lines.extend(_fold(_attribute_line("dn", str(record.dn))))
    lines.append("changetype: modify")
    for op in record.ops:
        lines.extend(_fold(_attribute_line(op.op, op.attribute)))
        for value in op.values:
            lines.extend(_fold(_attribute_line(op.attribute, value)))
        lines.append("-")
    return "\n".join(lines) + "\n"


def resolve_modification(instance, record: ModifyRecord):
    """Resolve a modify record's clauses against the current entry into
    ``(add_classes, remove_classes, replace_attributes)``.

    RFC semantics: ``add`` merges values, ``delete`` removes the named
    values (or all values when the clause has none), ``replace``
    substitutes the value set; ``objectClass`` clauses become class
    additions/removals (``replace`` on ``objectClass`` is rejected).
    """
    entry = instance.entry(str(record.dn))
    add_classes: List[str] = []
    remove_classes: List[str] = []
    replace_attributes = {}

    for op in record.ops:
        if op.attribute == OBJECT_CLASS:
            if op.op == "add":
                add_classes.extend(op.values)
            elif op.op == "delete":
                remove_classes.extend(op.values)
            else:
                raise LdifError(
                    "replace on objectClass is not supported; use "
                    "add/delete clauses"
                )
            continue
        current = list(
            replace_attributes.get(op.attribute, entry.values(op.attribute))
        )
        if op.op == "add":
            merged = current + [v for v in op.values if v not in current]
            replace_attributes[op.attribute] = merged
        elif op.op == "delete":
            if op.values:
                remaining = [v for v in current if v not in op.values]
            else:
                remaining = []
            replace_attributes[op.attribute] = remaining
        else:  # replace
            replace_attributes[op.attribute] = list(op.values)

    return add_classes, remove_classes, replace_attributes


def apply_modification(
    guard: IncrementalChecker, record
) -> UpdateOutcome:
    """Apply one modify or modrdn record through the incremental checker.

    Modify clauses are resolved by :func:`resolve_modification` and run
    through
    :meth:`~repro.updates.incremental.IncrementalChecker.try_modify`
    (rolled back on violation); modrdn records become guarded
    :meth:`~repro.updates.incremental.IncrementalChecker.try_move`
    calls.
    """
    if isinstance(record, RenameRecord):
        return guard.try_move(
            record.dn,
            new_parent=record.new_superior,
            new_rdn=record.new_rdn,
        )
    add_classes, remove_classes, replace_attributes = resolve_modification(
        guard.instance, record
    )
    return guard.try_modify(
        record.dn,
        add_classes=add_classes,
        remove_classes=remove_classes,
        replace_attributes=replace_attributes,
    )


def apply_modify_blind(instance, record: ModifyRecord) -> None:
    """Re-apply a committed modify record onto ``instance`` with no
    legality guard — the journal-replay analogue of
    :func:`repro.updates.transactions.apply_subtree_update` for
    insert/delete frames.  Only :class:`ModifyRecord` is journaled;
    modrdn stays a memory-only extension.
    """
    if not isinstance(record, ModifyRecord):
        raise LdifError(
            "only changetype: modify records are journaled; "
            f"cannot blind-apply {type(record).__name__}"
        )
    add_classes, remove_classes, replace_attributes = resolve_modification(
        instance, record
    )
    entry = instance.entry(str(record.dn))
    for cls in add_classes:
        entry.add_class(cls)
    for cls in remove_classes:
        entry.remove_class(cls)
    for name, values in replace_attributes.items():
        entry.replace_values(name, values)
