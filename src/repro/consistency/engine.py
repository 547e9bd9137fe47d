"""The inference engine: fixpoint closure and consistency (Section 5).

:func:`close` computes the deductive closure of a set of schema elements
under the Figures 6-7 rules, recording for every derived fact the rule
and premises of its first derivation so that proofs can be reconstructed
(:meth:`Closure.explain`).

The engine knows no rule.  :mod:`repro.consistency.rules` states each
one as data — premises, side conditions, conclusion — and this module
is the one generic fixpoint that fires them: a semi-naive worklist in
which every fact, when its turn comes, is matched against every premise
of every rule it could instantiate and the remaining premises are
joined through an index.  Every rule thus fires from every premise, the
result is the least fixpoint, and total work is polynomial in the number
of classes — the complexity claim of Theorem 5.2, measured by the THM52
benchmark.

By Theorem 5.2 the schema is consistent iff the closure does not contain
the falsum element ``∅ □`` (:data:`repro.schema.elements.BOTTOM`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.axes import Axis
from repro.consistency.rules import RULES, Rule
from repro.schema.class_schema import TOP
from repro.schema.elements import (
    BOTTOM,
    EMPTY_CLASS,
    Disjoint,
    ForbiddenEdge,
    RequiredClass,
    RequiredEdge,
    SchemaElement,
    Subclass,
)

__all__ = ["Derivation", "Closure", "close"]


@dataclass(frozen=True)
class Derivation:
    """How a fact entered the closure: by which rule, from which
    premises.  Axiom facts use rule ``"axiom"`` and no premises."""

    fact: SchemaElement
    rule: str
    premises: Tuple[SchemaElement, ...] = ()


@dataclass
class Closure:
    """The result of :func:`close`.

    Attributes
    ----------
    facts:
        Every element in the closure, mapped to its first derivation.
    universe:
        All class names the closure ranges over (including ``top`` and
        ``∅``).
    """

    facts: Dict[SchemaElement, Derivation] = field(default_factory=dict)
    universe: Set[str] = field(default_factory=set)

    def __contains__(self, fact: SchemaElement) -> bool:
        if isinstance(fact, Disjoint):
            fact = fact.normalized()
        return fact in self.facts

    def __len__(self) -> int:
        return len(self.facts)

    @property
    def consistent(self) -> bool:
        """Theorem 5.2: consistent iff ``∅ □`` was not derived."""
        return BOTTOM not in self.facts

    def empty_classes(self) -> Set[str]:
        """Classes proved unpopulatable: those with a derived
        ``c →de ∅`` or ``c →an ∅`` element (Section 5's encoding of
        "no legal instance contains a ``c`` entry")."""
        empties = set()
        for fact in self.facts:
            if (
                isinstance(fact, RequiredEdge)
                and fact.target == EMPTY_CLASS
                and fact.source != EMPTY_CLASS
            ):
                empties.add(fact.source)
        return empties

    def derivation(self, fact: SchemaElement) -> Optional[Derivation]:
        """The first derivation of ``fact`` (``None`` if underived)."""
        if isinstance(fact, Disjoint):
            fact = fact.normalized()
        return self.facts.get(fact)

    def explain(self, fact: SchemaElement, _depth: int = 0) -> str:
        """A human-readable proof tree for ``fact``."""
        derivation = self.derivation(fact)
        pad = "  " * _depth
        if derivation is None:
            return f"{pad}{fact}  (not derived)"
        if derivation.rule == "axiom":
            return f"{pad}{fact}  [axiom]"
        lines = [f"{pad}{fact}  [{derivation.rule}]"]
        for premise in derivation.premises:
            lines.append(self.explain(premise, _depth + 1))
        return "\n".join(lines)

    def proof_of_inconsistency(self) -> Optional[str]:
        """The proof tree of ``∅ □`` when inconsistent, else ``None``."""
        if self.consistent:
            return None
        return self.explain(BOTTOM)


#: The class-name fields of each element kind, in pattern order.
_FIELDS = {
    RequiredClass: ("object_class",),
    RequiredEdge: ("source", "target"),
    ForbiddenEdge: ("source", "target"),
    Subclass: ("sub", "sup"),
    Disjoint: ("a", "b"),
}

# The engine's uniform view of an element: a *shape* ``(kind, axis)``
# and the tuple of class names (or, in a rule, class variables) it
# relates.
_Shape = Tuple[type, Optional[Axis]]
_Names = Tuple[str, ...]


def _atom(element: SchemaElement) -> Tuple[_Shape, _Names]:
    kind = type(element)
    names = tuple(getattr(element, f) for f in _FIELDS[kind])
    return (kind, getattr(element, "axis", None)), names


def _instance(atom: Tuple[_Shape, _Names], binding: Dict[str, str]) -> SchemaElement:
    """The element a rule's ``atom`` denotes under ``binding``."""
    (kind, axis), pattern = atom
    names = [binding[variable] for variable in pattern]
    if kind is Disjoint:
        return Disjoint(*names).normalized()
    return kind(*names) if axis is None else kind(axis, *names)


#: The binding every match starts from: a rule's constants stand for
#: themselves, every other name in a rule is a variable.
_CONSTANTS = {TOP: TOP, EMPTY_CLASS: EMPTY_CLASS}


def _unify(
    pattern: _Names, names: _Names, binding: Dict[str, str]
) -> Optional[Dict[str, str]]:
    """``binding`` extended so that ``pattern`` reads ``names``, or
    ``None``.  With constants pre-bound, a constant, a repeated variable
    and a variable bound by an earlier premise are one case."""
    binding = dict(binding)
    for variable, name in zip(pattern, names):
        if binding.setdefault(variable, name) != name:
            return None
    return binding


class _Plan:
    """One (rule, premise position): the premise a popped fact is
    matched against, and the rule's other premises in join order — each
    with the argument position its candidates are looked up by (``None``
    when every argument is bound by then: a membership test)."""

    def __init__(self, rule: Rule, position: int) -> None:
        self.rule = rule
        atoms = [_atom(premise) for premise in rule.premises]
        self.premises = atoms
        self.conclusion = _atom(rule.conclusion)
        self.trigger = atoms[position][1]
        bound = set(_CONSTANTS) | set(self.trigger)
        rest = atoms[:position] + atoms[position + 1:]
        self.joins: List[Tuple[_Shape, _Names, Optional[int]]] = []
        while rest:
            # Most-bound premise first; every rule of the figures is
            # connected, so one argument at least is always bound.
            shape, names = max(rest, key=lambda a: sum(n in bound for n in a[1]))
            rest.remove((shape, names))
            known = [i for i, n in enumerate(names) if n in bound]
            assert known, f"rule {rule.name} is not connected"
            self.joins.append(
                (shape, names, None if len(known) == len(names) else known[0])
            )
            bound.update(names)


# Plans by the shape of the fact that triggers them.  A shape no rule
# concludes (disjointness) is only ever an axiom: :func:`close` queues
# those first, so they are all indexed before anything can fire and need
# no plans of their own — the classic extensional-relation saving, and
# most of a class schema's elements.
_DERIVED = {_atom(rule.conclusion)[0] for rule in RULES.values()}
_PLANS: Dict[_Shape, List[_Plan]] = {}
for _rule in RULES.values():
    _shapes = [_atom(premise)[0] for premise in _rule.premises]
    assert not _shapes or _DERIVED.intersection(_shapes), _rule.name
    for _position, _shape in enumerate(_shapes):
        if _shape in _DERIVED:
            _PLANS.setdefault(_shape, []).append(_Plan(_rule, _position))


# The premise-free rule (reflexivity) is seeded by :func:`close`, not
# fired; the LDAP model's ``c ⊑ top`` rides under the same label.
(_SEEDED,) = (rule.name for rule in RULES.values() if not rule.premises)


def _queue_order(element: SchemaElement):
    """The canonical starting order of the worklist: plan-less shapes
    first (see ``_PLANS``), then by kind, axis and class names."""
    (kind, axis), names = _atom(element)
    return (kind, axis) in _PLANS, kind.__name__, axis or "", names


class _Engine:
    """Semi-naive worklist fixpoint over the rule table.

    Facts are drained first-in first-out.  A popped fact is indexed and
    then offered to every plan of its shape; a plan binds the rule's
    variables from it and joins the remaining premises against the
    facts popped so far.  A rule instance therefore fires when the last
    of its premises is popped, whichever premise that is.
    """

    def __init__(self) -> None:
        self.facts: Dict[SchemaElement, Derivation] = {}
        self.work: List[SchemaElement] = []
        self.popped: Set[Tuple[_Shape, _Names]] = set()
        # (shape, argument position, class) -> the popped atoms of that
        # shape with that class there.  Lists, not sets: iteration order
        # must not depend on the interpreter's hash seed.
        self.index: Dict[Tuple[_Shape, int, str], List[_Names]] = {}

    def add(
        self, fact: SchemaElement, rule: str, premises: Tuple[SchemaElement, ...] = ()
    ) -> None:
        if fact not in self.facts:
            self.facts[fact] = Derivation(fact, rule, premises)
            self.work.append(fact)

    def run(self) -> None:
        for fact in self.work:  # grows while we iterate: the FIFO queue
            shape, names = _atom(fact)
            # Disjointness is symmetric: index and offer both readings.
            readings = (names,)
            if shape[0] is Disjoint and names[0] != names[1]:
                readings = (names, names[::-1])
            for reading in readings:
                self.popped.add((shape, reading))
                for position, name in enumerate(reading):
                    self.index.setdefault((shape, position, name), []).append(reading)
            for reading in readings:
                for plan in _PLANS.get(shape, ()):
                    binding = _unify(plan.trigger, reading, _CONSTANTS)
                    if binding is not None:
                        self._join(plan, 0, binding)

    def _join(self, plan: _Plan, step: int, binding: Dict[str, str]) -> None:
        if step == len(plan.joins):
            self._fire(plan, binding)
            return
        shape, pattern, lookup = plan.joins[step]
        if lookup is None:
            if (shape, tuple(binding[v] for v in pattern)) in self.popped:
                self._join(plan, step + 1, binding)
            return
        key = (shape, lookup, binding[pattern[lookup]])
        for names in self.index.get(key, ()):
            extended = _unify(pattern, names, binding)
            if extended is not None:
                self._join(plan, step + 1, extended)

    def _fire(self, plan: _Plan, binding: Dict[str, str]) -> None:
        rule = plan.rule
        if any(binding[x] == binding[y] for x, y in rule.where):
            return
        fact = _instance(plan.conclusion, binding)
        if fact not in self.facts:
            premises = tuple(_instance(atom, binding) for atom in plan.premises)
            self.add(fact, rule.name, premises)


def close(
    elements: Iterable[SchemaElement],
    universe: Optional[Iterable[str]] = None,
    assume_top: bool = True,
) -> Closure:
    """Compute the deductive closure of ``elements``.

    The closure — its facts *and* the derivation recorded for each — is
    a function of the axiom **set**: axioms are seeded in a canonical
    order and the worklist is drained first-in first-out, so neither
    the order ``elements`` arrive in nor the interpreter's hash seed
    shows in a proof.

    Parameters
    ----------
    elements:
        The axiom set ``Γ`` — structure elements plus the
        subclass/disjointness elements induced by the class schema
        (:meth:`DirectorySchema.all_elements
        <repro.schema.directory_schema.DirectorySchema.all_elements>`).
    universe:
        Additional class names to include (the closure always covers all
        classes mentioned by ``elements`` plus ``top`` and ``∅``).
    assume_top:
        Seed ``c ⊑ top`` for every class — sound in the LDAP model,
        where every legal entry belongs to ``top``.  Disable only when
        experimenting with the bare rule system.
    """
    start: Dict[SchemaElement, str] = {}
    names: Set[str] = {TOP, EMPTY_CLASS}
    if universe is not None:
        names.update(universe)
    for axiom in elements:
        if isinstance(axiom, Disjoint):
            axiom = axiom.normalized()
        names.update(_atom(axiom)[1])
        start[axiom] = "axiom"
    for name in names - {EMPTY_CLASS}:
        start[Subclass(name, name)] = _SEEDED
        if assume_top:
            start[Subclass(name, TOP)] = _SEEDED

    engine = _Engine()
    for fact in sorted(start, key=_queue_order):
        engine.add(fact, start[fact])
    engine.run()
    return Closure(facts=engine.facts, universe=names)
