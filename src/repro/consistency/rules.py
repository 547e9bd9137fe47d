"""The inference rules of Figures 6 and 7 — stated once, executably.

This table *is* the implementation: each :class:`Rule` carries its
premises and conclusion as schema elements over class variables (plus
the constants ``top`` and ``∅``) and its ``≠`` side conditions, and the
generic fixpoint in :mod:`repro.consistency.engine` fires every rule
from every premise by joining the rest through its indexes.  Nothing
else in the package knows a rule: ``shape`` is rendered from the same
premises, the per-rule tests are generated from them
(``tests/test_consistency_table.py``), and a rule added here needs no
engine change.

**A note on reconstruction.**  The available text of the paper renders
the rule figures with heavy glyph loss; the groups and most rules are
unambiguous (Nodes-and-Edges, Paths, Transitivity, Loops, Reflexivity,
Sub-Transitivity, Source, Target, the top-interaction Paths of Figure 7,
and the two Direct-Conflict rules), while the exact premise lists of the
*Parenthood* and *Ancestorhood* rules are not recoverable glyph-for-glyph.
For those, and for a handful of glue rules the Consistency Theorem
(Theorem 5.2) requires (child-level direct conflict, forbidden-edge
downward propagation, membership-through-subclassing), we implement
reconstructions that are

* **sound** — each is argued beside its table row from the
  Definition 2.6 semantics, and every rule (verbatim or reconstructed)
  is property-tested against random forests: whenever the premises hold
  the conclusion holds (Theorem 5.1, rule by rule); and
* **inconsistency-complete in practice** — differentially tested against
  a bounded model finder (``tests/modelfinder.py``) on exhaustive small
  schema families.

Known theoretical gap (documented, not hidden): conflicts that only
materialize through *three or more* pairwise-compatible required
ancestors whose forbidden-descendant constraints form a directed cycle
are not derivable by any pairwise rule system; the witness synthesizer
(:mod:`repro.consistency.witness`) acts as a constructive backstop —
``ConsistencyChecker.check(synthesize=True)`` reports when the inference
system says "consistent" but no witness could be built.

``shape`` uses the element notation of :mod:`repro.schema.elements`, the
same one proofs print: ``c □`` (required class), ``ci → cj`` / ``→→`` /
``←`` / ``←←`` (required child / descendant / parent / ancestor, read
"every ci-entry has such a cj-entry"), ``ci ↛ cj`` / ``↛↛`` (forbidden
child / descendant), ``⊑`` (subclass), ``⊥`` (disjoint), ``∅`` (the
empty pseudo-class), ``⊢`` (derives).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.axes import Axis
from repro.schema.class_schema import TOP
from repro.schema.elements import (
    EMPTY_CLASS as EMPTY,
    Disjoint as Disj,
    ForbiddenEdge as Forb,
    RequiredClass as NonEmpty,
    RequiredEdge as Req,
    SchemaElement,
    Subclass as Sub,
)

__all__ = ["Rule", "RULES", "rule", "FIGURE6_GROUPS", "FIGURE7_GROUPS"]


@dataclass(frozen=True)
class Rule:
    """One inference rule.

    ``premises`` and ``conclusion`` are schema elements whose class
    names are *variables* — any name but the constants ``top`` and ``∅``
    — so a rule's premises are themselves a closable axiom set.
    ``where`` lists pairs that must be bound to different classes.
    """

    name: str
    group: str
    figure: int
    premises: Tuple[SchemaElement, ...]
    conclusion: SchemaElement
    where: Tuple[Tuple[str, str], ...] = ()
    reconstructed: bool = False

    @property
    def shape(self) -> str:
        """The rule in the paper's ``premises ⊢ conclusion`` notation."""
        text = f"{', '.join(map(str, self.premises))} ⊢ {self.conclusion}".lstrip()
        if self.where:
            text += f"  ({', '.join(f'{a} ≠ {b}' for a, b in self.where)})"
        return text


FIGURE6_GROUPS = (
    "nodes-and-edges",
    "paths",
    "transitivity",
    "loops",
    "reflexivity",
    "sub-transitivity",
    "source",
    "target",
    "membership",
)

FIGURE7_GROUPS = (
    "top-paths",
    "forb-paths",
    "direct-conflict",
    "forb-source",
    "forb-target",
    "parenthood",
    "ancestorhood",
    "handshake",
    "sub-conflict",
)

CH, DE, PA, AN = Axis.CHILD, Axis.DESCENDANT, Axis.PARENT, Axis.ANCESTOR
_WORD = {CH: "child", DE: "desc", PA: "parent", AN: "anc"}

# The class variables of the figures.
ci, cj, ck, cp, cc, ci_, cj_ = "ci", "cj", "ck", "cp", "cc", "ci'", "cj'"


def _family(prefix, group, figure, axes, body) -> Tuple[Rule, ...]:
    """One axis-generic rule of the figures, expanded over ``axes``;
    ``body(axis)`` gives ``(premises, conclusion)`` or
    ``(premises, conclusion, where)``."""
    return tuple(
        Rule(f"{prefix}-{_WORD[axis]}", group, figure, *body(axis)) for axis in axes
    )


_RULES: Tuple[Rule, ...] = (
    # ------------------------------------------------------------------
    # Figure 6: inconsistencies due to cycles
    # ------------------------------------------------------------------
    *_family("ne", "nodes-and-edges", 6, (CH, DE, PA, AN), lambda ax: (
        (NonEmpty(ci), Req(ax, ci, cj)), NonEmpty(cj))),
    Rule("path-child-desc", "paths", 6, (Req(CH, ci, cj),), Req(DE, ci, cj)),
    Rule("path-parent-anc", "paths", 6, (Req(PA, ci, cj),), Req(AN, ci, cj)),
    *_family("trans", "transitivity", 6, (DE, AN), lambda ax: (
        (Req(ax, ci, cj), Req(ax, cj, ck)), Req(ax, ci, ck))),
    *_family("loop", "loops", 6, (DE, AN), lambda ax: (
        (Req(ax, ci, ci),), Req(ax, ci, EMPTY), ((ci, EMPTY),))),
    # The one premise-free rule: the engine seeds it for every class.
    Rule("sub-reflexive", "reflexivity", 6, (), Sub(ci, ci)),
    Rule("sub-trans", "sub-transitivity", 6,
         (Sub(ci, cj), Sub(cj, ck)), Sub(ci, ck)),
    *_family("source", "source", 6, (CH, DE, PA, AN), lambda ax: (
        (Req(ax, ci, cj), Sub(ci_, ci)), Req(ax, ci_, cj))),
    *_family("target", "target", 6, (CH, DE, PA, AN), lambda ax: (
        (Req(ax, ci, cj), Sub(cj, cj_)), Req(ax, ci, cj_))),
    Rule("ne-sub", "membership", 6, (NonEmpty(ci), Sub(ci, cj)), NonEmpty(cj),
         reconstructed=True),
    # ------------------------------------------------------------------
    # Figure 7: inconsistencies due to contradictions
    # ------------------------------------------------------------------
    # Every entry belongs to top, so "some descendant" is "some child"
    # (and dually upward), and a class that may have no child at all
    # may have no descendant.
    Rule("top-desc-child", "top-paths", 7, (Req(DE, ci, TOP),), Req(CH, ci, TOP)),
    Rule("top-anc-parent", "top-paths", 7, (Req(AN, ci, TOP),), Req(PA, ci, TOP)),
    Rule("top-forb-child-desc", "top-paths", 7,
         (Forb(CH, ci, TOP),), Forb(DE, ci, TOP)),
    Rule("top-forb-root", "top-paths", 7, (Forb(CH, TOP, ci),), Forb(DE, TOP, ci)),
    # A child is a descendant.  The paper notes this holds semantically
    # but is not derivable in *its* system; we add it, and it feeds the
    # child-level conflict rules.
    Rule("forb-desc-child", "forb-paths", 7, (Forb(DE, ci, cj),), Forb(CH, ci, cj),
         reconstructed=True),
    Rule("conflict-desc", "direct-conflict", 7,
         (Req(DE, ci, cj), Forb(DE, ci, cj)), Req(DE, ci, EMPTY)),
    Rule("conflict-anc", "direct-conflict", 7,
         (Req(AN, ci, cj), Forb(DE, cj, ci)), Req(AN, ci, EMPTY)),
    Rule("conflict-child", "direct-conflict", 7,
         (Req(CH, ci, cj), Forb(CH, ci, cj)), Req(DE, ci, EMPTY),
         reconstructed=True),
    Rule("conflict-parent", "direct-conflict", 7,
         (Req(PA, ci, cj), Forb(CH, cj, ci)), Req(AN, ci, EMPTY),
         reconstructed=True),
    *_family("forb-source", "forb-source", 7, (CH, DE), lambda ax: (
        (Forb(ax, ci, cj), Sub(ci_, ci)), Forb(ax, ci_, cj))),
    *_family("forb-target", "forb-target", 7, (CH, DE), lambda ax: (
        (Forb(ax, ci, cj), Sub(cj_, cj)), Forb(ax, ci, cj_))),
    # A ci-entry's parent is a cj; a ck above it would sit above that cj
    # (forbidden) or be it (disjoint).
    Rule("parenthood", "parenthood", 7,
         (Req(PA, ci, cj), Forb(DE, ck, cj), Disj(cj, ck)), Forb(DE, ck, ci),
         reconstructed=True),
    # A ci-entry has a cj above it; a ck above the ci-entry shares that
    # root path with the cj, so it is above it, below it (both
    # forbidden) or the same entry (disjoint).
    Rule("ancestorhood", "ancestorhood", 7,
         (Req(AN, ci, cj), Forb(DE, ck, cj), Forb(DE, cj, ck), Disj(cj, ck)),
         Forb(DE, ck, ci), reconstructed=True),
    # An entry has one parent, which cannot belong to disjoint classes.
    Rule("unique-parent", "parenthood", 7,
         (Req(PA, ci, cj), Req(PA, ci, ck), Disj(cj, ck)), Req(AN, ci, EMPTY),
         ((cj, ck),), reconstructed=True),
    # Two required ancestors lie on one root path: one above the other
    # (both forbidden) or the same entry (disjoint).
    Rule("anc-exclusion", "ancestorhood", 7,
         (Req(AN, ci, cj), Req(AN, ci, ck), Disj(cj, ck),
          Forb(DE, cj, ck), Forb(DE, ck, cj)),
         Req(AN, ci, EMPTY), ((cj, ck),), reconstructed=True),
    # A required descendant of a ci-entry is also a descendant of every
    # required ancestor of it — forbidden there means ci is empty.
    Rule("sandwich", "ancestorhood", 7,
         (Req(AN, ci, cp), Req(DE, ci, cc), Forb(DE, cp, cc)), Req(DE, ci, EMPTY),
         ((cp, EMPTY), (cc, EMPTY)), reconstructed=True),
    # The required cj-child of a ci-entry has that very entry as its
    # parent, so every ci-entry belongs to every required-parent class
    # of cj — impossible for a class disjoint from ci.
    Rule("child-parent-handshake", "handshake", 7,
         (Req(CH, ci, cj), Req(PA, cj, ck), Disj(ci, ck)), Req(DE, ci, EMPTY),
         reconstructed=True),
    Rule("child-parent-subsumption", "handshake", 7,
         (Req(CH, ci, cj), Req(PA, cj, ck)), Sub(ci, ck),
         ((ck, EMPTY),), reconstructed=True),
    # The required cj-child of a ci-entry has exactly that entry and its
    # ancestors as ancestors; with ci ⊥ ck the child's required
    # ck-ancestor lies strictly above the ci-entry.
    Rule("child-anc-lift", "handshake", 7,
         (Req(CH, ci, cj), Req(AN, cj, ck), Disj(ci, ck)), Req(AN, ci, ck),
         ((ck, EMPTY),), reconstructed=True),
    # Mirror image: the required cj-descendant of a ci-entry has a ck
    # parent on the path at or below the ci-entry; with ci ⊥ ck that
    # parent is a strict descendant.
    Rule("desc-parent-lift", "handshake", 7,
         (Req(DE, ci, cj), Req(PA, cj, ck), Disj(ci, ck)), Req(DE, ci, ck),
         ((cj, EMPTY), (ck, EMPTY)), reconstructed=True),
    Rule("sub-conflict", "sub-conflict", 7,
         (Sub(ci, cj), Sub(ci, ck), Disj(cj, ck)), Req(DE, ci, EMPTY),
         ((cj, ck),), reconstructed=True),
)

#: All rules, indexed by name.
RULES: Dict[str, Rule] = {r.name: r for r in _RULES}


def rule(name: str) -> Rule:
    """Look up a rule by name (raises ``KeyError`` for unknown names)."""
    return RULES[name]
