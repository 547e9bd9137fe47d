"""Schema consistency (Section 5): inference rules, closure, witnesses."""

from repro.consistency.checker import (
    ConsistencyChecker,
    ConsistencyResult,
    check_consistency,
)
from repro.consistency.engine import Closure, Derivation, close
from repro.consistency.repair import RepairSuggestion, proof_axioms, suggest_repairs
from repro.consistency.rules import RULES, Rule, rule
from repro.consistency.witness import WitnessSynthesisError, synthesize_witness

__all__ = [
    "ConsistencyChecker",
    "ConsistencyResult",
    "check_consistency",
    "Closure",
    "Derivation",
    "close",
    "Rule",
    "RULES",
    "rule",
    "WitnessSynthesisError",
    "synthesize_witness",
    "RepairSuggestion",
    "suggest_repairs",
    "proof_axioms",
]
