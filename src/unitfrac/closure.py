"""Closure fixpoint engine and defining-set procedures.

A parameter set S is *defining* when repeatedly firing catalog rules
("all inputs known => every output known up to divisor counts") starting
from S eventually covers all eleven x-parameters: the solution tuple is
then pinned down to divisor-count-many choices once the values in S are
fixed.  Sets are handled as bitmasks over the canonical 21-parameter
order internally and as frozensets of parameter names at the API level.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from . import params as P
from .catalog import ClosureRule, build_rules
from .errors import InputError

ParamSet = FrozenSet[str]

# Hand-verifiable defining sets used by the bound derivations; each is
# reachable through the catalog (see tests for the traced closures).
CORE_DEFINING_SETS: Tuple[ParamSet, ...] = (
    frozenset({"z23", "z234"}),
    frozenset({"z234", "x23", "x24"}),
    frozenset({"z234", "x23", "x234"}),
    frozenset({"z34", "x12", "x123", "x124", "x1234"}),
    frozenset({"x12", "x13", "x24", "x34", "x123", "x124", "x134", "x1234"}),
    frozenset(
        {"x12", "x13", "x14", "x23", "x123", "x124", "x134", "x234", "x1234"}
    ),
)


class CompiledRules:
    """Input/output bitmasks plus an input->rules index for fast closure."""

    def __init__(self, rules: Sequence[ClosureRule]):
        self.rules = tuple(rules)
        self.input_masks = tuple(P.params_to_mask(r.inputs) for r in rules)
        self.output_masks = tuple(P.params_to_mask(r.outputs) for r in rules)
        by_param: List[List[int]] = [[] for _ in range(P.N_PARAMS)]
        for rid, mask in enumerate(self.input_masks):
            for idx in range(P.N_PARAMS):
                if mask >> idx & 1:
                    by_param[idx].append(rid)
        self.rules_by_input = tuple(tuple(ids) for ids in by_param)

    def closure_mask(self, mask: int) -> int:
        # one countdown per rule: each dequeued parameter (seed or derived)
        # decrements every rule listing it; a rule fires when it hits zero
        missing = [bin(im).count("1") for im in self.input_masks]
        output_masks = self.output_masks
        rules_by_input = self.rules_by_input
        known = mask
        queue = [i for i in range(P.N_PARAMS) if mask >> i & 1]
        while queue:
            idx = queue.pop()
            for rid in rules_by_input[idx]:
                missing[rid] -= 1
                if missing[rid] == 0:
                    new = output_masks[rid] & ~known
                    if new:
                        known |= new
                        for j in range(P.N_PARAMS):
                            if new >> j & 1:
                                queue.append(j)
        return known


@lru_cache(maxsize=None)
def _default_compiled(convention: str) -> CompiledRules:
    return CompiledRules(build_rules(convention))


def closure(s: Iterable[str], convention: str = "standard") -> ParamSet:
    """Least fixpoint of the rule system above the given set."""
    compiled = _default_compiled(convention)
    closed = compiled.closure_mask(P.params_to_mask(s))
    return frozenset(P.mask_to_params(closed))


def is_defining(s: Iterable[str], convention: str = "standard") -> bool:
    """True iff the closure of s covers all eleven x-parameters."""
    compiled = _default_compiled(convention)
    return P.X_MASK & ~compiled.closure_mask(P.params_to_mask(s)) == 0


def minimal_defining_sets(max_size: int,
                          convention: str = "standard") -> List[ParamSet]:
    """All inclusion-minimal defining sets of cardinality <= max_size.

    Candidates are enumerated size by size in canonical parameter order,
    so the list comes out in `sort_sets` order; supersets of already-found
    minimal sets are skipped, so every reported set is minimal by
    construction.
    """
    if not 0 <= max_size <= P.N_PARAMS:
        raise InputError("max_size must be between 0 and %d" % P.N_PARAMS)
    compiled = _default_compiled(convention)
    found_masks: List[int] = []
    found_sets: List[ParamSet] = []
    for size in range(1, max_size + 1):
        for idxs in combinations(range(P.N_PARAMS), size):
            mask = 0
            for i in idxs:
                mask |= 1 << i
            if any(f & ~mask == 0 for f in found_masks):
                continue
            if P.X_MASK & ~compiled.closure_mask(mask) == 0:
                found_masks.append(mask)
                found_sets.append(frozenset(P.mask_to_params(mask)))
    return found_sets


def sort_sets(sets: Iterable[ParamSet]) -> List[ParamSet]:
    """Canonical order: by cardinality, then lexicographic on parameter ids."""
    return sorted(
        sets, key=lambda s: (len(s), tuple(P.PARAM_INDEX[p] for p in P.sort_params(s)))
    )


def closure_report(s: Iterable[str], convention: str = "standard") -> Dict:
    """JSON-ready summary of one closure query."""
    mask = P.params_to_mask(s)
    compiled = _default_compiled(convention)
    closed = compiled.closure_mask(mask)
    return {
        "set": list(P.mask_to_params(mask)),
        "defining": P.X_MASK & ~closed == 0,
        "closure_size": bin(closed).count("1"),
    }
