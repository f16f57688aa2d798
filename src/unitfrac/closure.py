"""Closure fixpoint engine and defining-set procedures.

A parameter set S is *defining* when repeatedly firing catalog rules
("all inputs known => every output known up to divisor counts") starting
from S eventually covers all eleven x-parameters: the solution tuple is
then pinned down to divisor-count-many choices once the values in S are
fixed.  The closure fires, in passes over all rules, every rule whose
inputs are known, until a pass adds nothing.  Sets are handled as
bitmasks over the canonical 21-parameter order internally and as
frozensets of parameter names at the API level.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Tuple

from . import params as P
from .errors import check_integer

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


@lru_cache(maxsize=None)
def _rule_masks(convention: str) -> Tuple[Tuple[int, int], ...]:
    from .catalog import build_rules
    return tuple((P.params_to_mask(r.inputs), P.params_to_mask(r.outputs))
                 for r in build_rules(convention))


def _closure_mask(mask: int, convention: str) -> int:
    """Fire every rule whose inputs are all known, in passes over the
    (input mask, output mask) pairs, until a pass adds nothing.

    There is no work queue: with 96 rules over 21 parameters a full pass
    costs less than the queue's bookkeeping.
    """
    rules = _rule_masks(convention)
    before = -1
    while before != mask:
        before = mask
        for need, give in rules:
            if need & ~mask == 0:
                mask |= give
    return mask


def closure(s: Iterable[str], convention: str = "standard") -> ParamSet:
    """Least fixpoint of the rule system above the given set."""
    return frozenset(P.mask_to_params(
        _closure_mask(P.params_to_mask(s), convention)))


def is_defining(s: Iterable[str], convention: str = "standard") -> bool:
    """True iff the closure of s covers all eleven x-parameters."""
    return P.X_MASK & ~_closure_mask(P.params_to_mask(s), convention) == 0


def minimal_defining_sets(max_size: int,
                          convention: str = "standard") -> List[ParamSet]:
    """All inclusion-minimal defining sets of cardinality <= max_size.

    Candidates are enumerated size by size in canonical parameter order,
    so the list comes out in `sort_sets` order; supersets of already-found
    minimal sets are skipped, so every reported set is minimal by
    construction.
    """
    check_integer(max_size, "max_size", 0, P.N_PARAMS)
    P.check_convention(convention)
    found_masks: List[int] = []
    found_sets: List[ParamSet] = []
    for size in range(1, max_size + 1):
        for idxs in combinations(range(P.N_PARAMS), size):
            mask = 0
            for i in idxs:
                mask |= 1 << i
            if any(f & ~mask == 0 for f in found_masks):
                continue
            if P.X_MASK & ~_closure_mask(mask, convention) == 0:
                found_masks.append(mask)
                found_sets.append(frozenset(P.mask_to_params(mask)))
    return found_sets


def sort_sets(sets: Iterable[ParamSet]) -> List[ParamSet]:
    """Canonical order: by cardinality, then lexicographic on parameter ids."""
    def key(s: ParamSet) -> Tuple[int, Tuple[int, ...]]:
        P.params_to_mask(s)  # InputError on a str or an unknown name
        return len(s), tuple(P.PARAM_INDEX[p] for p in P.sort_params(s))
    return sorted(sets, key=key)


def closure_report(s: Iterable[str], convention: str = "standard") -> Dict:
    """JSON-ready summary of one closure query."""
    mask = P.params_to_mask(s)
    closed = _closure_mask(mask, convention)
    return {
        "set": list(P.mask_to_params(mask)),
        "defining": P.X_MASK & ~closed == 0,
        "closure_size": bin(closed).count("1"),
    }
