"""Multiplicative combination of inequality templates into exponent bounds.

The 13 templates in `catalog` each bound a product of parameters by
constant * n^p / (m^q * pattern-symbols).  Multiplying a multiset of them
(a Combination), moving every right-hand parameter to the left as a
division, and clearing the resulting negative exponents with the three
cofactor-size templates yields one monomial inequality

    prod(param^e) <= constant * n^A / (m^B * pattern factor).

Pattern factors shrink the n-exponent via the two facts
n_i*n_j*d_ij >= n and n_i*n_j*n_k*d_ijk >= n (disjoint applications,
matched exhaustively).  If the left monomial splits into g parts whose
supports each contain a defining set, the smallest part is bounded by the
g-th root, giving the exponent pair (A/g, B/g).  `search` enumerates all
Combinations within a total-multiplicity budget and returns the Pareto
frontier of derived bounds (A/g ascending, B/g descending), each with a
replayable witness.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from typing import (Dict, FrozenSet, List, Mapping, Optional, Sequence,
                    Tuple)

from . import params as P
from .catalog import InequalityTemplate, build_inequalities, inequality_index
from .closure import CORE_DEFINING_SETS, is_defining, minimal_defining_sets, sort_sets
from .errors import InputError, UnclearedDenominatorError

Combination = Mapping[str, int]

TEMPLATE_ORDER: Tuple[str, ...] = tuple(t.key for t in build_inequalities())
_TEMPLATE_POS = {key: i for i, key in enumerate(TEMPLATE_ORDER)}

_PARAM_ORDER = P.PARAM_ORDER
_PARAM_POS = {p: i for i, p in enumerate(_PARAM_ORDER)}
_NPARAMS = len(_PARAM_ORDER)

# pattern-factor symbols, in display order
_SYMBOL_ORDER: Tuple[str, ...] = P.PATTERN_SYMBOLS
_SYMBOL_POS = {s: i for i, s in enumerate(_SYMBOL_ORDER)}


def normalize_combination(combination: Combination) -> Dict[str, int]:
    """Validated copy with templates in canonical order, zeros dropped."""
    out: Dict[str, int] = {}
    for key in combination:
        if key not in _TEMPLATE_POS:
            raise InputError("unknown inequality template %r" % key)
    for key in TEMPLATE_ORDER:
        mult = int(combination.get(key, 0))
        if mult < 0:
            raise InputError("negative multiplicity for %s" % key)
        if mult:
            out[key] = mult
    return out


def combination_sort_key(combination: Combination) -> Tuple[int, ...]:
    """Total multiplicity, then the multiplicity vector in template order."""
    vec = tuple(combination.get(key, 0) for key in TEMPLATE_ORDER)
    return (sum(vec),) + vec


def _format_power(symbol: str, exp: int) -> str:
    return symbol if exp == 1 else "%s^%d" % (symbol, exp)


@dataclass(frozen=True)
class MonomialInequality:
    """prod(param^exponents) <= constant * n^n_exp / (m^m_exp * pattern)."""

    combination: Mapping[str, int]
    exponents: Mapping[str, int]
    constant: int
    n_exp: int
    m_exp: int
    pattern: Mapping[str, int]

    def left_str(self) -> str:
        parts = [_format_power(p, e)
                 for p, e in sorted(self.exponents.items(),
                                    key=lambda kv: _PARAM_POS[kv[0]])]
        return "*".join(parts) if parts else "1"

    def bound_str(self) -> str:
        num = [] if self.n_exp == 0 else [_format_power("n", self.n_exp)]
        if self.constant != 1:
            num.insert(0, str(self.constant))
        den = [] if self.m_exp == 0 else [_format_power("m", self.m_exp)]
        den += [_format_power(s, e)
                for s, e in sorted(self.pattern.items(),
                                   key=lambda kv: _SYMBOL_POS[kv[0]])]
        top = "*".join(num) if num else "1"
        if not den:
            return top
        bottom = den[0] if len(den) == 1 else "(%s)" % "*".join(den)
        return "%s/%s" % (top, bottom)

    def __str__(self) -> str:
        return "%s <= %s" % (self.left_str(), self.bound_str())


def combine(combination: Combination) -> MonomialInequality:
    """Multiply the templates and clear denominators; exact bookkeeping.

    Right-hand parameter monomials move to the left as divisions; the
    combination's own t1/t2/t3 multiplicities must clear every negative
    exponent, else UnclearedDenominatorError names the first parameter
    that stays negative.
    """
    combo = normalize_combination(combination)
    if not combo:
        raise InputError("combination must use at least one template")
    index = inequality_index()
    exponents = [0] * _NPARAMS
    pattern: Dict[str, int] = {}
    constant = 1
    n_exp = 0
    m_exp = 0
    for key, mult in combo.items():
        tmpl = index[key]
        for p, e in tmpl.lhs.items():
            exponents[_PARAM_POS[p]] += e * mult
        for p, e in tmpl.rhs.items():
            exponents[_PARAM_POS[p]] -= e * mult
        for s, e in tmpl.pattern.items():
            pattern[s] = pattern.get(s, 0) + e * mult
        constant *= tmpl.constant ** mult
        n_exp += tmpl.n_exp * mult
        m_exp += -tmpl.m_exp * mult
    for pos, e in enumerate(exponents):
        if e < 0:
            raise UnclearedDenominatorError(
                "exponent of %s is %d after clearing; add cofactor-size "
                "templates" % (_PARAM_ORDER[pos], e)
            )
    return MonomialInequality(
        combination=combo,
        exponents={_PARAM_ORDER[i]: e for i, e in enumerate(exponents) if e},
        constant=constant,
        n_exp=n_exp,
        m_exp=m_exp,
        pattern=pattern,
    )


# ---------------------------------------------------------------------------
# pattern simplification


_PATTERN_INSTANCES: Tuple[Tuple[str, ...], ...] = tuple(
    tuple("n%d" % i for i in J) + (P.d_name(J),)
    for J in P.Z_SUBSETS
)
# each instance with the positions of its symbols; its d-symbol comes last
_INSTANCE_POS = tuple((inst, tuple(_SYMBOL_POS[s] for s in inst))
                      for inst in _PATTERN_INSTANCES)


def pattern_reductions(
    pattern: Mapping[str, int],
) -> Tuple[int, Tuple[Tuple[str, ...], ...]]:
    """Largest disjoint multiset of >= n instances inside the pattern.

    Each instance is {n_i, n_j, d_ij} or {n_i, n_j, n_k, d_ijk}; every
    application consumes its symbols and lowers the n-exponent by one.
    Returns (count, applications); exhaustive, not greedy.  Among the
    largest matchings it returns the lexicographically first in instance
    order (`P.Z_SUBSETS`), applications listed in that order; witnesses
    store this choice as their `reductions`.
    """
    for s in pattern:
        if s not in _SYMBOL_POS:
            raise InputError("unknown pattern symbol %r" % s)
    counts = [pattern.get(s, 0) for s in _SYMBOL_ORDER]
    # no other instance holds an instance's d-symbol, so one without it
    # can never apply
    live = [ip for ip in _INSTANCE_POS if counts[ip[1][-1]] >= 1]

    def best(start: int) -> Tuple[Tuple[str, ...], ...]:
        result: Tuple[Tuple[str, ...], ...] = ()
        for idx in range(start, len(live)):
            inst, positions = live[idx]
            if any(counts[pos] < 1 for pos in positions):
                continue
            for pos in positions:
                counts[pos] -= 1
            # the same instance may apply again, so recurse from idx
            cand = (inst,) + best(idx)
            for pos in positions:
                counts[pos] += 1
            if len(cand) > len(result):
                result = cand
        return result

    apps = best(0)
    return len(apps), apps


def simplify_pattern(raw: MonomialInequality) -> MonomialInequality:
    """Lower the n-exponent by the best disjoint instance matching.

    The matched instances each absorb one factor n; all remaining pattern
    symbols are then dropped (each is >= 1), leaving a clean bound
    constant * n^(A - q) / m^B.
    """
    q, _ = pattern_reductions(raw.pattern)
    return MonomialInequality(
        combination=raw.combination,
        exponents=raw.exponents,
        constant=raw.constant,
        n_exp=raw.n_exp - q,
        m_exp=raw.m_exp,
        pattern={},
    )


# ---------------------------------------------------------------------------
# partitioning into defining-set groups


# Cached: a tuple of frozensets is immutable, so callers can share it.
@lru_cache(maxsize=None)
def default_library() -> Tuple[FrozenSet[str], ...]:
    """Minimal defining sets up to size 3 plus the six catalogued sets."""
    sets = set(minimal_defining_sets(3))
    sets.update(CORE_DEFINING_SETS)
    return tuple(sort_sets(sets))


def _library_supports(
    library: Sequence[FrozenSet[str]],
) -> Tuple[Tuple[Tuple[int, ...], FrozenSet[str]], ...]:
    """Each library set with the sorted positions of its parameters."""
    out = []
    for s in library:
        for p in s:
            if p not in _PARAM_POS:
                raise InputError("unknown parameter %r in library set" % p)
        out.append((tuple(sorted(_PARAM_POS[p] for p in s)), frozenset(s)))
    return tuple(out)


@dataclass(frozen=True)
class Partition:
    """g parts, each a base library set plus a share of the leftover.

    Part i is bases[i] with every parameter counted once; the leftover
    occurrences (everything in the source vector not consumed by a base)
    are all assigned to part 0.
    """

    bases: Tuple[FrozenSet[str], ...]
    leftover: Mapping[str, int]

    @property
    def g(self) -> int:
        return len(self.bases)

    def parts(self) -> Tuple[Dict[str, int], ...]:
        out = []
        for i, base in enumerate(self.bases):
            part = {p: 1 for p in P.sort_params(base)}
            if i == 0:
                for p, e in self.leftover.items():
                    part[p] = part.get(p, 0) + e
            out.append(part)
        return tuple(out)


def _exponent_vector(lhs: Mapping[str, int]) -> List[int]:
    vec = [0] * _NPARAMS
    for p, e in lhs.items():
        if p not in _PARAM_POS:
            raise InputError("unknown parameter %r" % p)
        if e < 0:
            raise InputError("negative exponent for %s" % p)
        vec[_PARAM_POS[p]] += e
    return vec


class _Packer:
    """First packing of each size under an exponent vector, memoized.

    A packing of size g is a nondecreasing sequence of g library indices
    whose sets, summed componentwise, stay under the vector.  The
    depth-first scan meets these sequences in lexicographic order, so the
    first one it reaches at depth g is the canonical g-part packing.
    Feasibility is monotone (drop a set), so the number of depths reached
    is the packing number clipped at g_max.  Components are clipped at
    g_max for the memo key: a packing of at most g_max sets uses each
    parameter at most g_max times, so capacity beyond that never matters.
    """

    def __init__(self, library: Sequence[FrozenSet[str]], g_max: int):
        self.lib = _library_supports(library)
        self.g_max = g_max
        self.memo: Dict[Tuple[int, ...], Tuple[Tuple[FrozenSet[str], ...], ...]] = {}

    def first_bases(self, vec: Sequence[int]) -> Tuple[Tuple[FrozenSet[str], ...], ...]:
        """Entry g-1 holds the bases of the first packing of size g."""
        clipped = tuple(min(v, self.g_max) for v in vec)
        found = self.memo.get(clipped)
        if found is None:
            firsts: List[Tuple[FrozenSet[str], ...]] = []
            self._pack(list(clipped), 0, [], firsts)
            found = self.memo[clipped] = tuple(firsts)
        return found

    def _pack(self, vec: List[int], start: int, chosen: List[FrozenSet[str]],
              firsts: List[Tuple[FrozenSet[str], ...]]) -> bool:
        """Extend `chosen`, recording first arrivals; True once g_max is hit."""
        if len(chosen) > len(firsts):
            firsts.append(tuple(chosen))
        if len(chosen) >= self.g_max:
            return True
        for idx in range(start, len(self.lib)):
            support, sset = self.lib[idx]
            if any(vec[pos] < 1 for pos in support):
                continue
            for pos in support:
                vec[pos] -= 1
            chosen.append(sset)
            done = self._pack(vec, idx, chosen, firsts)
            chosen.pop()
            for pos in support:
                vec[pos] += 1
            if done:
                return True
        return False

    def split(self, vec: Sequence[int], g: int) -> Optional[Partition]:
        """The first g-part packing with its leftover, or None."""
        firsts = self.first_bases(vec)
        if g > len(firsts):
            return None
        bases = firsts[g - 1]
        left = list(vec)
        for base in bases:
            for p in base:
                left[_PARAM_POS[p]] -= 1
        leftover = {_PARAM_ORDER[i]: v for i, v in enumerate(left) if v}
        return Partition(bases=bases, leftover=leftover)


def partition(
    lhs: Mapping[str, int],
    g: int,
    library: Optional[Sequence[FrozenSet[str]]] = None,
) -> Optional[Partition]:
    """Split the occurrence multiset into g parts covering defining sets.

    Finds g library sets (repetition allowed) whose componentwise sum
    stays under the exponent vector; everything left over is assigned to
    the first part.  Deterministic first solution of a backtracking scan
    in canonical library order; None when infeasible.
    """
    if g < 1:
        raise InputError("g must be >= 1, got %d" % g)
    packer = _Packer(default_library() if library is None else library, g)
    return packer.split(_exponent_vector(lhs), g)


def max_feasible_g(
    lhs: Mapping[str, int],
    g_max: int,
    library: Optional[Sequence[FrozenSet[str]]] = None,
) -> int:
    """Largest g <= g_max for which partition(lhs, g) succeeds (0 if none)."""
    if g_max < 1:
        raise InputError("g_max must be >= 1, got %d" % g_max)
    packer = _Packer(default_library() if library is None else library, g_max)
    return len(packer.first_bases(_exponent_vector(lhs)))


# ---------------------------------------------------------------------------
# derived bounds and the search


@dataclass(frozen=True)
class DerivedBound:
    """One witnessed bound: smallest of g parts <= const^(1/g) n^(A/g)/m^(B/g)."""

    combination: Mapping[str, int]
    inequality: MonomialInequality  # simplified form (pattern folded away)
    raw_pattern: Mapping[str, int]
    reductions: Tuple[Tuple[str, ...], ...]
    A: int
    B: int
    g: int
    partition: Partition

    @property
    def score(self) -> Tuple[Fraction, Fraction]:
        return (Fraction(self.A, self.g), Fraction(self.B, self.g))

    def exponents(self) -> Mapping[str, int]:
        return self.inequality.exponents

    def describe(self) -> str:
        a, b = self.score
        return (
            "n^(%s)/m^(%s) via %s with g=%d (A=%d, B=%d)"
            % (a, b, format_combination(self.combination), self.g,
               self.A, self.B)
        )


def format_combination(combination: Combination) -> str:
    combo = normalize_combination(combination)
    return " * ".join(
        key if mult == 1 else "%s^%d" % (key, mult)
        for key, mult in combo.items()
    ) or "1"


@dataclass(frozen=True)
class SearchResult:
    frontier: Tuple[DerivedBound, ...]
    examined: int
    complete: bool
    elapsed: float


class _Frontier:
    """Pareto points keyed by the integer pair (A*L/g, B*L/g).

    With L = lcm(1..g_max) every key is exact, so keys order and tie
    exactly as the scores (A/g, B/g) do, in integer arithmetic.
    """

    def __init__(self) -> None:
        self.points: List[Tuple[Tuple[int, int], DerivedBound]] = []

    def covered(self, key: Tuple[int, int]) -> bool:
        """Another point has A/g no larger and B/g no smaller."""
        a, b = key
        return any(pa <= a and pb >= b and (pa < a or pb > b)
                   for (pa, pb), _ in self.points)

    def insert(self, key: Tuple[int, int], bound: DerivedBound) -> None:
        """Add an uncovered point; a tie keeps the combination sorting first."""
        for i, (k, existing) in enumerate(self.points):
            if k == key:
                if (combination_sort_key(existing.combination)
                        <= combination_sort_key(bound.combination)):
                    return
                del self.points[i]
                break
        a, b = key
        self.points = [(k, p) for k, p in self.points
                       if not (a <= k[0] and b >= k[1])]
        self.points.append((key, bound))

    def sorted(self) -> Tuple[DerivedBound, ...]:
        return tuple(p for _, p in sorted(self.points,
                                          key=lambda kp: (kp[0][0], -kp[0][1])))


# One integer row per template, in TEMPLATE_ORDER: the parameter exponents
# (lhs minus rhs), the pattern-symbol counts, then the exponents of n and
# of 1/m.  Adding rows multiplies templates, so a row sum is the combined
# inequality before its pattern is simplified.  A row is stored sparse, as
# its nonzero (position, value) pairs in position order.
_N_COL = _NPARAMS + len(_SYMBOL_ORDER)
_M_COL = _N_COL + 1


def _template_row(tmpl: InequalityTemplate) -> Tuple[Tuple[int, int], ...]:
    row = [0] * (_M_COL + 1)
    for p, e in tmpl.lhs.items():
        row[_PARAM_POS[p]] += e
    for p, e in tmpl.rhs.items():
        row[_PARAM_POS[p]] -= e
    for s, e in tmpl.pattern.items():
        row[_NPARAMS + _SYMBOL_POS[s]] += e
    row[_N_COL] = tmpl.n_exp
    row[_M_COL] = -tmpl.m_exp
    return tuple((pos, v) for pos, v in enumerate(row) if v)


_ROWS = tuple((t.key, _template_row(t)) for t in build_inequalities())
# the ten z-templates come first, then t1, t2, t3
_Z_ROWS, _T_ROWS = _ROWS[:len(P.Z_PARAMS)], _ROWS[len(P.Z_PARAMS):]

# the most one template adds to any parameter exponent
_STEP = max(v for _, row in _ROWS for pos, v in row if pos < _NPARAMS)
# the parameter positions some z-template lowers: before the t-templates
# are added, only these can be negative
_DEFICIT_POS = tuple(sorted({pos for _, row in _Z_ROWS for pos, v in row
                             if v < 0}))
# which t-templates (index into _T_ROWS) supply each of those positions
_T_COVER = {pos: tuple(i for i, (_, row) in enumerate(_T_ROWS)
                       if dict(row).get(pos, 0) > 0)
            for pos in _DEFICIT_POS}
# (row position, symbol) of each pattern symbol
_SYMBOL_COLS = tuple(enumerate(_SYMBOL_ORDER, _NPARAMS))


def search(
    budget: int,
    g_max: int = 6,
    library: Optional[Sequence[FrozenSet[str]]] = None,
    node_limit: Optional[int] = None,
) -> SearchResult:
    """Enumerate Combinations up to total multiplicity `budget`.

    For each clearable combination the candidate points (A/g, B/g) for
    every feasible g <= g_max enter a Pareto frontier (A/g minimized
    first, B/g maximized second; ties prefer smaller total multiplicity,
    then canonical template order).  `node_limit`, if given, caps the
    number of (combination, t-assignment) nodes examined; hitting it
    returns the partial frontier with complete=False.
    """
    if budget < 0:
        raise InputError("budget must be >= 0, got %d" % budget)
    if g_max < 1:
        raise InputError("g_max must be >= 1, got %d" % g_max)
    if node_limit is not None and node_limit < 1:
        raise InputError("node_limit must be >= 1, got %d" % node_limit)
    if library is None:
        lib = default_library()
    else:
        lib = tuple(library)
        for base in lib:
            if not is_defining(base):
                raise InputError(
                    "library set %s is not defining; partitions over it"
                    " would certify nothing" % sorted(base))
    packer = _Packer(lib, g_max)
    index = inequality_index()
    frontier = _Frontier()
    scale = lcm(*range(1, g_max + 1))
    started = time.perf_counter()
    examined = 0
    complete = True

    # the running row sum of the combination being built, updated in place
    row = [0] * (_M_COL + 1)

    def candidate(items: Tuple[Tuple[str, int], ...], trow: List[int]) -> None:
        nonlocal examined
        examined += 1
        vec = trow[:_NPARAMS]
        raw_pattern = {s: trow[pos] for pos, s in _SYMBOL_COLS if trow[pos]}
        q, apps = pattern_reductions(raw_pattern)
        a_total, b_total = trow[_N_COL] - q, trow[_M_COL]
        feasible = None
        for g in range(1, g_max + 1):
            key = (a_total * scale // g, b_total * scale // g)
            if frontier.covered(key):
                continue
            if feasible is None:
                feasible = len(packer.first_bases(vec))
            if g > feasible:
                return
            combo = dict(items)
            ineq = MonomialInequality(
                combination=combo,
                exponents={_PARAM_ORDER[i]: v for i, v in enumerate(vec) if v},
                constant=prod(index[k].constant ** m for k, m in items),
                n_exp=a_total,
                m_exp=b_total,
                pattern={},
            )
            frontier.insert(key, DerivedBound(
                combination=combo,
                inequality=ineq,
                raw_pattern=raw_pattern,
                reductions=apps,
                A=a_total,
                B=b_total,
                g=g,
                partition=packer.split(vec, g),
            ))

    def t_loop(items, remaining) -> bool:
        """Enumerate t1/t2/t3 multiplicities that clear all deficits."""
        nonlocal complete
        lower = [0, 0, 0]
        shared = []  # deficits that more than one t-template supplies
        for pos in _DEFICIT_POS:
            need = -row[pos]
            if need > 0:
                cover = _T_COVER[pos]
                if len(cover) == 1:
                    lower[cover[0]] = max(lower[cover[0]], need)
                else:
                    shared.append((cover, need))
        if sum(lower) > remaining:
            return True
        for a in range(lower[0], remaining + 1):
            for b in range(lower[1], remaining - a + 1):
                for c in range(lower[2], remaining - a - b + 1):
                    if node_limit is not None and examined >= node_limit:
                        complete = False
                        return False
                    supply = (a, b, c)
                    if any(sum(supply[i] for i in cover) < need
                           for cover, need in shared):
                        continue
                    titems, trow = items, row[:]
                    for (key, t_row), mult in zip(_T_ROWS, supply):
                        if mult:
                            titems += ((key, mult),)
                            for pos, v in t_row:
                                trow[pos] += mult * v
                    candidate(titems, trow)
        return True

    def z_loop(idx: int, items, remaining) -> bool:
        if idx == len(_Z_ROWS) or remaining == 0:
            return t_loop(items, remaining)
        if not z_loop(idx + 1, items, remaining):
            return False
        key, z_row = _Z_ROWS[idx]
        for mult in range(1, remaining + 1):
            for pos, v in z_row:
                row[pos] += v
            # Each later template adds at most _STEP to an exponent, so one
            # below -(remaining - mult) * _STEP stays negative and t_loop
            # would reject every leaf below.  Another copy of this row
            # raises an exponent by at most the _STEP the floor rises, so
            # every larger multiplicity is dead too.
            floor = (mult - remaining) * _STEP
            if any(row[pos] < floor for pos in _DEFICIT_POS):
                break
            if not z_loop(idx + 1, items + ((key, mult),), remaining - mult):
                return False
        for pos, v in z_row:
            row[pos] -= mult * v
        return True

    z_loop(0, (), budget)
    return SearchResult(
        frontier=frontier.sorted(),
        examined=examined,
        complete=complete,
        elapsed=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# witness files and replay


def witness_to_json(bound: DerivedBound) -> str:
    """Deterministic single-line JSON for one derived bound."""
    doc = {
        "combination": dict(normalize_combination(bound.combination)),
        "exponents": {p: bound.inequality.exponents[p]
                      for p in P.sort_params(bound.inequality.exponents)},
        "constant": bound.inequality.constant,
        "A": bound.A,
        "B": bound.B,
        "g": bound.g,
        "raw_pattern": dict(bound.raw_pattern),
        "reductions": [list(app) for app in bound.reductions],
        "partition": {
            "bases": [P.sort_params(base) for base in bound.partition.bases],
            "leftover": dict(bound.partition.leftover),
        },
    }
    return json.dumps(doc, sort_keys=True)


def replay_witness(doc: Mapping) -> DerivedBound:
    """Re-derive a witness document from scratch and cross-check it.

    Runs combine and simplify_pattern on the stored combination, verifies
    the stored exponent vector, constant, A, B, raw pattern and pattern
    reductions, and that the stored partition is valid: bases are defining
    sets, the base sum fits under the exponent vector, and leftover matches
    exactly.  A document that is not an object, lacks a field or holds a
    value of the wrong shape raises InputError.
    """
    if not isinstance(doc, Mapping):
        raise InputError("witness must be a JSON object, got %s"
                         % type(doc).__name__)
    try:
        combo = normalize_combination(dict(doc["combination"]))
        raw_pattern = {k: int(v) for k, v in doc["raw_pattern"].items()}
        stored_exp = {k: int(v) for k, v in doc["exponents"].items()}
        constant, a_total, b_total, g = (
            int(doc[key]) for key in ("constant", "A", "B", "g"))
        bases = tuple(frozenset(b) for b in doc["partition"]["bases"])
        for base in bases:
            P.params_to_mask(base)  # ValueError on an unknown name
        stored_leftover = {k: int(v)
                           for k, v in doc["partition"]["leftover"].items()}
        stored_apps = doc["reductions"]
        if not (isinstance(stored_apps, list)
                and all(isinstance(app, list) for app in stored_apps)):
            raise TypeError("reductions must be a list of symbol lists")
        stored_apps = tuple(tuple(app) for app in stored_apps)
    except InputError:
        raise
    except KeyError as exc:
        raise InputError("witness has no %s field" % exc) from None
    except (TypeError, AttributeError, ValueError) as exc:
        raise InputError("malformed witness: %s" % exc) from None
    if g < 1:
        raise InputError("witness g must be >= 1, got %d" % g)
    raw = combine(combo)
    if dict(raw.pattern) != raw_pattern:
        raise InputError("witness raw pattern does not replay")
    _, apps = pattern_reductions(raw.pattern)
    if apps != stored_apps:
        raise InputError("witness reductions do not replay")
    simplified = simplify_pattern(raw)
    if dict(simplified.exponents) != stored_exp:
        raise InputError("witness exponent vector does not replay")
    if simplified.constant != constant:
        raise InputError("witness constant does not replay")
    if simplified.n_exp != a_total or simplified.m_exp != b_total:
        raise InputError("witness A/B do not replay")
    if len(bases) != g:
        raise InputError("witness partition has %d bases, g=%d"
                         % (len(bases), g))
    vec = _exponent_vector(stored_exp)
    for base in bases:
        if not is_defining(base):
            raise InputError("witness base %s is not defining"
                             % ",".join(P.sort_params(base)))
        for p in base:
            vec[_PARAM_POS[p]] -= 1
            if vec[_PARAM_POS[p]] < 0:
                raise InputError("witness bases exceed the exponent vector "
                                 "at %s" % p)
    leftover = {_PARAM_ORDER[i]: v for i, v in enumerate(vec) if v}
    if leftover != stored_leftover:
        raise InputError("witness leftover does not replay")
    return DerivedBound(
        combination=combo,
        inequality=simplified,
        raw_pattern=dict(raw.pattern),
        reductions=apps,
        A=simplified.n_exp,
        B=simplified.m_exp,
        g=g,
        partition=Partition(bases=bases, leftover=leftover),
    )
