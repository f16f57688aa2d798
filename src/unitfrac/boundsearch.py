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
g-th root, giving the exponent pair (A/g, B/g).  The matching and the
split are both the lexicographically first packing of sets under a
capacity vector, and one scan finds them.  `search` enumerates all
Combinations within a total-multiplicity budget and returns the Pareto
frontier of derived bounds (A/g ascending, B/g descending), each with a
replayable witness.
"""

from __future__ import annotations

import json
import time
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm, prod
from typing import (Callable, Dict, FrozenSet, List, Mapping, NamedTuple,
                    Optional, Sequence, Tuple)

from . import params as P
from .catalog import InequalityTemplate, build_inequalities, inequality_index
from .closure import is_defining
from .errors import (InputError, InvariantError, UnclearedDenominatorError,
                     check_integer)

Combination = Mapping[str, int]

TEMPLATE_ORDER: Tuple[str, ...] = tuple(t.key for t in build_inequalities())
_TEMPLATE_POS = {key: i for i, key in enumerate(TEMPLATE_ORDER)}

# pattern-factor symbols, in display order
_SYMBOL_POS = {s: i for i, s in enumerate(P.PATTERN_SYMBOLS)}


def normalize_combination(combination: Combination) -> Dict[str, int]:
    """Validated copy with templates in canonical order, zeros dropped."""
    if not isinstance(combination, Mapping):
        raise InputError("combination must map template keys to"
                         " multiplicities, got %s" % type(combination).__name__)
    out: Dict[str, int] = {}
    for key in combination:
        if key not in _TEMPLATE_POS:
            raise InputError("unknown inequality template %r" % key)
    for key in TEMPLATE_ORDER:
        mult = check_integer(combination.get(key, 0), key, 0)
        if mult:
            out[key] = mult
    return out


def combination_sort_key(combination: Combination) -> Tuple[int, ...]:
    """Total multiplicity, then the multiplicity vector in template order."""
    vec = tuple(combination.get(key, 0) for key in TEMPLATE_ORDER)
    return (sum(vec),) + vec


def _format_power(symbol: str, exp: int) -> str:
    return symbol if exp == 1 else "%s^%d" % (symbol, exp)


class MonomialInequality(NamedTuple):
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
                                    key=lambda kv: P.PARAM_INDEX[kv[0]])]
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
    exponents = [0] * P.N_PARAMS
    pattern: Dict[str, int] = {}
    constant = 1
    n_exp = 0
    m_exp = 0
    for key, mult in combo.items():
        tmpl = index[key]
        for p, e in tmpl.lhs.items():
            exponents[P.PARAM_INDEX[p]] += e * mult
        for p, e in tmpl.rhs.items():
            exponents[P.PARAM_INDEX[p]] -= e * mult
        for s, e in tmpl.pattern.items():
            pattern[s] = pattern.get(s, 0) + e * mult
        constant *= tmpl.constant ** mult
        n_exp += tmpl.n_exp * mult
        m_exp += -tmpl.m_exp * mult
    for pos, e in enumerate(exponents):
        if e < 0:
            raise UnclearedDenominatorError(
                "exponent of %s is %d after clearing; add cofactor-size "
                "templates" % (P.PARAM_ORDER[pos], e)
            )
    return MonomialInequality(
        combination=combo,
        exponents={P.PARAM_ORDER[i]: e for i, e in enumerate(exponents) if e},
        constant=constant,
        n_exp=n_exp,
        m_exp=m_exp,
        pattern=pattern,
    )


# ---------------------------------------------------------------------------
# the packing scan: pattern reductions and partitions both take their
# canonical choice from it


def _first_packings(
    supports: Sequence[Tuple[int, ...]],
    vec: Sequence[int],
    limit: int,
    covers: Sequence[Tuple[int, ...]] = (),
) -> List[Tuple[int, ...]]:
    """Entry k-1 is the first packing of k sets under `vec`, for k <= limit.

    A packing is a nondecreasing sequence of indices into `supports` whose
    position sets, summed componentwise, stay under `vec`.  The
    depth-first scan meets these sequences in lexicographic order, so the
    first one it reaches at depth k is the canonical k-set packing.
    Feasibility is monotone (drop a set), so the list is as long as the
    largest packing, clipped at `limit`.

    Each of `covers` is a position set that every support meets, so no
    more sets fit than the capacity left on it.  A branch that cannot
    reach a depth no earlier branch reached holds no first arrival, and
    the scan skips it.  The scan recurses once per set, so a packing of
    more sets than the recursion limit allows raises InputError.
    """
    vec = list(vec)
    chosen: List[int] = []
    firsts: List[Tuple[int, ...]] = []

    def scan(start: int) -> bool:
        """Extend `chosen`, recording first arrivals; True once at limit."""
        depth = len(chosen)
        if depth > len(firsts):
            firsts.append(tuple(chosen))
        elif covers and depth < len(firsts):
            room = min(sum(vec[pos] for pos in cover) for cover in covers)
            if depth + room <= len(firsts):
                return False
        if depth >= limit:
            return True
        for idx in range(start, len(supports)):
            support = supports[idx]
            for pos in support:
                if vec[pos] < 1:
                    break
            else:  # the set fits: take it, scan on, put it back
                for pos in support:
                    vec[pos] -= 1
                chosen.append(idx)
                done = scan(idx)
                chosen.pop()
                for pos in support:
                    vec[pos] += 1
                if done:
                    return True
        return False

    try:
        scan(0)
    except RecursionError:
        raise InputError("packing too deep to scan") from None
    return firsts


# ---------------------------------------------------------------------------
# pattern simplification


_PATTERN_INSTANCES: Tuple[Tuple[str, ...], ...] = tuple(
    tuple("n%d" % i for i in J) + (P.d_name(J),)
    for J in P.Z_SUBSETS
)
# each instance with the positions of its symbols; its d-symbol comes last
_INSTANCE_POS = tuple((inst, tuple(_SYMBOL_POS[s] for s in inst))
                      for inst in _PATTERN_INSTANCES)
# the n-symbols come first, then the d-symbols
_FIRST_D = _SYMBOL_POS[P.D_SYMBOLS[0]]
# Every instance meets a pair {n_i, n_j}, except the pair instance on the
# other two indices, which holds its own d-symbol.  So each pair with that
# d-symbol is a set every instance meets.
_PATTERN_COVERS = tuple(
    (_SYMBOL_POS["n%d" % i], _SYMBOL_POS["n%d" % j],
     _SYMBOL_POS[P.d_name(set(P.INDICES) - {i, j})])
    for i, j in combinations(P.INDICES, 2))


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
    # a plain dict, as the search passes, skips the slower Mapping check
    if type(pattern) is not dict and not isinstance(pattern, Mapping):
        raise InputError("pattern must map pattern symbols to counts,"
                         " got %s" % type(pattern).__name__)
    for s, c in pattern.items():
        if s not in _SYMBOL_POS:
            raise InputError("unknown pattern symbol %r" % s)
        if not (type(c) is int and c >= 0):  # a plain count skips the call
            check_integer(c, s, 0)
    counts = [pattern.get(s, 0) for s in P.PATTERN_SYMBOLS]
    # no other instance holds an instance's d-symbol, so one without it
    # can never apply; each instance takes one d-symbol and at least two
    # n-symbols, which bounds the count of any matching
    live = [ip for ip in _INSTANCE_POS if counts[ip[1][-1]] >= 1]
    firsts = _first_packings([pos for _, pos in live], counts,
                             min(sum(counts[_FIRST_D:]),
                                 sum(counts[:_FIRST_D]) // 2),
                             _PATTERN_COVERS)
    apps = tuple(live[idx][0] for idx in firsts[-1]) if firsts else ()
    return len(apps), apps


# ---------------------------------------------------------------------------
# partitioning into defining-set groups


# The minimal defining sets of size <= 3 and the six catalogued sets, in
# `closure.sort_sets` order.  Stored as data, so that a search builds no
# closure rules; a test re-derives it through `closure`.
_DEFAULT_SETS: Tuple[str, ...] = (
    "z12 z34", "z12 z123", "z12 z124", "z13 z24", "z13 z123", "z13 z134",
    "z14 z23", "z14 z124", "z14 z134", "z23 z123", "z23 z234", "z24 z124",
    "z24 z234", "z34 z134", "z34 z234", "z123 z124", "z123 z134", "z123 z234",
    "z124 z134", "z124 z234", "z134 z234", "x12 x13 z123", "x12 x14 z124",
    "x12 x23 z123", "x12 x24 z124", "x12 x123 z123", "x12 x124 z124",
    "x13 x14 z134", "x13 x23 z123", "x13 x34 z134", "x13 x123 z123",
    "x13 x134 z134", "x14 x24 z124", "x14 x34 z134", "x14 x124 z124",
    "x14 x134 z134", "x23 x24 z234", "x23 x34 z234", "x23 x123 z123",
    "x23 x234 z234", "x24 x34 z234", "x24 x124 z124", "x24 x234 z234",
    "x34 x134 z134", "x34 x234 z234", "x12 x123 x124 x1234 z34",
    "x12 x13 x24 x34 x123 x124 x134 x1234",
    "x12 x13 x14 x23 x123 x124 x134 x234 x1234",
)
_DEFAULT_LIBRARY = tuple(frozenset(s.split()) for s in _DEFAULT_SETS)


def default_library() -> Tuple[FrozenSet[str], ...]:
    """Minimal defining sets up to size 3 plus the six catalogued sets."""
    return _DEFAULT_LIBRARY


# Fractional covers of the default library: weight 1 on the first group of
# parameters, 1/2 on the second, so that every library set weighs at least
# 1.  Each set of a packing under an exponent vector takes at least 1 of
# the vector's weight on a cover, so no more sets fit than that weight.
# The covers are vertices of the dual of the packing LP, solved at the
# partition scans of the searches at budgets 9-11, most frequent first.
_COVERS: Tuple[Tuple[str, str], ...] = (
    ("x23 x24 x34 z23 z24 z34 z123 z124 z134", ""),
    ("z23 z24 z34 z123 z124 z134", "x23 x24 x34 x234"),
    ("x134 z13 z14 z34 z123 z124 z134 z234", ""),
    ("x34 x234 z13 z14 z34 z123 z124 z134 z234", ""),
    ("x24 x234 z13 z14 z34 z123 z124 z134 z234", ""),
    ("x13 x14 x34 z13 z14 z34 z123 z124 z234", ""),
    ("x14 x34 z13 z14 z34 z123 z124 z134 z234", ""),
    ("x14 x24 z13 z14 z34 z123 z124 z134 z234", ""),
    ("x34 z34 z123 z124 z134", "x23 x234 z13 z14 z23 z24 z234"),
    ("x24 x34 x234 z23 z24 z34 z123 z124 z134", ""),
)
# each cover as (position, doubled weight) pairs, in position order
_Cover = Tuple[Tuple[int, int], ...]
_COVER_WEIGHTS: Tuple[_Cover, ...] = tuple(
    tuple(sorted([(P.PARAM_INDEX[p], 2) for p in ones.split()]
                 + [(P.PARAM_INDEX[p], 1) for p in halves.split()]))
    for ones, halves in _COVERS)
# (supports, sets, covers) of one library, as `_library_supports` returns it
_Checked = Tuple[Tuple[Tuple[int, ...], ...], Tuple[FrozenSet[str], ...],
                 Tuple[_Cover, ...]]


def _library_supports(library: Optional[Sequence[FrozenSet[str]]]) -> _Checked:
    """The library's sets, each with the sorted positions of its parameters.

    Returns (supports, sets, covers): supports and sets index-aligned, and
    the stored covers that every set of this library meets with weight
    >= 1, in doubled integer weights.  None stands for the default
    library.  `params_to_mask` checks each entry's names and refuses a
    string rather than read it as its characters.
    """
    if library is None:
        return _checked_library(_DEFAULT_LIBRARY)
    try:
        entries = iter(library)
    except TypeError:
        raise InputError("library %r is not a collection of parameter"
                         " sets" % (library,)) from None
    sets = []
    for s in entries:
        P.params_to_mask(s)
        sets.append(frozenset(s))
    return _checked_library(tuple(sets))


# lru_cache keeps no exceptions, so a library that fails raises every time
@lru_cache(maxsize=32)
def _checked_library(sets: Tuple[FrozenSet[str], ...]) -> _Checked:
    """`_library_supports` for a tuple of sets, checked and cached.

    Every set must be defining: a partition over a set that is not would
    certify nothing.  A set of the stored default library is taken as
    defining, since a test re-derives that library through the closure;
    every other set goes through `is_defining`.
    """
    for s in sets:
        if s not in _DEFAULT_LIBRARY and not is_defining(s):
            raise InputError(
                "library set %s is not defining; partitions over it"
                " would certify nothing" % sorted(s))
    supports = tuple(tuple(sorted(P.PARAM_INDEX[p] for p in s)) for s in sets)
    covers = tuple(cover for cover in _COVER_WEIGHTS
                   if all(sum(w for pos, w in cover if pos in support) >= 2
                          for support in supports))
    return supports, sets, covers


def _packing_cap(covers: Sequence[_Cover], vec: Sequence[int],
                 g_max: int) -> int:
    """min(g_max, the weight of `vec` on each cover): no more sets fit."""
    return min([g_max] + [sum([vec[pos] * w for pos, w in cover]) // 2
                          for cover in covers])


class Partition(NamedTuple):
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
    if not isinstance(lhs, Mapping):
        raise InputError("exponents must map parameter names to"
                         " exponents, got %s" % type(lhs).__name__)
    vec = [0] * P.N_PARAMS
    for p, e in lhs.items():
        if p not in P.PARAM_INDEX:
            raise InputError("unknown parameter %r" % p)
        vec[P.PARAM_INDEX[p]] += check_integer(e, p, 0)
    return vec


def _partition_of(vec: Sequence[int], bases: Sequence[FrozenSet[str]]) -> Partition:
    """`bases` with the occurrences of `vec` that they leave over."""
    left = list(vec)
    for base in bases:
        for p in base:
            left[P.PARAM_INDEX[p]] -= 1
    return Partition(bases=tuple(bases), leftover={
        P.PARAM_ORDER[i]: v for i, v in enumerate(left) if v})


def partition(
    lhs: Mapping[str, int],
    g: int,
    library: Optional[Sequence[FrozenSet[str]]] = None,
) -> Optional[Partition]:
    """Split the occurrence multiset into g parts covering defining sets.

    Finds g library sets (repetition allowed) whose componentwise sum
    stays under the exponent vector; everything left over is assigned to
    the first part.  The bases are the lexicographically first such
    sequence in canonical library order; None when infeasible, and at
    once when the library's covers leave no room for g sets.
    """
    check_integer(g, "g", 1)
    supports, sets, covers = _library_supports(library)
    vec = _exponent_vector(lhs)
    if _packing_cap(covers, vec, g) < g:
        return None
    packings = _first_packings(supports, vec, g)
    if len(packings) < g:
        return None
    return _partition_of(vec, [sets[idx] for idx in packings[-1]])


def max_feasible_g(
    lhs: Mapping[str, int],
    g_max: int,
    library: Optional[Sequence[FrozenSet[str]]] = None,
) -> int:
    """Largest g <= g_max for which partition(lhs, g) succeeds (0 if none)."""
    check_integer(g_max, "g_max", 1)
    supports, _, covers = _library_supports(library)
    vec = _exponent_vector(lhs)
    return len(_first_packings(supports, vec,
                               _packing_cap(covers, vec, g_max)))


# ---------------------------------------------------------------------------
# derived bounds and the search


class DerivedBound(NamedTuple):
    """One witnessed bound: smallest of g parts <= const^(1/g) n^(A/g)/m^(B/g)."""

    raw: MonomialInequality  # as combine() returns it, pattern included
    reductions: Tuple[Tuple[str, ...], ...]
    partition: Partition

    @property
    def inequality(self) -> MonomialInequality:
        """The bound with each reduction absorbing one n, pattern dropped."""
        return self.raw._replace(n_exp=self.A, pattern={})

    @property
    def raw_pattern(self) -> Mapping[str, int]:
        return self.raw.pattern

    @property
    def combination(self) -> Mapping[str, int]:
        return self.raw.combination

    @property
    def A(self) -> int:
        return self.raw.n_exp - len(self.reductions)

    @property
    def B(self) -> int:
        return self.raw.m_exp

    @property
    def g(self) -> int:
        return self.partition.g

    @property
    def score(self) -> Tuple[Fraction, Fraction]:
        return (Fraction(self.A, self.g), Fraction(self.B, self.g))

    def exponents(self) -> Mapping[str, int]:
        return self.raw.exponents

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


class SearchResult(NamedTuple):
    frontier: Tuple[DerivedBound, ...]
    examined: int
    # examined combinations decided without pattern_reductions
    skipped: int
    complete: bool
    elapsed: float


class _Frontier:
    """Pareto points keyed by the integer pair (A*L/g, B*L/g).

    With L = lcm(1..g_max) every key is exact, so keys order and tie
    exactly as the scores (A/g, B/g) do, in integer arithmetic.  The
    points form an antichain, so sorted by A-key their B-keys strictly
    increase: a staircase, kept as two aligned key lists.
    """

    def __init__(self) -> None:
        self.points: Dict[Tuple[int, int], DerivedBound] = {}
        self._a: List[int] = []
        self._b: List[int] = []

    def covered(self, key: Tuple[int, int]) -> bool:
        """Another point has A/g no larger and B/g no smaller.

        Of the points with A-key <= a, the last has the largest B-key, so
        it alone decides.  The key itself does not cover it: a tie is
        left to `insert`.
        """
        a, b = key
        i = bisect_right(self._a, a) - 1
        return i >= 0 and self._b[i] >= b and (self._a[i] < a or self._b[i] > b)

    def insert(self, key: Tuple[int, int], bound: DerivedBound) -> None:
        """Add an uncovered point; a tie keeps the combination sorting first."""
        existing = self.points.get(key)
        if existing is not None and (
                combination_sort_key(existing.combination)
                <= combination_sort_key(bound.combination)):
            return
        a, b = key
        self.points = {k: p for k, p in self.points.items()
                       if not (a <= k[0] and b >= k[1])}
        self.points[key] = bound
        keys = sorted(self.points)
        self._a = [k[0] for k in keys]
        self._b = [k[1] for k in keys]

    def sorted(self) -> Tuple[DerivedBound, ...]:
        return tuple(self.points[k] for k in sorted(self.points))


# One integer row per template, in TEMPLATE_ORDER: the parameter exponents
# (lhs minus rhs), the pattern-symbol counts, then the exponents of n and
# of 1/m, then the total count of the d-symbols and of the n-symbols.
# Adding rows multiplies templates, so a row sum is the combined
# inequality before its pattern is simplified.  A row is stored sparse, as
# its nonzero (position, value) pairs in position order.
_N_COL = P.N_PARAMS + len(P.PATTERN_SYMBOLS)
_M_COL = _N_COL + 1
_DSUM_COL = _M_COL + 1
_NSUM_COL = _DSUM_COL + 1


def _template_row(tmpl: InequalityTemplate) -> Tuple[Tuple[int, int], ...]:
    row = [0] * (_NSUM_COL + 1)
    for p, e in tmpl.lhs.items():
        row[P.PARAM_INDEX[p]] += e
    for p, e in tmpl.rhs.items():
        row[P.PARAM_INDEX[p]] -= e
    for s, e in tmpl.pattern.items():
        row[P.N_PARAMS + _SYMBOL_POS[s]] += e
        row[_NSUM_COL if _SYMBOL_POS[s] < _FIRST_D else _DSUM_COL] += e
    row[_N_COL] = tmpl.n_exp
    row[_M_COL] = -tmpl.m_exp
    return tuple((pos, v) for pos, v in enumerate(row) if v)


_ROWS = tuple(_template_row(t) for t in build_inequalities())

# every template constant is at least this
_MIN_CONSTANT = min(t.constant for t in build_inequalities())
# the most parameter occurrences one template adds (t1-t3 add 7 each)
_MOST_ADDED = max(sum(v for pos, v in row if pos < P.N_PARAMS and v > 0)
                  for row in _ROWS)
# (row position, symbol) of each pattern symbol
_SYMBOL_COLS = tuple(enumerate(P.PATTERN_SYMBOLS, P.N_PARAMS))


def _add_lines(row, times: Optional[str], sign: int = 1) -> List[str]:
    """Statements adding sign * `times` copies of a row (one if None)."""
    return ["c%d %s= %s" % (pos, "+-"[v * sign < 0], abs(v) if times is None
                            else times if abs(v) == 1
                            else "%d * %s" % (abs(v), times))
            for pos, v in row]


def _indent(lines: List[str]) -> List[str]:
    return ["    " + line for line in lines]


def walk_source() -> str:
    """Source of `_walk(budget, node_limit, steps, covered, decided,
    candidate)`.

    One `while` loop per template row, nested in template order, raises
    multiplicity k<i> from the least value that clears what no later row
    raises to the remaining budget r<i>, and stops early once an exponent
    in the row sum (locals c0, c1, ...) sinks below what the rest of the
    budget can clear.  Each leaf enforces `node_limit`, counts itself and
    runs the optimistic pre-check: its pair (A, B) is decided when it is
    in the set `decided`, or when every g's key is covered, and then joins
    that set.  Only an undecided leaf calls `candidate(multiplicities,
    row)`.  Returns (examined, skipped, complete).  The source is built
    from the leaf outwards, one row's loop around the next.
    """
    if len(_ROWS) + 1 > 20:  # the rows' loops and the leaf's
        raise InvariantError("%d template rows need %d nested loops; CPython"
                             " compiles at most 20"
                             % (len(_ROWS), len(_ROWS) + 1))
    cols = ["c%d" % pos for pos in range(_NSUM_COL + 1)]
    params = [(pos, v) for row in _ROWS for pos, v in row if pos < P.N_PARAMS]
    # the most one row adds to a parameter exponent
    step = max(v for _, v in params)
    # the parameter positions some row lowers: only these can go negative
    deficit = sorted({pos for pos, v in params if v < 0})
    floor = " or ".join("c%d < _f" % pos for pos in deficit)
    body = [
        "if examined == node_limit:", "    return examined, skipped, False",
        "examined += 1",
        "_a = c%d - min(c%d, c%d // 2)" % (_N_COL, _DSUM_COL, _NSUM_COL),
        "_p = _a, c%d" % _M_COL,
        "if _p in decided:", "    skipped += 1",
        "else:",
        "    for _, _s in steps:",
        "        if not covered((_a * _s, c%d * _s)):" % _M_COL,
        "            candidate((%s,), [%s])" % (
            ", ".join("k%d" % i for i in range(len(_ROWS))), ", ".join(cols)),
        "            break",
        "    else:", "        decided.add(_p)", "        skipped += 1"]
    raised = set()  # the positions the rows wrapped so far raise
    for i in reversed(range(len(_ROWS))):
        row, k, r = _ROWS[i], "k%d" % i, "r%d" % i
        if i + 1 < len(_ROWS):
            body.insert(0, "r%d = %s - %s" % (i + 1, r, k))
        # a later row adds at most `step` to an exponent, so one under
        # this floor cannot be cleared, nor with another copy of this row
        body = ["while True:",
                *_indent(body + ["if %s == %s: break" % (k, r), "%s += 1" % k,
                                 *_add_lines(row, None),
                                 "_f = (%s - %s) * %d" % (k, r, step),
                                 "if %s: break" % floor]),
                *_add_lines(row, k, -1)]
        # k<i> alone must clear the deficits no later row raises
        clears = [(pos, v) for pos, v in row
                  if v > 0 and pos in deficit and pos not in raised]
        raised.update(pos for pos, v in row if v > 0)
        if clears:
            body = [line for pos, v in clears
                    for line in ("_m = -(c%d // %d)" % (pos, v),
                                 "if _m > %s: %s = _m" % (k, k))] + [
                "if %s <= %s:" % (k, r),
                *_indent(_add_lines(row, k) + body)]
        body.insert(0, "%s = 0" % k)
    body = ["examined = skipped = 0", " = ".join(cols) + " = 0",
            "r0 = budget", *body, "return examined, skipped, True"]
    return ("def _walk(budget, node_limit, steps, covered, decided,"
            " candidate):\n" + "".join("    %s\n" % line for line in body))


@lru_cache(maxsize=None)
def compiled_walk() -> Callable:
    """Compile `walk_source()` once, on the first search."""
    namespace: Dict[str, object] = {}
    exec(compile(walk_source(), "<template walk>", "exec"), namespace)
    return namespace["_walk"]


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
    then canonical template order).  The combinations come from the
    compiled walk (`walk_source`), in lexicographic order of their
    multiplicity vectors.  `examined` counts the clearable combinations
    scored, the empty one included.  `node_limit`, if given, caps that
    count; `complete` is False exactly when a clearable combination was
    left unexamined, and the frontier is then partial.  `skipped` counts
    the examined combinations whose every point was already covered at
    the smallest A their pattern allows, so that `pattern_reductions`
    never ran on them.  Coverage only grows, so each pair (A, B) found
    covered at every g is remembered for the rest of the call and
    decided again without a `covered()` call.  The library's covers cap
    each packing scan (`_packing_cap`); a candidate whose first uncovered
    g lies above the cap is refuted without a scan.
    """
    check_integer(budget, "budget", 1)
    check_integer(g_max, "g_max", 1)
    if node_limit is not None:
        check_integer(node_limit, "node_limit", 1)
    started = time.perf_counter()
    supports, sets, covers = _library_supports(library)
    index = inequality_index()
    frontier = _Frontier()
    # every part of a packing takes an occurrence, so no larger g fits
    g_max = min(g_max, budget * _MOST_ADDED)
    scale = lcm(*range(1, g_max + 1))
    # (g, L/g): the key of (A/g, B/g) is (A*L/g, B*L/g), exact and
    # increasing in A
    steps = tuple((g, scale // g) for g in range(1, g_max + 1))
    covered = frontier.covered
    # the pairs (A, B) whose key is covered at every g.  An insert only
    # drops points that the new point dominates, so a covered key stays
    # covered and a pair, once here, is decided for the rest of the search
    decided = set()

    def candidate(mults: Tuple[int, ...], row: List[int]) -> None:
        """Score a combination the walk's pre-check left undecided."""
        b_total = row[_M_COL]
        vec = row[:P.N_PARAMS]
        raw_pattern = {s: row[pos] for pos, s in _SYMBOL_COLS if row[pos]}
        q, apps = pattern_reductions(raw_pattern)
        a_total = row[_N_COL] - q
        pair = (a_total, b_total)
        if pair in decided:
            return
        packings = None
        for g, step in steps:
            key = (a_total * step, b_total * step)
            if covered(key):
                continue
            if packings is None:
                cap = _packing_cap(covers, vec, g_max)
                if g > cap:  # refuted without a scan
                    return
                packings = _first_packings(supports, vec, cap)
            if g > len(packings):
                return
            combo = {k: m for k, m in zip(TEMPLATE_ORDER, mults) if m}
            raw = MonomialInequality(
                combination=combo,
                exponents={P.PARAM_ORDER[i]: v for i, v in enumerate(vec) if v},
                constant=prod(index[k].constant ** m for k, m in combo.items()),
                n_exp=row[_N_COL],
                m_exp=b_total,
                pattern=raw_pattern,
            )
            frontier.insert(key, DerivedBound(
                raw=raw,
                reductions=apps,
                partition=_partition_of(
                    vec, [sets[idx] for idx in packings[g - 1]]),
            ))
        if packings is None:  # no key was left uncovered
            decided.add(pair)

    examined, skipped, complete = compiled_walk()(
        budget, node_limit, steps, covered, decided, candidate)
    return SearchResult(
        frontier=frontier.sorted(),
        examined=examined,
        skipped=skipped,
        complete=complete,
        elapsed=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# witness files and replay


def witness_to_json(bound: DerivedBound) -> str:
    """Deterministic single-line JSON for one derived bound."""
    doc = {
        "combination": dict(normalize_combination(bound.combination)),
        "exponents": {p: bound.raw.exponents[p]
                      for p in P.sort_params(bound.raw.exponents)},
        "constant": bound.raw.constant,
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

    Runs combine and pattern_reductions on the stored combination,
    verifies the stored exponent vector, constant, A, B, raw pattern and
    pattern reductions, and that the stored partition is valid: bases are
    defining sets, the base sum fits under the exponent vector, and
    leftover matches exactly.  A document that is not an object, lacks a
    field, holds a value of the wrong shape (every number must be a JSON
    integer), has more total multiplicity than its constant has bits, or
    is too large for the reduction scan's recursion raises InputError.
    """
    if not isinstance(doc, Mapping):
        raise InputError("witness must be a JSON object, got %s"
                         % type(doc).__name__)
    try:
        combo = normalize_combination(dict(doc["combination"]))
        raw_pattern = {k: check_integer(v, k)
                       for k, v in doc["raw_pattern"].items()}
        stored_exp = {k: check_integer(v, k)
                      for k, v in doc["exponents"].items()}
        constant, a_total, b_total, g = (check_integer(doc[key], key)
                                         for key in ("constant", "A", "B", "g"))
        bases = doc["partition"]["bases"]
        for base in bases:
            P.params_to_mask(base)  # InputError on a str or an unknown name
        bases = tuple(frozenset(b) for b in bases)
        stored_leftover = {k: check_integer(v, k)
                           for k, v in doc["partition"]["leftover"].items()}
        stored_apps = doc["reductions"]
        if not (isinstance(stored_apps, list)
                and all(isinstance(app, list) for app in stored_apps)):
            raise TypeError("reductions must be a list of symbol lists")
        stored_apps = tuple(tuple(app) for app in stored_apps)
    except KeyError as exc:
        raise InputError("witness has no %s field" % exc) from None
    except (TypeError, AttributeError, ValueError) as exc:  # InputError too
        raise InputError("malformed witness: %s" % exc) from None
    check_integer(g, "witness g", 1)
    # each template multiplies the constant by at least _MIN_CONSTANT;
    # refusing too few bits here keeps combine() off unbounded powers
    if (sum(combo.values()) * (_MIN_CONSTANT.bit_length() - 1)
            >= constant.bit_length()):
        raise InputError("witness too large to replay")
    raw = combine(combo)
    if dict(raw.pattern) != raw_pattern:
        raise InputError("witness raw pattern does not replay")
    try:
        _, apps = pattern_reductions(raw.pattern)
    except InputError:  # combine() writes only known symbols: too deep
        raise InputError("witness too large to replay") from None
    if apps != stored_apps:
        raise InputError("witness reductions do not replay")
    if dict(raw.exponents) != stored_exp:
        raise InputError("witness exponent vector does not replay")
    if raw.constant != constant:
        raise InputError("witness constant does not replay")
    if raw.n_exp - len(apps) != a_total or raw.m_exp != b_total:
        raise InputError("witness A/B do not replay")
    if len(bases) != g:
        raise InputError("witness partition has %d bases, g=%d"
                         % (len(bases), g))
    for base in bases:
        if not is_defining(base):
            raise InputError("witness base %s is not defining"
                             % ",".join(P.sort_params(base)))
    part = _partition_of(_exponent_vector(stored_exp), bases)
    for p, v in part.leftover.items():
        if v < 0:
            raise InputError("witness bases exceed the exponent vector "
                             "at %s" % p)
    if part.leftover != stored_leftover:
        raise InputError("witness leftover does not replay")
    return DerivedBound(raw=raw, reductions=apps, partition=part)
