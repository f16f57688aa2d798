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
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
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


def _integer(value, name: str) -> int:
    """`value` if it is an int and not a bool, else InputError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError("%s must be an integer, got %r" % (name, value))
    return value


def _count(value, name: str) -> int:
    """`value` if it is an int >= 0 and not a bool, else InputError."""
    if _integer(value, name) < 0:
        raise InputError("%s must be an integer >= 0, got %r" % (name, value))
    return value


def normalize_combination(combination: Combination) -> Dict[str, int]:
    """Validated copy with templates in canonical order, zeros dropped."""
    out: Dict[str, int] = {}
    for key in combination:
        if key not in _TEMPLATE_POS:
            raise InputError("unknown inequality template %r" % key)
    for key in TEMPLATE_ORDER:
        mult = _count(combination.get(key, 0), key)
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
    the scan skips it.
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

    scan(0)
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
    for s, c in pattern.items():
        if s not in _SYMBOL_POS:
            raise InputError("unknown pattern symbol %r" % s)
        _count(c, s)
    counts = [pattern.get(s, 0) for s in _SYMBOL_ORDER]
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


# Cached: a tuple of frozensets is immutable, so callers can share it.
@lru_cache(maxsize=None)
def default_library() -> Tuple[FrozenSet[str], ...]:
    """Minimal defining sets up to size 3 plus the six catalogued sets."""
    sets = set(minimal_defining_sets(3))
    sets.update(CORE_DEFINING_SETS)
    return tuple(sort_sets(sets))


def _library_supports(
    library: Optional[Sequence[FrozenSet[str]]],
) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[FrozenSet[str], ...]]:
    """The library's sets, each with the sorted positions of its parameters.

    Returns (supports, sets), index-aligned.  None stands for the default
    library, defining by construction.  Every set of any other library
    must be defining: a partition over a set that is not would certify
    nothing.
    """
    sets = tuple(frozenset(s) for s in
                 (default_library() if library is None else library))
    for s in sets:
        for p in s:
            if p not in _PARAM_POS:
                raise InputError("unknown parameter %r in library set" % p)
        if library is not None and not is_defining(s):
            raise InputError(
                "library set %s is not defining; partitions over it"
                " would certify nothing" % sorted(s))
    return tuple(tuple(sorted(_PARAM_POS[p] for p in s)) for s in sets), sets


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
        vec[_PARAM_POS[p]] += _count(e, p)
    return vec


def _partition_of(vec: Sequence[int], bases: Sequence[FrozenSet[str]]) -> Partition:
    """`bases` with the occurrences of `vec` that they leave over."""
    left = list(vec)
    for base in bases:
        for p in base:
            left[_PARAM_POS[p]] -= 1
    return Partition(bases=tuple(bases), leftover={
        _PARAM_ORDER[i]: v for i, v in enumerate(left) if v})


def partition(
    lhs: Mapping[str, int],
    g: int,
    library: Optional[Sequence[FrozenSet[str]]] = None,
) -> Optional[Partition]:
    """Split the occurrence multiset into g parts covering defining sets.

    Finds g library sets (repetition allowed) whose componentwise sum
    stays under the exponent vector; everything left over is assigned to
    the first part.  The bases are the lexicographically first such
    sequence in canonical library order; None when infeasible.
    """
    if _integer(g, "g") < 1:
        raise InputError("g must be >= 1, got %d" % g)
    supports, sets = _library_supports(library)
    vec = _exponent_vector(lhs)
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
    if _integer(g_max, "g_max") < 1:
        raise InputError("g_max must be >= 1, got %d" % g_max)
    supports, _ = _library_supports(library)
    return len(_first_packings(supports, _exponent_vector(lhs), g_max))


# ---------------------------------------------------------------------------
# derived bounds and the search


@dataclass(frozen=True)
class DerivedBound:
    """One witnessed bound: smallest of g parts <= const^(1/g) n^(A/g)/m^(B/g)."""

    raw: MonomialInequality  # as combine() returns it, pattern included
    reductions: Tuple[Tuple[str, ...], ...]
    partition: Partition

    @property
    def inequality(self) -> MonomialInequality:
        """The bound with each reduction absorbing one n, pattern dropped."""
        return replace(self.raw, n_exp=self.A, pattern={})

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


@dataclass(frozen=True)
class SearchResult:
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
_N_COL = _NPARAMS + len(_SYMBOL_ORDER)
_M_COL = _N_COL + 1
_DSUM_COL = _M_COL + 1
_NSUM_COL = _DSUM_COL + 1


def _template_row(tmpl: InequalityTemplate) -> Tuple[Tuple[int, int], ...]:
    row = [0] * (_NSUM_COL + 1)
    for p, e in tmpl.lhs.items():
        row[_PARAM_POS[p]] += e
    for p, e in tmpl.rhs.items():
        row[_PARAM_POS[p]] -= e
    for s, e in tmpl.pattern.items():
        row[_NPARAMS + _SYMBOL_POS[s]] += e
        row[_NSUM_COL if _SYMBOL_POS[s] < _FIRST_D else _DSUM_COL] += e
    row[_N_COL] = tmpl.n_exp
    row[_M_COL] = -tmpl.m_exp
    return tuple((pos, v) for pos, v in enumerate(row) if v)


_ROWS = tuple((t.key, _template_row(t)) for t in build_inequalities())

# every template constant is at least this
_MIN_CONSTANT = min(t.constant for t in build_inequalities())
# the most one template adds to any parameter exponent
_STEP = max(v for _, row in _ROWS for pos, v in row if pos < _NPARAMS)
# the most parameter occurrences one template adds (t1-t3 add 7 each)
_MOST_ADDED = max(sum(v for pos, v in row if pos < _NPARAMS and v > 0)
                  for _, row in _ROWS)
# the parameter positions some template lowers: only these can go negative
_DEFICIT_POS = tuple(sorted({pos for _, row in _ROWS for pos, v in row
                             if pos < _NPARAMS and v < 0}))
# the last template that raises each position
_LAST_RAISER = {pos: i for i, (_, row) in enumerate(_ROWS)
                for pos, v in row if v > 0}
# per template, the (deficit position, step) pairs no later template
# raises: its multiplicity alone must clear those
_CLEARS = tuple(tuple((pos, v) for pos, v in row
                      if pos in _DEFICIT_POS and _LAST_RAISER[pos] == i)
                for i, (_, row) in enumerate(_ROWS))
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
    then canonical template order).  `examined` counts the clearable
    combinations scored, the empty one included.  `node_limit`, if
    given, caps that count; `complete` is False exactly when a clearable
    combination was left unexamined, and the frontier is then partial.
    `skipped` counts the examined combinations whose every point was
    already covered at the smallest A their pattern allows, so that
    `pattern_reductions` never ran on them.
    """
    if _integer(budget, "budget") < 1:
        raise InputError("budget must be >= 1, got %d" % budget)
    if _integer(g_max, "g_max") < 1:
        raise InputError("g_max must be >= 1, got %d" % g_max)
    if node_limit is not None and _integer(node_limit, "node_limit") < 1:
        raise InputError("node_limit must be >= 1, got %d" % node_limit)
    started = time.perf_counter()
    supports, sets = _library_supports(library)
    index = inequality_index()
    frontier = _Frontier()
    # every part of a packing takes an occurrence, so no larger g fits
    g_max = min(g_max, budget * _MOST_ADDED)
    scale = lcm(*range(1, g_max + 1))
    # (g, L/g): the key of (A/g, B/g) is (A*L/g, B*L/g), exact and
    # increasing in A
    steps = tuple((g, scale // g) for g in range(1, g_max + 1))
    covered = frontier.covered
    examined = 0
    skipped = 0
    complete = True

    # the running row sum of the combination being built, updated in place
    row = [0] * (_NSUM_COL + 1)

    def candidate(items: Tuple[Tuple[str, int], ...]) -> None:
        nonlocal examined, skipped
        examined += 1
        b_total = row[_M_COL]
        # Each reduction takes one d-symbol and at least two n-symbols, so
        # A is at least a_opt.  Covering is monotone in A at a fixed B, so
        # if every key at a_opt is covered, every true key is too.
        a_opt = row[_N_COL] - min(row[_DSUM_COL], row[_NSUM_COL] // 2)
        for _, step in steps:
            if not covered((a_opt * step, b_total * step)):
                break
        else:
            skipped += 1
            return
        vec = row[:_NPARAMS]
        raw_pattern = {s: row[pos] for pos, s in _SYMBOL_COLS if row[pos]}
        q, apps = pattern_reductions(raw_pattern)
        a_total = row[_N_COL] - q
        packings = None
        for g, step in steps:
            key = (a_total * step, b_total * step)
            if covered(key):
                continue
            if packings is None:
                packings = _first_packings(supports, vec, g_max)
            if g > len(packings):
                return
            raw = MonomialInequality(
                combination=dict(items),
                exponents={_PARAM_ORDER[i]: v for i, v in enumerate(vec) if v},
                constant=prod(index[k].constant ** m for k, m in items),
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

    def pick(idx: int, items, remaining: int) -> bool:
        """Choose the multiplicity of template idx and of every later one.

        Visits the clearable completions of `items` in lexicographic
        order of the multiplicity vector; False once the node limit
        stops the search.
        """
        nonlocal complete
        if idx == len(_ROWS):
            if examined == node_limit:
                complete = False
                return False
            candidate(items)
            return True
        key, tmpl_row = _ROWS[idx]
        # no later template raises these positions, so this multiplicity
        # must clear what they lack now
        mult = 0
        for pos, step in _CLEARS[idx]:
            mult = max(mult, -(row[pos] // step))
        if mult > remaining:
            return True
        for pos, v in tmpl_row:
            row[pos] += mult * v
        while True:
            if not pick(idx + 1, items + ((key, mult),) if mult else items,
                        remaining - mult):
                return False
            if mult == remaining:
                break
            mult += 1
            for pos, v in tmpl_row:
                row[pos] += v
            # Each later template adds at most _STEP to an exponent, so one
            # below -(remaining - mult) * _STEP cannot be cleared and no
            # leaf lies below.  Another copy of this row raises an exponent
            # by at most the _STEP the floor rises, so every larger
            # multiplicity is dead too.
            floor = (mult - remaining) * _STEP
            if any(row[pos] < floor for pos in _DEFICIT_POS):
                break
        for pos, v in tmpl_row:
            row[pos] -= mult * v
        return True

    pick(0, (), budget)
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
        raw_pattern = {k: _integer(v, k) for k, v in doc["raw_pattern"].items()}
        stored_exp = {k: _integer(v, k) for k, v in doc["exponents"].items()}
        constant, a_total, b_total, g = (
            _integer(doc[key], key) for key in ("constant", "A", "B", "g"))
        bases = tuple(frozenset(b) for b in doc["partition"]["bases"])
        for base in bases:
            P.params_to_mask(base)  # ValueError on an unknown name
        stored_leftover = {k: _integer(v, k)
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
    if g < 1:
        raise InputError("witness g must be >= 1, got %d" % g)
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
    except RecursionError:
        # the scan recurses once per application
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
