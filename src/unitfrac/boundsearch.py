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
from itertools import combinations
from typing import (Dict, FrozenSet, List, Mapping, Optional, Sequence,
                    Tuple)

from . import params as P
from .catalog import build_inequalities, inequality_index
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
                                   key=lambda kv: _SYMBOL_ORDER.index(kv[0]))]
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


def pattern_reductions(
    pattern: Mapping[str, int],
) -> Tuple[int, Tuple[Tuple[str, ...], ...]]:
    """Largest disjoint multiset of >= n instances inside the pattern.

    Each instance is {n_i, n_j, d_ij} or {n_i, n_j, n_k, d_ijk}; every
    application consumes its symbols and lowers the n-exponent by one.
    Returns (count, applications); exhaustive, not greedy.
    """
    for s in pattern:
        if s not in _SYMBOL_ORDER:
            raise InputError("unknown pattern symbol %r" % s)

    def best(avail: Tuple[int, ...], start: int) -> Tuple[Tuple[str, ...], ...]:
        result: Tuple[Tuple[str, ...], ...] = ()
        for idx in range(start, len(_PATTERN_INSTANCES)):
            inst = _PATTERN_INSTANCES[idx]
            counts = [avail[_SYMBOL_ORDER.index(s)] for s in inst]
            if min(counts) < 1:
                continue
            taken = list(avail)
            for s in inst:
                taken[_SYMBOL_ORDER.index(s)] -= 1
            # the same instance may apply again, so recurse from idx
            cand = (inst,) + best(tuple(taken), idx)
            if len(cand) > len(result):
                result = cand
        return result

    avail = tuple(pattern.get(s, 0) for s in _SYMBOL_ORDER)
    apps = best(avail, 0)
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
def default_library(convention: str = "standard") -> Tuple[FrozenSet[str], ...]:
    """Minimal defining sets up to size 3 plus the six catalogued sets."""
    sets = set(minimal_defining_sets(3, convention=convention))
    sets.update(CORE_DEFINING_SETS)
    return tuple(sort_sets(sets))


def _library_vectors(
    library: Sequence[FrozenSet[str]],
) -> Tuple[Tuple[Tuple[int, ...], FrozenSet[str]], ...]:
    out = []
    for s in library:
        vec = [0] * _NPARAMS
        for p in s:
            if p not in _PARAM_POS:
                raise InputError("unknown parameter %r in library set" % p)
            vec[_PARAM_POS[p]] = 1
        out.append((tuple(vec), frozenset(s)))
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
            part = {p: 1 for p in sort_params_list(base)}
            if i == 0:
                for p, e in self.leftover.items():
                    part[p] = part.get(p, 0) + e
            out.append(part)
        return tuple(out)


def sort_params_list(names) -> List[str]:
    return sorted(names, key=lambda p: _PARAM_POS[p])


def _exponent_vector(lhs: Mapping[str, int]) -> List[int]:
    vec = [0] * _NPARAMS
    for p, e in lhs.items():
        if p not in _PARAM_POS:
            raise InputError("unknown parameter %r" % p)
        if e < 0:
            raise InputError("negative exponent for %s" % p)
        vec[_PARAM_POS[p]] += e
    return vec


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
    lib = _library_vectors(default_library() if library is None else library)
    vec = _exponent_vector(lhs)

    chosen: List[FrozenSet[str]] = []

    def place(start: int, remaining: int) -> bool:
        if remaining == 0:
            return True
        for idx in range(start, len(lib)):
            svec, sset = lib[idx]
            if all(v >= s for v, s in zip(vec, svec)):
                for pos in range(_NPARAMS):
                    vec[pos] -= svec[pos]
                chosen.append(sset)
                if place(idx, remaining - 1):
                    return True
                chosen.pop()
                for pos in range(_NPARAMS):
                    vec[pos] += svec[pos]
        return False

    if not place(0, g):
        return None
    leftover = {_PARAM_ORDER[i]: v for i, v in enumerate(vec) if v}
    return Partition(bases=tuple(chosen), leftover=leftover)


class _Packer:
    """Max count of library sets fitting under a vector, memoized.

    Feasibility of g parts is monotone (drop a set), so the maximum
    feasible g is the packing number clipped at g_max.  Components are
    clipped at g_max for the memo key: a part uses each parameter at most
    once, so capacity beyond g_max never matters.
    """

    def __init__(self, library: Sequence[FrozenSet[str]], g_max: int):
        self.lib = _library_vectors(library)
        self.g_max = g_max
        self.memo: Dict[Tuple[int, ...], int] = {}

    def max_parts(self, vec: Sequence[int]) -> int:
        clipped = tuple(min(v, self.g_max) for v in vec)
        cached = self.memo.get(clipped)
        if cached is not None:
            return cached
        best = self._pack(list(clipped), 0, 0)
        self.memo[clipped] = best
        return best

    def _pack(self, vec: List[int], start: int, depth: int) -> int:
        if depth >= self.g_max:
            return depth
        best = depth
        for idx in range(start, len(self.lib)):
            svec, _ = self.lib[idx]
            if all(v >= s for v, s in zip(vec, svec)):
                for pos in range(_NPARAMS):
                    vec[pos] -= svec[pos]
                found = self._pack(vec, idx, depth + 1)
                for pos in range(_NPARAMS):
                    vec[pos] += svec[pos]
                if found > best:
                    best = found
                    if best >= self.g_max:
                        return best
        return best


def max_feasible_g(
    lhs: Mapping[str, int],
    g_max: int,
    library: Optional[Sequence[FrozenSet[str]]] = None,
) -> int:
    """Largest g <= g_max for which partition(lhs, g) succeeds (0 if none)."""
    if g_max < 1:
        raise InputError("g_max must be >= 1, got %d" % g_max)
    lib = default_library() if library is None else library
    packer = _Packer(lib, g_max)
    return packer.max_parts(_exponent_vector(lhs))


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


def _dominates(a: Tuple[Fraction, Fraction], b: Tuple[Fraction, Fraction]) -> bool:
    """a at least as good as b in both coordinates (A/g down, B/g up)."""
    return a[0] <= b[0] and a[1] >= b[1]


class _Frontier:
    def __init__(self) -> None:
        self.points: List[DerivedBound] = []

    def covered(self, score: Tuple[Fraction, Fraction]) -> bool:
        return any(_dominates(p.score, score) and p.score != score
                   for p in self.points)

    def insert(self, bound: DerivedBound) -> None:
        score = bound.score
        for existing in self.points:
            if existing.score == score:
                if (combination_sort_key(existing.combination)
                        <= combination_sort_key(bound.combination)):
                    return
                self.points.remove(existing)
                break
            if _dominates(existing.score, score):
                return
        self.points = [p for p in self.points
                       if not (_dominates(score, p.score) and p.score != score)]
        self.points.append(bound)

    def sorted(self) -> Tuple[DerivedBound, ...]:
        return tuple(sorted(self.points, key=lambda p: (p.score[0], -p.score[1])))


# which t-templates supply each x-parameter (index 1..3 -> t1..t3)
_T_COVER = {
    name: tuple(i for i in (1, 2, 3) if name in P.CONTAINING[i])
    for name in P.X_PARAMS
}


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
    started = time.perf_counter()

    z_keys = TEMPLATE_ORDER[:10]
    examined = 0
    complete = True

    # per z-template data: lhs/rhs exponent vectors, pattern symbols
    z_data = []
    for key in z_keys:
        tmpl = index[key]
        lvec = [0] * _NPARAMS
        for p, e in tmpl.lhs.items():
            lvec[_PARAM_POS[p]] += e
        rvec = [0] * _NPARAMS
        for p, e in tmpl.rhs.items():
            rvec[_PARAM_POS[p]] += e
        z_data.append((key, tuple(lvec), tuple(rvec), tmpl))
    t_vecs = {}
    for i in (1, 2, 3):
        vec = [0] * _NPARAMS
        for p in P.CONTAINING[i]:
            vec[_PARAM_POS[p]] = 1
        t_vecs[i] = tuple(vec)

    def candidate(combo_items: Tuple[Tuple[str, int], ...], vec: List[int],
                  n_exp: int, m_exp: int, pattern: Dict[str, int]) -> None:
        nonlocal examined
        examined += 1
        q, apps = pattern_reductions(pattern)
        a_total = n_exp - q
        feasible = 0
        for g in range(1, g_max + 1):
            score = (Fraction(a_total, g), Fraction(m_exp, g))
            if not frontier.covered(score):
                feasible = packer.max_parts(vec)
                break
        else:
            return
        for g in range(1, feasible + 1):
            score = (Fraction(a_total, g), Fraction(m_exp, g))
            if frontier.covered(score):
                continue
            combo = dict(combo_items)
            part = partition(
                {_PARAM_ORDER[i]: v for i, v in enumerate(vec) if v}, g, lib
            )
            if part is None:  # pragma: no cover - feasible <= packing count
                continue
            ineq = MonomialInequality(
                combination=combo,
                exponents={_PARAM_ORDER[i]: v
                           for i, v in enumerate(vec) if v},
                constant=_combo_constant(combo),
                n_exp=a_total,
                m_exp=m_exp,
                pattern={},
            )
            frontier.insert(DerivedBound(
                combination=combo,
                inequality=ineq,
                raw_pattern=dict(pattern),
                reductions=apps,
                A=a_total,
                B=m_exp,
                g=g,
                partition=part,
            ))

    def _combo_constant(combo: Combination) -> int:
        c = 1
        for key, mult in combo.items():
            c *= index[key].constant ** mult
        return c

    def t_loop(combo_items, vec, n_exp, m_exp, pattern, remaining) -> bool:
        """Enumerate t1/t2/t3 multiplicities that clear all deficits."""
        nonlocal complete
        deficits = {}
        for pos, v in enumerate(vec):
            if v < 0:
                deficits[_PARAM_ORDER[pos]] = -v
        lower = {1: 0, 2: 0, 3: 0}
        for name, need in deficits.items():
            cover = _T_COVER[name]
            if len(cover) == 1:
                lower[cover[0]] = max(lower[cover[0]], need)
        if sum(lower.values()) > remaining:
            return True
        for a in range(lower[1], remaining + 1):
            for b in range(lower[2], remaining - a + 1):
                for c in range(lower[3], remaining - a - b + 1):
                    if node_limit is not None and examined >= node_limit:
                        complete = False
                        return False
                    supply = {1: a, 2: b, 3: c}
                    ok = all(
                        sum(supply[i] for i in _T_COVER[name]) >= need
                        for name, need in deficits.items()
                    )
                    if not ok:
                        continue
                    tvec = list(vec)
                    for i, mult in supply.items():
                        if mult:
                            for pos in range(_NPARAMS):
                                tvec[pos] += t_vecs[i][pos] * mult
                    tpattern = dict(pattern)
                    titems = list(combo_items)
                    te_n = n_exp
                    te_m = m_exp
                    for i, mult in supply.items():
                        if mult:
                            key = "t%d" % i
                            titems.append((key, mult))
                            tmpl = index[key]
                            te_n += tmpl.n_exp * mult
                            te_m += -tmpl.m_exp * mult
                            sym = "n%d" % i
                            tpattern[sym] = tpattern.get(sym, 0) + mult
                    candidate(tuple(titems), tvec, te_n, te_m, tpattern)
        return True

    def z_loop(idx: int, combo_items, vec, n_exp, pattern, remaining) -> bool:
        if idx == len(z_data) or remaining == 0:
            return t_loop(combo_items, vec, n_exp, 0, pattern, remaining)
        key, lvec, rvec, tmpl = z_data[idx]
        if not z_loop(idx + 1, combo_items, vec, n_exp, pattern, remaining):
            return False
        new_vec = vec
        new_pattern = pattern
        new_n = n_exp
        for mult in range(1, remaining + 1):
            new_vec = [v + l - r for v, l, r in zip(new_vec, lvec, rvec)]
            new_pattern = dict(new_pattern)
            for s, e in tmpl.pattern.items():
                new_pattern[s] = new_pattern.get(s, 0) + e
            new_n += tmpl.n_exp
            new_items = combo_items + ((key, mult),)
            if not z_loop(idx + 1, new_items, new_vec, new_n, new_pattern,
                          remaining - mult):
                return False
        return True

    z_loop(0, (), [0] * _NPARAMS, 0, {}, budget)
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
                      for p in sort_params_list(bound.inequality.exponents)},
        "constant": bound.inequality.constant,
        "A": bound.A,
        "B": bound.B,
        "g": bound.g,
        "raw_pattern": dict(bound.raw_pattern),
        "reductions": [list(app) for app in bound.reductions],
        "partition": {
            "bases": [sort_params_list(base) for base in bound.partition.bases],
            "leftover": dict(bound.partition.leftover),
        },
    }
    return json.dumps(doc, sort_keys=True)


def replay_witness(
    doc: Mapping,
    library: Optional[Sequence[FrozenSet[str]]] = None,
    convention: str = "standard",
) -> DerivedBound:
    """Re-derive a witness document from scratch and cross-check it.

    Runs combine and simplify_pattern on the stored combination, verifies
    the stored exponent vector, constant, A, B, raw pattern, and that the
    stored partition is valid: bases are defining sets, the base sum fits
    under the exponent vector, and leftover matches exactly.
    """
    combo = normalize_combination(doc["combination"])
    raw = combine(combo)
    if dict(raw.pattern) != {k: int(v) for k, v in doc["raw_pattern"].items()}:
        raise InputError("witness raw pattern does not replay")
    simplified = simplify_pattern(raw)
    stored_exp = {k: int(v) for k, v in doc["exponents"].items()}
    if dict(simplified.exponents) != stored_exp:
        raise InputError("witness exponent vector does not replay")
    if simplified.constant != int(doc["constant"]):
        raise InputError("witness constant does not replay")
    if simplified.n_exp != int(doc["A"]) or simplified.m_exp != int(doc["B"]):
        raise InputError("witness A/B do not replay")
    g = int(doc["g"])
    bases = tuple(frozenset(b) for b in doc["partition"]["bases"])
    if len(bases) != g:
        raise InputError("witness partition has %d bases, g=%d"
                         % (len(bases), g))
    vec = _exponent_vector(stored_exp)
    for base in bases:
        if not is_defining(base, convention=convention):
            raise InputError("witness base %s is not defining"
                             % ",".join(sort_params_list(base)))
        for p in base:
            vec[_PARAM_POS[p]] -= 1
            if vec[_PARAM_POS[p]] < 0:
                raise InputError("witness bases exceed the exponent vector "
                                 "at %s" % p)
    leftover = {_PARAM_ORDER[i]: v for i, v in enumerate(vec) if v}
    stored_leftover = {k: int(v)
                       for k, v in doc["partition"]["leftover"].items()}
    if leftover != stored_leftover:
        raise InputError("witness leftover does not replay")
    q, apps = pattern_reductions(raw.pattern)
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


def instantiate(combination: Combination, env: Mapping[str, int]) -> Tuple[int, int]:
    """Cleared integer sides of the combined inequality on one environment."""
    combo = normalize_combination(combination)
    index = inequality_index()
    left = 1
    right = 1
    for key, mult in combo.items():
        tleft, tright = index[key].evaluate_sides(env)
        left *= tleft ** mult
        right *= tright ** mult
    return left, right
