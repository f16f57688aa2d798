"""Enumerate representations of m/n as a sum of k unit fractions.

A representation is a nondecreasing tuple (a_1 <= ... <= a_k) with
1/a_1 + ... + 1/a_k = m/n.  Enumeration is depth-first in lexicographic
order.  At a node with j fractions left and remainder p/q (reduced), the
next denominator a satisfies

    max(previous, floor(q/p) + 1)  <=  a  <=  floor(j*q/p),

and the final two denominators are read off from the divisors of q^2 via
(p*a - q)(p*b - q) = q^2 instead of a scan.  The divisors up to q are
built from the factorization of q, and only those giving an integral
a >= previous are kept.  A plain scanning tail is kept as an independent
oracle (enumerate_naive) for equivalence testing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterator, List, Tuple

from .arith import factorize, reduce_fraction
from .errors import InputError

MAX_TERMS = 6


@dataclass(frozen=True)
class SolutionTuple:
    """A single representation; validates itself on construction."""

    denominators: Tuple[int, ...]
    fraction: Fraction

    def __post_init__(self):
        if any(a <= 0 for a in self.denominators):
            raise ValueError("denominators must be positive")
        if any(a > b for a, b in zip(self.denominators, self.denominators[1:])):
            raise ValueError("denominators must be nondecreasing")
        if sum(Fraction(1, a) for a in self.denominators) != self.fraction:
            raise ValueError(
                "denominators %r do not sum to %s" % (self.denominators, self.fraction)
            )

    def __iter__(self):
        return iter(self.denominators)

    def __len__(self):
        return len(self.denominators)


@dataclass
class EnumerationResult:
    fraction: Fraction
    k: int
    solutions: List[SolutionTuple]
    complete: bool = True


def _check_query(m: int, n: int, k: int) -> Tuple[int, int]:
    if not (0 <= k <= MAX_TERMS):
        raise InputError("k must be between 0 and %d, got %r" % (MAX_TERMS, k))
    if m < 1:
        raise InputError("numerator must be >= 1, got %r" % (m,))
    return reduce_fraction(m, n)


def _tail_pairs(prev: int, p: int, q: int) -> List[Tuple[int, int]]:
    # 1/a + 1/b = p/q, prev <= a <= b, via (p*a - q)(p*b - q) = q^2.
    # d = p*a - q runs over the divisors of q^2 up to q, built from the
    # factorization of q; a product d * pr^i is formed only when it stays
    # <= q.  Only those with d = -q (mod p) and a >= prev are kept, and
    # sorting the pairs by a puts them in lexicographic order.
    divs = [1]
    for pr, e in factorize(q).items():
        grown = []
        pk = 1
        for _ in range(2 * e):
            pk *= pr
            if pk > q:
                break
            lim = q // pk
            grown += [d * pk for d in divs if d <= lim]
        divs += grown
    qq = q * q
    lo = p * prev - q
    r = -q % p
    pairs = [((d + q) // p, (qq // d + q) // p)
             for d in divs if d >= lo and d % p == r]
    pairs.sort()
    return pairs


def _iter_raw(prev: int, p: int, q: int, j: int, divisor_tail: bool) -> Iterator[tuple]:
    if j == 1:
        if q % p == 0 and q // p >= prev:
            yield (q // p,)
        return
    if j == 2 and divisor_tail:
        yield from _tail_pairs(prev, p, q)
        return
    lo = max(prev, q // p + 1)
    hi = (j * q) // p
    if j == 2:
        # scanning oracle tail
        for a in range(lo, hi + 1):
            num = p * a - q
            den = q * a
            if den % num == 0 and den // num >= a:
                yield (a, den // num)
        return
    for a in range(lo, hi + 1):
        np_, nq = p * a - q, q * a
        g = gcd(np_, nq)
        for tail in _iter_raw(a, np_ // g, nq // g, j - 1, divisor_tail):
            yield (a,) + tail


def iter_raw_solutions(m: int, n: int, k: int, divisor_tail: bool = True) -> Iterator[tuple]:
    """Lexicographic stream of solution tuples (no wrapping, no cap)."""
    p, q = _check_query(m, n, k)
    if k == 0:
        return iter(())
    return _iter_raw(1, p, q, k, divisor_tail)


def _collect(m: int, n: int, k: int, cap, divisor_tail: bool) -> EnumerationResult:
    p, q = _check_query(m, n, k)
    if cap is not None and cap < 0:
        raise InputError("cap must be >= 0, got %d" % cap)
    frac = Fraction(p, q)
    sols: List[SolutionTuple] = []
    complete = True
    if k > 0:
        for tup in _iter_raw(1, p, q, k, divisor_tail):
            if cap is not None and len(sols) == cap:
                complete = False
                break
            sols.append(SolutionTuple(tup, frac))
    return EnumerationResult(frac, k, sols, complete)


def enumerate_representations(m: int, n: int, k: int, cap: int | None = None) -> EnumerationResult:
    """All representations of m/n as k unit fractions, lex order.

    With cap (>= 0), at most cap solutions are returned and .complete goes
    False when the enumeration was truncated.
    """
    return _collect(m, n, k, cap, divisor_tail=True)


def enumerate_naive(m: int, n: int, k: int, cap: int | None = None) -> EnumerationResult:
    """Oracle: same bounded recursion, but the last two denominators are
    found by scanning instead of the divisor factorization."""
    return _collect(m, n, k, cap, divisor_tail=False)


def count_representations(m: int, n: int, k: int) -> int:
    """Number of representations, streaming (nothing materialized)."""
    total = 0
    for _ in iter_raw_solutions(m, n, k):
        total += 1
    return total
