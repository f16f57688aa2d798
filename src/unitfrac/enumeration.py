"""Enumerate representations of m/n as a sum of k unit fractions.

A representation is a nondecreasing tuple (a_1 <= ... <= a_k) with
1/a_1 + ... + 1/a_k = m/n.  Enumeration is depth-first in lexicographic
order.  At a node with j fractions left and remainder p/q (reduced), the
next denominator a satisfies

    max(previous, floor(q/p) + 1)  <=  a  <=  floor(j*q/p),

and the final two denominators are read off from the divisors d of q^2
via (p*a - q)(p*b - q) = q^2.  The d <= q that give an integral
a >= previous form a progression of step p.  When it has at most tau(q^2)
terms (tau counts divisors), it is scanned for divisors of q^2;
otherwise the divisors up to q are built from the factorization of q and
filtered.  Both cost O(tau(q^2)), so the scan is never asymptotically
worse than the build.  The tests hold an independent oracle that scans
every a instead and never reduces the remainder.

count_representations runs the same recursion on ints.  It settles each
two-term tail in one call from one factorization of q, counting the
admissible divisors instead of turning them into pairs; an unbounded
build is counted by residue class mod p without listing any.  A node with
three or more terms left is counted once per call: a repeat reads its
count from a dict that lives for that one call.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterator, List, NamedTuple, Tuple

from .arith import factorize, reduce_fraction
from .errors import check_integer

MAX_TERMS = 6


class SolutionTuple:
    """A single representation; validates itself on construction.

    Immutable; it iterates and measures its denominators, and equals another
    SolutionTuple with the same denominators and fraction.
    """

    __slots__ = ("denominators", "fraction")

    def __init__(self, denominators: Tuple[int, ...], fraction: Fraction):
        if any(a <= 0 for a in denominators):
            raise ValueError("denominators must be positive")
        if any(a > b for a, b in zip(denominators, denominators[1:])):
            raise ValueError("denominators must be nondecreasing")
        if sum(Fraction(1, a) for a in denominators) != fraction:
            raise ValueError(
                "denominators %r do not sum to %s" % (denominators, fraction)
            )
        object.__setattr__(self, "denominators", denominators)
        object.__setattr__(self, "fraction", fraction)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):  # pickle and copy without __setattr__
        return self.__class__, (self.denominators, self.fraction)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.denominators, self.fraction)
                == (other.denominators, other.fraction))

    def __hash__(self):
        return hash((self.denominators, self.fraction))

    def __repr__(self):
        return "%s(denominators=%r, fraction=%r)" % (
            self.__class__.__qualname__, self.denominators, self.fraction)

    def __iter__(self):
        return iter(self.denominators)

    def __len__(self):
        return len(self.denominators)


class EnumerationResult(NamedTuple):
    fraction: Fraction
    k: int
    solutions: List[SolutionTuple]
    complete: bool = True


def _check_query(m: int, n: int, k: int) -> Tuple[int, int]:
    check_integer(k, "k", 0, MAX_TERMS)
    check_integer(m, "numerator", 1)
    check_integer(n, "denominator", 1)
    return reduce_fraction(m, n)


def _scan(first: int, p: int, q: int) -> List[int]:
    # The divisors of q^2 among first, first + p, ... up to q, ascending.
    qq = q * q
    return [d for d in range(first, q + 1, p) if qq % d == 0]


def _build(fac: dict, p: int, q: int, r: int, lo: int) -> List[int]:
    # The divisors d of q^2 with lo <= d <= q and d = r (mod p), built from
    # the factorization of q and filtered, in no particular order.  A
    # product d * pr^i is formed only when it stays <= q, so each power of
    # pr multiplies only the survivors of the one below it.
    divs = [1]
    for pr, e in fac.items():
        lim = q // pr
        grown = divs
        for _ in range(2 * e):
            grown = [d * pr for d in grown if d <= lim]
            if not grown:
                break
            divs += grown
    return [d for d in divs if d % p == r and d >= lo]


def _class_count(fac: dict, p: int, r: int) -> int:
    """len(_build(fac, p, q, r, 1)) for the q that fac factors, with
    r = -q mod p and p > 2, without listing any divisor.

    d -> q^2/d swaps the divisors of q^2 below q with those above it and
    keeps the class of -q, because (-q)(-q) = q^2; d = q lies in that
    class exactly when p | 2q, that is when p <= 2.  So the count is
    (N + [p <= 2]) / 2 for N = #{d | q^2 : d = -q (mod p)}, and
    N = tau(q^2) when p <= 2.  For p > 2, N is a meet in the middle: the
    prime powers of q are split into halves A and B of about sqrt(tau)
    divisors each, and d = d_A * d_B is in the class when
    d_A = -q * d_B^-1 (mod p); the inverse exists since gcd(p, q) = 1.
    That is about 2 sqrt(tau) residue products where the build takes
    (tau + 1) / 2 products and a filter.
    """
    left, right = [1], [r]  # residues of d_A, and of -q * d_B^-1
    for pr, e in fac.items():
        if len(left) <= len(right):
            side, x = left, pr % p
        else:
            side, x = right, pow(pr, -1, p)
        side += [d * x ** i % p for i in range(1, 2 * e + 1) for d in side]
    hits = {}
    for d in left:
        hits[d] = hits.get(d, 0) + 1
    return sum([hits[d] for d in right if d in hits]) // 2


def _tail_divisors(prev: int, p: int, q: int) -> List[int]:
    # 1/a + 1/b = p/q, prev <= a <= b, via (p*a - q)(p*b - q) = q^2.
    # d = p*a - q runs over the divisors of q^2 with d <= q, d = -q (mod p)
    # and d >= p*prev - q (a >= prev); each one gives exactly one pair
    # (a, b).  The candidates that meet the last three conditions form a
    # progression of step p.  When it has at most tau(q^2) terms, it is
    # scanned; otherwise the (tau(q^2) + 1) / 2 divisors up to q are built.
    # Either branch takes O(tau(q^2)) steps, so the scan is never
    # asymptotically worse than the build.  A scan step is one remainder; a
    # built divisor costs a product and a comparison, then a remainder and
    # a comparison in the filter, so the two break even near tau(q^2)
    # terms.  In interleaved timings of the count workload that cut-off
    # beat tau/2 + 1, 2*tau and 3*tau.
    fac = factorize(q)
    tau = 1
    for e in fac.values():
        tau *= 2 * e + 1
    lo = max(p * prev - q, 1)
    r = -q % p
    first = lo + (r - lo) % p
    if (q - first) // p < tau:
        return _scan(first, p, q)
    return _build(fac, p, q, r, lo)


def _tail_count(prev: int, p: int, q: int) -> int:
    """len(_tail_divisors(prev, p, q)) by the same test from one
    factorization of q; an unbounded build (lo = 1) counts residues."""
    fac = factorize(q)
    tau = 1
    for e in fac.values():
        tau *= 2 * e + 1
    lo = max(p * prev - q, 1)
    r = -q % p
    first = lo + (r - lo) % p
    if (q - first) // p < tau:
        return len(_scan(first, p, q))
    if lo > 1:
        return len(_build(fac, p, q, r, lo))
    return (tau + 1) // 2 if p <= 2 else _class_count(fac, p, r)


def _iter_raw(prev: int, p: int, q: int, j: int) -> Iterator[tuple]:
    if j == 1:
        if q % p == 0 and q // p >= prev:
            yield (q // p,)
        return
    if j == 2:
        # sorting the pairs by a puts them in lexicographic order
        qq = q * q
        yield from sorted(((d + q) // p, (qq // d + q) // p)
                          for d in _tail_divisors(prev, p, q))
        return
    for a in range(max(prev, q // p + 1), (j * q) // p + 1):
        np_, nq = p * a - q, q * a
        g = gcd(np_, nq)
        for tail in _iter_raw(a, np_ // g, nq // g, j - 1):
            yield (a,) + tail


def _collect(m: int, n: int, k: int, cap, walk) -> EnumerationResult:
    p, q = _check_query(m, n, k)
    if cap is not None:
        check_integer(cap, "cap", 0)
    frac = Fraction(p, q)
    sols: List[SolutionTuple] = []
    complete = True
    if k > 0:
        for tup in walk(1, p, q, k):
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
    return _collect(m, n, k, cap, _iter_raw)


def _count(prev: int, p: int, q: int, j: int, memo: dict) -> int:
    # _iter_raw, returning how many tuples it would yield instead of
    # yielding them.  The count of a node with j >= 3 depends only on j,
    # p, q and its first a, so memo keeps it under that key.
    if j == 1:
        return 1 if q % p == 0 and q // p >= prev else 0
    if j == 2:
        return _tail_count(prev, p, q)
    start = max(prev, q // p + 1)
    key = (j, p, q, start)
    if key in memo:
        return memo[key]
    total = 0
    for a in range(start, (j * q) // p + 1):
        np_, nq = p * a - q, q * a
        g = gcd(np_, nq)
        if j == 3:
            total += _tail_count(a, np_ // g, nq // g)
        else:
            total += _count(a, np_ // g, nq // g, j - 1, memo)
    memo[key] = total
    return total


def count_representations(m: int, n: int, k: int) -> int:
    """Number of representations, counted without building any tuple."""
    p, q = _check_query(m, n, k)
    return _count(1, p, q, k, {}) if k else 0
