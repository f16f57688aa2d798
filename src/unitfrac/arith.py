"""Exact integer arithmetic helpers: gcd, factorization, divisor lists.

Everything works on Python ints (arbitrary precision).  No floating point
is used anywhere in this module.

Factorization is plain trial division against a cached prime table, which
is entirely adequate for desk-scale inputs: the enumeration's two-term
tail factors its denominator q and reads the divisors of q^2 off the result.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, List

gcd = math.gcd


def reduce_fraction(m: int, n: int) -> tuple[int, int]:
    """Return m/n in lowest terms. n must be positive."""
    if n <= 0:
        raise ValueError("denominator must be positive, got %r" % (n,))
    if m < 0:
        raise ValueError("numerator must be nonnegative, got %r" % (m,))
    g = math.gcd(m, n)
    return (m // g, n // g) if g else (m, n)


# --- prime table ---------------------------------------------------------

_primes: List[int] = [2, 3, 5, 7, 11, 13]
_sieved_to = 14


def primes_up_to(limit: int) -> List[int]:
    """Primes <= limit, growing a cached sieve as needed."""
    global _primes, _sieved_to
    if limit > _sieved_to:
        new_limit = max(limit, 2 * _sieved_to)
        sieve = bytearray([1]) * (new_limit + 1)
        sieve[0:2] = b"\x00\x00"
        for p in range(2, math.isqrt(new_limit) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
        _primes = [i for i, f in enumerate(sieve) if f]
        _sieved_to = new_limit
    if _primes and _primes[-1] <= limit:
        return _primes
    return _primes[: bisect.bisect_right(_primes, limit)]


# --- factorization and divisors ------------------------------------------

Factorization = Dict[int, int]


def factorize(n: int) -> Factorization:
    """Prime factorization of n >= 1 by trial division, {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize expects n >= 1, got %r" % (n,))
    out: Factorization = {}
    if n == 1:
        return out
    for p in primes_up_to(math.isqrt(n)):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        if n == 1:
            return out
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors_from_factorization(fac: Factorization, limit: int | None = None) -> List[int]:
    """Sorted divisors of the factored number, optionally only those <= limit."""
    divs = [1]
    for p, e in fac.items():
        pk = 1
        powers = []
        for _ in range(e):
            pk *= p
            powers.append(pk)
        divs += [d * pk for d in divs for pk in powers]
    if limit is not None:
        divs = [d for d in divs if d <= limit]
    divs.sort()
    return divs
