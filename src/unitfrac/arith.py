"""Exact integer arithmetic helpers: fraction reduction and factorization.

Everything works on Python ints (arbitrary precision).  No floating point
is used anywhere in this module.

Factorization is plain trial division by 2 and then by odd numbers, which
is entirely adequate for desk-scale inputs: the enumeration's two-term
tail factors its denominator q and builds the divisors of q^2 from the
result.
"""

from __future__ import annotations

import math
from typing import Dict


def reduce_fraction(m: int, n: int) -> tuple[int, int]:
    """Return m/n in lowest terms. n must be positive."""
    if n <= 0:
        raise ValueError("denominator must be positive, got %r" % (n,))
    if m < 0:
        raise ValueError("numerator must be nonnegative, got %r" % (m,))
    g = math.gcd(m, n)
    return (m // g, n // g) if g else (m, n)


def factorize(n: int) -> Dict[int, int]:
    """Prime factorization of n >= 1 by trial division, {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize expects n >= 1, got %r" % (n,))
    out: Dict[int, int] = {}
    twos = (n & -n).bit_length() - 1
    if twos:
        out[2] = twos
        n >>= twos
    p = 3
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
        p += 2
    if n > 1:
        out[n] = 1
    return out
