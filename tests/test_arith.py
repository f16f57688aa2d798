"""Integer helpers: fractions, the prime table, factorization, divisors."""

from __future__ import annotations

import math
import random

import pytest
import sympy

from unitfrac import arith


def test_reduce_fraction():
    assert arith.reduce_fraction(2, 4) == (1, 2)
    assert arith.reduce_fraction(3, 7) == (3, 7)
    assert arith.reduce_fraction(12, 30) == (2, 5)
    with pytest.raises(ValueError):
        arith.reduce_fraction(1, 0)


def test_primes_up_to():
    assert arith.primes_up_to(1) == []
    assert arith.primes_up_to(2) == [2]
    assert arith.primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(arith.primes_up_to(10 ** 4)) == 1229


def test_factorize_agrees_with_sympy():
    rng = random.Random(7)
    values = [1, 2, 12, 97, 2 ** 10, 3 * 5 * 7 * 11, 104729 * 2, 600851475143]
    values += [rng.randrange(2, 10 ** 9) for _ in range(50)]
    for n in values:
        fac = arith.factorize(n)
        assert fac == sympy.factorint(n), n
        assert all(sympy.isprime(p) and e >= 1 for p, e in fac.items()), n
    assert arith.factorize(600851475143) == {71: 1, 839: 1, 1471: 1, 6857: 1}
    with pytest.raises(ValueError):
        arith.factorize(0)


def _divisors(n):
    return arith.divisors_from_factorization(arith.factorize(n))


def test_divisors():
    assert _divisors(1) == [1]
    assert _divisors(12) == [1, 2, 3, 4, 6, 12]
    assert _divisors(97) == [1, 97]
    for n in range(1, 200):
        expected = [d for d in range(1, n + 1) if n % d == 0]
        assert _divisors(n) == expected


def test_divisors_from_factorization_limit():
    fac = arith.factorize(360)
    all_divs = arith.divisors_from_factorization(fac)
    assert len(all_divs) == 24
    capped = arith.divisors_from_factorization(fac, limit=10)
    assert capped == [d for d in all_divs if d <= 10]
    assert math.prod(fac[p] + 1 for p in fac) == 24
    for n in range(1, 200):
        expected = [d for d in range(1, n + 1) if n % d == 0]
        assert arith.divisors_from_factorization(
            arith.factorize(n), limit=n // 2) == expected[:-1]
