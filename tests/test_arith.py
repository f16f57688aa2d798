"""Integer helpers: fraction reduction and factorization."""

from __future__ import annotations

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

