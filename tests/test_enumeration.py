"""Representation enumeration: oracle agreement, counts, cap semantics."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from unitfrac.enumeration import (
    MAX_TERMS,
    count_representations,
    enumerate_naive,
    enumerate_representations,
    iter_raw_solutions,
)
from unitfrac.errors import InputError


def test_known_counts():
    # f_k(1, 1) is OEIS A002966: 1, 1, 3, 14, 147, 3462
    assert count_representations(1, 1, 1) == 1
    assert count_representations(1, 1, 2) == 1
    assert count_representations(1, 1, 3) == 3
    assert count_representations(1, 1, 4) == 14
    assert count_representations(1, 1, 5) == 147
    assert count_representations(1, 1, 6) == 3462
    assert count_representations(1, 2, 5) == 2892


def test_unit_fraction_base_cases():
    assert count_representations(1, 1, 1) == 1
    assert count_representations(2, 1, 1) == 0
    assert count_representations(1, 7, 1) == 1
    assert count_representations(1, 1, 0) == 0
    assert count_representations(3, 1, 0) == 0


def test_exact_solutions_three_terms():
    result = enumerate_representations(1, 1, 3)
    assert [tuple(s) for s in result.solutions] == [
        (2, 3, 6), (2, 4, 4), (3, 3, 3)]
    assert result.complete
    assert result.fraction == Fraction(1, 1)


def test_solutions_are_sorted_and_valid():
    result = enumerate_representations(3, 7, 4)
    seen = [tuple(s) for s in result.solutions]
    assert seen == sorted(seen)
    assert len(set(seen)) == len(seen)
    for sol in result.solutions:
        assert all(a <= b for a, b in zip(sol.denominators,
                                          sol.denominators[1:]))
        assert sum(Fraction(1, a) for a in sol) == Fraction(3, 7)


def test_oracle_agreement_small():
    for n in range(1, 13):
        for m in range(1, 4 * n + 1):
            if gcd(m, n) != 1:
                continue
            for k in range(0, 5):
                fast = [tuple(s)
                        for s in enumerate_representations(m, n, k).solutions]
                naive = [tuple(s)
                         for s in enumerate_naive(m, n, k).solutions]
                assert fast == naive, (m, n, k)


@settings(deadline=None)
@given(st.integers(1, 300).flatmap(
           lambda n: st.tuples(st.integers(1, 4 * n), st.just(n))),
       st.sampled_from((2, 3)))
def test_divisor_tail_keeps_lexicographic_order(fraction, k):
    m, n = fraction
    assume(gcd(m, n) == 1)
    assert list(iter_raw_solutions(m, n, k)) == list(
        iter_raw_solutions(m, n, k, divisor_tail=False))


def test_non_reduced_input_equals_reduced():
    assert count_representations(2, 4, 4) == count_representations(1, 2, 4)
    left = [tuple(s) for s in enumerate_representations(6, 9, 3).solutions]
    right = [tuple(s) for s in enumerate_representations(2, 3, 3).solutions]
    assert left == right


def test_cap_truncates_prefix():
    full = enumerate_representations(1, 1, 4)
    capped = enumerate_representations(1, 1, 4, cap=5)
    assert not capped.complete
    assert len(capped.solutions) == 5
    assert [tuple(s) for s in capped.solutions] == [
        tuple(s) for s in full.solutions[:5]]
    exact = enumerate_representations(1, 1, 4, cap=14)
    assert exact.complete
    assert len(exact.solutions) == 14


def test_zero_when_fraction_too_large():
    # k unit fractions sum to at most k
    assert count_representations(5, 1, 4) == 0
    assert count_representations(4, 1, 4) == 1  # all ones
    assert count_representations(9, 2, 4) == 0


def test_denominator_size_bound():
    # last denominator of a k-term representation of m/n is at most
    # the k-fold iterated worst case; check the crude k=3 bound holds
    result = enumerate_representations(1, 1, 3)
    assert max(max(s) for s in result.solutions) == 6


def test_input_validation():
    with pytest.raises(InputError):
        enumerate_representations(1, 1, MAX_TERMS + 1)
    with pytest.raises(InputError):
        enumerate_representations(0, 1, 3)
    with pytest.raises(ValueError):
        enumerate_representations(1, 0, 3)
    with pytest.raises(InputError):
        count_representations(1, 1, -1)
    with pytest.raises(InputError):
        enumerate_representations(3, 7, 6, cap=-1)
    with pytest.raises(InputError):
        enumerate_naive(3, 7, 6, cap=-1)
