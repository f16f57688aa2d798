"""Representation enumeration: oracle agreement, counts, cap semantics."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from unitfrac.enumeration import (
    MAX_TERMS,
    _tail_divisors,
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


@settings(deadline=None)
@given(st.integers(0, 5).flatmap(
           lambda k: st.integers(1, 6 if k == 5 else 200).flatmap(
               lambda n: st.tuples(st.integers(1, 4 * n), st.just(n),
                                   st.just(k)))))
def test_count_matches_stream(query):
    # the counting recursion against the tuple stream it must agree with
    m, n, k = query
    assume(gcd(m, n) == 1)
    # the tree grows fast as m/n shrinks; keep each example well under 1 s
    assume(k < 4 or 20 * m >= n)
    assume(k < 5 or 4 * m >= n)
    assert count_representations(m, n, k) == sum(
        1 for _ in iter_raw_solutions(m, n, k))


def _tail_oracle(prev, p, q):
    return [d for d in range(1, q + 1)
            if q * q % d == 0 and d % p == -q % p and d >= p * prev - q]


@settings(deadline=None)
@given(st.integers(1, 400).flatmap(
           lambda q: st.tuples(st.integers(1, 2 * q + 3), st.just(q))
       ).flatmap(
           lambda pq: st.tuples(st.integers(1, 3 * pq[1] // pq[0] + 2),
                                st.just(pq[0]), st.just(pq[1]))))
@example((1, 1, 1))
@example((1, 3, 1))  # p > q
@example((5, 2, 3))  # p*prev - q > q: no admissible d
# q = 60: tau(3600) = 45.  With p = 1 the candidates are max(prev - 60, 1)
# ..60, so prev = 75, 76 and 77 give 46, 45 and 44 terms: one past the
# scan's limit (the divisor build), at it and one inside it.  q = 397 is
# prime (tau = 3): p = 2 builds, p = 199 scans.
@example((75, 1, 60))
@example((76, 1, 60))
@example((77, 1, 60))
@example((1, 2, 397))
@example((1, 199, 397))
def test_tail_divisors_match_oracle(query):
    prev, p, q = query
    assume(gcd(p, q) == 1)
    assert sorted(_tail_divisors(prev, p, q)) == _tail_oracle(prev, p, q)


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
        count_representations(1, 0, 3)
    with pytest.raises(InputError):
        count_representations(1, 1, -1)
    with pytest.raises(InputError):
        enumerate_representations(3, 7, 6, cap=-1)
    with pytest.raises(InputError):
        enumerate_naive(3, 7, 6, cap=-1)
