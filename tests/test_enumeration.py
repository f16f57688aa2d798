"""Representation enumeration: oracle agreement, counts, cap semantics."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from unitfrac import enumeration
from unitfrac.enumeration import (
    MAX_TERMS,
    SolutionTuple,
    _iter_raw,
    _tail_count,
    _tail_divisors,
    count_representations,
    enumerate_representations,
)
from unitfrac.errors import InputError

from oracles import _iter_scan, enumerate_naive


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
    assert list(_iter_raw(1, m, n, k)) == list(_iter_scan(1, m, n, k))


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
        1 for _ in _iter_raw(1, m, n, k))


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


# Counting mode.  A tail with no lower bound (lo = 1) that _tail_divisors
# would build is counted without it: by (tau(q^2) + 1) / 2 when p <= 2,
# otherwise by residue class over a split of q's prime powers.  Any other
# tail counts the list of _tail_divisors' branch: the scan or the bounded
# build.
_CLOSED_FORM = ((1, 1, 60), (1, 2, 397), (1, 2, 225))
# 138 = 2*3*23, 385 = 5*7*11, 770, 3600 = 2^4*3^2*5^2 and 10010 put primes
# in both halves of the split; 256 = 2^8 and 243 = 3^5 leave one empty.
# (1, 5, 138) has 28 candidates against tau(138^2) = 27: the first that
# builds.
_RESIDUE_COUNT = ((1, 5, 138), (1, 3, 385), (1, 13, 385), (1, 3, 770),
                  (1, 7, 3600), (1, 37, 10010), (1, 3, 256), (1, 5, 243))
# Bounded builds: lo = 15 with 46 candidates against tau(60^2) = 45, and
# lo = 5 with 514 candidates against tau(3600^2) = 225.
_BOUNDED_BUILD = ((75, 1, 60), (515, 7, 3600))
# Scans: (76, 1, 60) has 45 candidates, (1, 7, 186) has 27 against
# tau(186^2) = 27, and q = 420 has tau(q^2) = 135, so p = 11 .. 19 leave
# at most 38 candidates.
_SCAN = ((76, 1, 60), (1, 199, 397), (1, 7, 186), (1, 11, 420),
         (1, 13, 420), (1, 17, 420), (1, 19, 420))
_LISTED = _BOUNDED_BUILD + _SCAN


def _with_examples(queries):
    def add(test):
        for query in queries:
            test = example(query)(test)
        return test
    return add


@settings(deadline=None)
@given(st.integers(1, 400).flatmap(
           lambda q: st.tuples(st.integers(1, 2 * q + 3), st.just(q))
       ).flatmap(
           lambda pq: st.tuples(st.integers(1, 3 * pq[1] // pq[0] + 2),
                                st.just(pq[0]), st.just(pq[1]))))
@_with_examples(((1, 1, 1), (1, 3, 1), (5, 2, 3), *_CLOSED_FORM,
                 *_RESIDUE_COUNT, *_LISTED))
def test_tail_count_matches_oracle(query):
    prev, p, q = query
    assume(gcd(p, q) == 1)
    assert _tail_count(prev, p, q) == len(_tail_oracle(prev, p, q))


def _spy(monkeypatch, calls, *names):
    # record the name of each call to the named functions of enumeration
    for name in names:
        inner = getattr(enumeration, name)
        monkeypatch.setattr(
            enumeration, name,
            lambda *args, name=name, inner=inner: calls.append(name)
            or inner(*args))


def test_tail_count_examples_take_the_branch_they_name(monkeypatch):
    # Each branch but the closed form calls its own helper: _scan and
    # _build, which _tail_divisors shares, and _class_count.  The closed
    # form calls none of them, and every tail factors q once.
    calls = []
    _spy(monkeypatch, calls, "factorize", "_scan", "_build", "_class_count")
    for queries, branch in ((_CLOSED_FORM, []),
                            (_RESIDUE_COUNT, ["_class_count"]),
                            (_SCAN, ["_scan"]),
                            (_BOUNDED_BUILD, ["_build"])):
        for query in queries:
            calls.clear()
            assert _tail_count(*query) == len(_tail_oracle(*query)), query
            assert calls == ["factorize"] + branch, query


@pytest.mark.parametrize("m, n, k", [(1, 1, 6), (1, 2, 5), (2, 3, 5)])
def test_count_matches_stream_where_the_memo_hits(monkeypatch, m, n, k):
    # the stream settles every two-term tail it meets; the count settles
    # fewer, because it meets some nodes again and reads their counts
    calls = []
    _spy(monkeypatch, calls, "_tail_divisors", "_tail_count")
    assert count_representations(m, n, k) == sum(
        1 for _ in _iter_raw(1, m, n, k))
    assert 0 < calls.count("_tail_count") < calls.count("_tail_divisors")


def test_count_memo_lives_for_one_call(monkeypatch):
    calls = []
    _spy(monkeypatch, calls, "_tail_count")
    first = count_representations(1, 1, 6)
    tails = len(calls)
    assert count_representations(1, 1, 6) == first == 3462
    assert len(calls) == 2 * tails > 0


@pytest.mark.parametrize("m, n", [(1, 3), (2, 5), (3, 7)])
def test_count_matches_stream_on_long_unbounded_tails(m, n):
    # f_5 of each settles 649 to 1,093 unbounded tails without listing
    # them, where the stream lists every divisor
    assert count_representations(m, n, 5) == sum(
        1 for _ in _iter_raw(1, m, n, 5))


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


def test_solution_tuple_checks_itself_and_is_an_immutable_value():
    sol = SolutionTuple((2, 3, 6), Fraction(1))
    same = SolutionTuple((2, 3, 6), Fraction(1))
    assert sol == same and hash(sol) == hash(same)
    assert sol != SolutionTuple((2, 4, 4), Fraction(1))
    assert sol != (2, 3, 6)  # a value of its own, not a tuple
    assert list(sol) == [2, 3, 6] and len(sol) == 3
    assert repr(sol) == (
        "SolutionTuple(denominators=(2, 3, 6), fraction=Fraction(1, 1))")
    assert copy.copy(sol) == sol == pickle.loads(pickle.dumps(sol))
    for name in ("denominators", "fraction", "other"):
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(sol, name, 1)
    with pytest.raises(AttributeError, match="cannot delete"):
        del sol.fraction
    assert sol.denominators == (2, 3, 6) and sol.fraction == 1
    for bad in (((0, 3, 6), 1), ((3, 2, 6), 1), ((2, 3, 7), 1)):
        with pytest.raises(ValueError):
            SolutionTuple(*bad)


def test_non_integer_arguments_are_input_errors():
    for bad in (4.0, 2.5, True, False):
        for call in (count_representations, enumerate_representations,
                     enumerate_naive):
            for args in ((bad, 7, 3), (3, bad, 3), (3, 7, bad)):
                with pytest.raises(InputError, match="must be an integer"):
                    call(*args)
        with pytest.raises(InputError, match="cap must be an integer"):
            enumerate_representations(3, 7, 3, cap=bad)
    # the message names the argument, a str is no integer either
    for bad in (2.5, True, "3"):
        for args, name in (((bad, 7, 3), "numerator"),
                           ((3, bad, 3), "denominator"), ((3, 7, bad), "k")):
            with pytest.raises(InputError, match=name + " must be an integer"):
                count_representations(*args)
        with pytest.raises(InputError, match="cap must be an integer >= 0"):
            enumerate_naive(3, 7, 3, cap=bad)
