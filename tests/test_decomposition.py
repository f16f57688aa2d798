"""Pattern / relative-gcd decomposition of 4-term solutions."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitfrac import params as P
from unitfrac.decomposition import (
    INCOMPARABLE_PAIRS,
    decompose,
    pattern_data,
    pattern_of,
    reconstruct,
    relative_gcds,
    verify,
)
from unitfrac.enumeration import enumerate_representations
from unitfrac.errors import InputError, IntegralityError
from unitfrac.sweep import checker_source


def test_pattern_of():
    assert pattern_of((2, 4, 6, 12), 1) == (1, 1, 1, 1)
    assert pattern_of((4, 8, 10, 40), 2) == (2, 2, 2, 2)
    assert pattern_of((3, 12, 14, 28), 7) == (1, 1, 7, 7)


def test_relative_gcds_reconstruct_cofactors():
    x = relative_gcds((2, 4, 6, 12))
    # every cofactor is the product of its containing x-parameters
    for i, t in enumerate((2, 4, 6, 12), start=1):
        product = 1
        for name, value in x.items():
            if str(i) in name[1:]:
                product *= value
        assert product == t
    assert x["x1"] == x["x2"] == x["x3"] == x["x4"] == 1


def test_incomparable_pairs_count():
    assert len(INCOMPARABLE_PAIRS) == 33


def test_worked_example():
    dec = decompose((2, 4, 6, 12), 1)
    assert dec.m == 1 and dec.n == 1
    assert dec.pattern == (1, 1, 1, 1)
    assert dec.t == (2, 4, 6, 12)
    assert dec.terms == (6, 3, 2, 1)
    assert dec.m * dec.master_product() == sum(dec.terms) == 12
    assert dec.x["x24"] == 2 and dec.x["x34"] == 3 and dec.x["x1234"] == 2
    assert dec.z["z34"] == 1 and dec.z["z234"] == 1 and dec.z["z123"] == 11
    assert reconstruct(dec) == (2, 4, 6, 12)


def test_worked_example_verify_report():
    report = verify(decompose((2, 4, 6, 12), 1))
    assert report.passed
    detail = {c.name: c.detail for c in report.checks}
    assert detail["master"] == "12 = 6 + 3 + 2 + 1"
    assert detail["ineq:z234"] == "2 <= 3"
    assert detail["ineq:t1"] == "2 <= 4"


def test_both_conventions_on_q_half_solution():
    std = decompose((4, 8, 10, 40), Fraction(1, 2))
    assert std.pattern == (2, 2, 2, 2)
    assert std.z["z12"] == 3
    assert reconstruct(std) == (4, 8, 10, 40)
    # the further-divided pair quotient is 3/5 here: not an integer
    with pytest.raises(IntegralityError) as err:
        decompose((4, 8, 10, 40), Fraction(1, 2), convention="reduced")
    assert err.value.param == "z12"
    assert (err.value.numerator, err.value.denominator) == (15, 25)


def test_reduced_convention_when_integral():
    std = decompose((2, 4, 6, 12), 1)
    red = decompose((2, 4, 6, 12), 1, convention="reduced")
    assert red.t == std.t and red.x == std.x
    for pair, (i, j, k, l) in (("z12", (1, 2, 3, 4)), ("z34", (3, 4, 1, 2))):
        kl = "x%d%d" % (min(k, l), max(k, l))
        assert std.z[pair] == red.z[pair] * std.x[kl]
    # triple quotients do not depend on the convention
    for name in ("z123", "z124", "z134", "z234"):
        assert red.z[name] == std.z[name]


def test_roundtrip_over_enumerated_solutions():
    for m, n in ((1, 1), (3, 7), (4, 9), (5, 6)):
        for sol in enumerate_representations(m, n, 4).solutions:
            dec = decompose(tuple(sol), Fraction(m, n))
            assert reconstruct(dec) == tuple(sol)
            assert dec.m * dec.master_product() == sum(dec.terms)
            assert verify(dec).passed


def test_env_contains_all_symbols():
    env = decompose((2, 4, 6, 12), 1).env()
    for key in ("m", "n", "mT", "n1", "nn1", "d12", "d234", "x12", "x1234",
                "z12", "z234", "term1", "term4"):
        assert key in env
    assert env["mT"] == sum(env["term%d" % i] for i in (1, 2, 3, 4))


def test_coprimality_of_incomparable_pairs_holds_on_samples():
    for m, n in ((1, 1), (2, 5), (3, 4)):
        for sol in enumerate_representations(m, n, 4).solutions[:40]:
            dec = decompose(tuple(sol), Fraction(m, n))
            for a, b in INCOMPARABLE_PAIRS:
                assert gcd(dec.x[a], dec.x[b]) == 1


def test_input_validation():
    with pytest.raises(InputError):
        decompose((4, 2, 6, 12), 1)  # not nondecreasing
    with pytest.raises(InputError):
        decompose((2, 4, 6), 1)  # wrong arity
    with pytest.raises(InputError):
        decompose((2, 4, 6, 13), 1)  # wrong sum
    with pytest.raises(InputError):
        decompose((2, 4, 6, 12), 1, convention="other")


def test_non_integer_arguments_are_input_errors():
    bads = [2.5, True, "3"]
    try:
        import numpy
    except ImportError:  # numpy is not a dependency
        pass
    else:
        bads.append(numpy.int64(2))
    for bad in bads:
        with pytest.raises(InputError,
                           match=r"denominators\[0\] must be an integer"):
            decompose((bad, 4, 6, 12), 1)
        with pytest.raises(InputError,
                           match=r"denominators\[0\] must be an integer"):
            pattern_of((bad, 4, 6, 12), 5)
        with pytest.raises(InputError, match="n must be an integer >= 1"):
            pattern_of((2, 4, 6, 12), bad)
        with pytest.raises(InputError, match=r"t\[0\] must be an integer"):
            relative_gcds((bad, 4, 6, 12))
    # a float that happens to be whole is refused too, not truncated
    with pytest.raises(InputError):
        relative_gcds((2.0, 4, 6, 12))


def test_decompose_takes_only_an_int_or_a_fraction():
    # Fraction() would read a whole float, a bool or a string as 1, and
    # raise TypeError, ValueError or ZeroDivisionError on None, nan, "1/0"
    for bad in (1.0, True, "1", None, float("nan"), "1/0", 1 + 0j):
        with pytest.raises(InputError, match="fraction must be an int or"):
            decompose((2, 4, 6, 12), bad)
    assert decompose((2, 4, 6, 12), 1) == decompose((2, 4, 6, 12),
                                                    Fraction(1))


def test_pattern_of_refuses_non_positive_denominators():
    # gcd(0, 3) = 3: without a lower bound a zero denominator gives a value
    for bad in (0, -2):
        with pytest.raises(InputError,
                           match=r"denominators\[0\] must be an integer >= 1"):
            pattern_of((bad, 2), 3)


# Numbers built from small primes share factors often, so the gcd lattice of
# four of them has many nontrivial layers; plain integers rarely do.
_SMOOTH = st.lists(st.sampled_from((2, 3, 5, 7)), max_size=12).map(math.prod)
_NUMBER = st.one_of(_SMOOTH, st.integers(min_value=1, max_value=10**6),
                    st.builds(lambda a, b: a * b, _SMOOTH,
                              st.integers(min_value=1, max_value=60)))
_SUBSETS = [J for r in range(1, 5) for J in combinations(P.INDICES, r)]


@given(st.tuples(_NUMBER, _NUMBER, _NUMBER, _NUMBER))
def test_relative_gcds_factor_every_subset_gcd(t):
    x = relative_gcds(t)
    assert len(x) == len(_SUBSETS)
    for J in _SUBSETS:
        above = [x[P.x_name(K)] for K in _SUBSETS if set(J) <= set(K)]
        assert math.prod(above) == math.gcd(*(t[i - 1] for i in J))
    for a, b in INCOMPARABLE_PAIRS:
        assert gcd(x[a], x[b]) == 1


@settings(deadline=None)
@given(st.lists(_NUMBER, min_size=4, max_size=4).map(sorted).map(tuple))
def test_decompose_inverts_on_own_sum(a):
    total = sum(Fraction(1, v) for v in a)
    dec = decompose(a, total)
    assert reconstruct(dec) == a
    assert verify(dec).passed, str(verify(dec))
    try:
        red = decompose(a, total, convention="reduced")
    except IntegralityError:
        return
    assert red.x == dec.x and red.terms == dec.terms
    assert reconstruct(red) == a


_SOLUTIONS = [(Fraction(m, n), tuple(sol))
              for m, n in ((1, 1), (3, 7), (5, 6), (2, 5))
              for sol in enumerate_representations(m, n, 4).solutions]
_FIELDS = [("x", p) for p in P.X_PARAMS] + [("t", i) for i in range(4)]


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(_SOLUTIONS), st.sampled_from(P.CONVENTIONS),
       st.sampled_from(_FIELDS), st.integers(min_value=1, max_value=60))
def test_verify_reports_what_the_sweep_checker_reports(compile_checker,
                                                       solution, convention,
                                                       field, value):
    fraction, a = solution
    try:
        dec = decompose(a, fraction, convention=convention)
    except IntegralityError:
        return
    kind, key = field
    if kind == "x":
        bad = dataclasses.replace(dec, x={**dec.x, key: value})
    else:
        t = list(dec.t)
        t[key] = value
        bad = dataclasses.replace(dec, t=tuple(t))
    expected = compile_checker(checker_source(convention))(
        bad.m, bad.n, *pattern_data(bad.n, bad.pattern),
        *(bad.x[p] for p in P.X_PARAMS), *bad.t)
    assert {c.name for c in verify(bad).failures()} == set(expected)
